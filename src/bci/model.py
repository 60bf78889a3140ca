"""Core model objects: scenarios, DM data types, strategy profiles, trembles.

A *scenario* fixes everything exogenous: the joint distribution of the binary
taste ``t`` and the covariates ``x``, a binary outcome kernel, the population
of DM data types with their mixture weights, and the taste-mismatch cost.

Each DM type is described by which covariates it conditions decisions on
(``condition_set``) and which covariates appear in its dataset (``data_set``).
The taste itself is private and never part of any dataset.

Two outcome conventions are supported:

* ``"baseline"`` — utility ``y - c * 1[a != t]``; the outcome variable is
  called ``y`` and ``beta`` must be zero.
* ``"consequential"`` — utility ``beta * a + (1 - beta) * z - c * 1[a != t]``;
  the action has a direct utility weight ``beta`` and the outcome variable is
  called ``z``.

In both conventions the outcome is unaffected by the action: the induced
joint always satisfies ``outcome ⊥ a | (t, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

RESERVED_NAMES = ("t", "a", "y", "z")

#: Tolerance for "masses sum to one" checks.
NORM_TOL = 1e-12


class ModelError(ValueError):
    """Raised for malformed scenarios, types, profiles, or tremble schedules."""


@dataclass(frozen=True)
class DataTypeSpec:
    """One DM data type: what it controls for and what its dataset records."""

    condition_set: tuple[str, ...]
    data_set: tuple[str, ...]

    def __post_init__(self) -> None:
        for label, names in (("condition_set", self.condition_set), ("data_set", self.data_set)):
            if len(set(names)) != len(names):
                raise ModelError(f"duplicate names in {label}: {names}")
        if not set(self.condition_set) <= set(self.data_set):
            raise ModelError(
                f"condition_set {self.condition_set} must be a subset of data_set {self.data_set}"
            )
        bad = set(self.condition_set) | set(self.data_set)
        bad &= set(RESERVED_NAMES)
        if bad:
            raise ModelError(f"reserved variable names in type spec: {sorted(bad)}")

    @property
    def simple(self) -> bool:
        """A type is simple when it conditions on everything in its dataset."""
        return set(self.condition_set) == set(self.data_set)


@dataclass(frozen=True)
class Scenario:
    """Exogenous primitives of one decision environment."""

    x_names: tuple[str, ...]
    x_cards: tuple[int, ...]
    ptx: np.ndarray
    kernel: np.ndarray
    types: tuple[DataTypeSpec, ...]
    lam: tuple[float, ...]
    c: float
    outcome_kind: str = "baseline"
    beta: float = 0.0

    def __post_init__(self) -> None:
        if len(self.x_names) != len(self.x_cards):
            raise ModelError("x_names and x_cards length mismatch")
        if len(set(self.x_names)) != len(self.x_names):
            raise ModelError(f"duplicate covariate names: {self.x_names}")
        clash = set(self.x_names) & set(RESERVED_NAMES)
        if clash:
            raise ModelError(f"covariate names {sorted(clash)} are reserved")
        for name, card in zip(self.x_names, self.x_cards):
            if card < 1:
                raise ModelError(f"covariate {name!r} needs cardinality >= 1")

        shape = (2,) + tuple(self.x_cards)
        ptx = np.asarray(self.ptx, dtype=np.float64)
        if ptx.shape != shape:
            raise ModelError(f"ptx shaped {ptx.shape}, expected {shape}")
        if np.any(ptx < 0) or abs(float(ptx.sum()) - 1.0) > NORM_TOL:
            raise ModelError("ptx must be a probability table summing to 1")
        kernel = np.asarray(self.kernel, dtype=np.float64)
        if kernel.shape != shape:
            raise ModelError(f"kernel shaped {kernel.shape}, expected {shape}")
        if np.any(kernel < 0) or np.any(kernel > 1):
            raise ModelError("kernel entries must lie in [0, 1]")
        object.__setattr__(self, "ptx", ptx)
        object.__setattr__(self, "kernel", kernel)

        if not self.types:
            raise ModelError("at least one DM type is required")
        if len(self.lam) != len(self.types):
            raise ModelError("lam must have one weight per type")
        lam = tuple(float(w) for w in self.lam)
        if any(w < 0 for w in lam) or abs(sum(lam) - 1.0) > NORM_TOL:
            raise ModelError("type weights must be nonnegative and sum to 1")
        object.__setattr__(self, "lam", lam)
        known = set(self.x_names)
        for i, spec in enumerate(self.types):
            unknown = set(spec.data_set) - known
            if unknown:
                raise ModelError(f"type {i} references unknown covariates {sorted(unknown)}")

        if not 0.0 < self.c < 1.0:
            raise ModelError("taste-mismatch cost c must lie in (0, 1)")
        if self.outcome_kind not in ("baseline", "consequential"):
            raise ModelError(f"unknown outcome_kind {self.outcome_kind!r}")
        if self.outcome_kind == "baseline" and self.beta != 0.0:
            raise ModelError("baseline scenarios must have beta = 0")
        if self.outcome_kind == "consequential" and not 0.0 < self.beta < 1.0:
            raise ModelError("consequential scenarios need beta in (0, 1)")

    # -- derived geometry -------------------------------------------------

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def gamma(self) -> float:
        """Marginal probability of taste t = 1."""
        return float(self.ptx[1].sum())

    def x_axes(self, names: Iterable[str]) -> tuple[int, ...]:
        """Positions of ``names`` within the covariate tuple, in x order."""
        index = {n: k for k, n in enumerate(self.x_names)}
        try:
            return tuple(sorted(index[n] for n in names))
        except KeyError as err:
            raise ModelError(f"unknown covariate {err.args[0]!r}") from None

    def c_axes(self, i: int) -> tuple[int, ...]:
        return self.x_axes(self.types[i].condition_set)

    def d_axes(self, i: int) -> tuple[int, ...]:
        return self.x_axes(self.types[i].data_set)

    def c_names(self, i: int) -> tuple[str, ...]:
        return tuple(self.x_names[k] for k in self.c_axes(i))

    def sigma_shape(self, i: int) -> tuple[int, ...]:
        """Shape of type i's strategy array: taste axis then its C covariates."""
        return (2,) + tuple(self.x_cards[k] for k in self.c_axes(i))

    def taste_cell_mass(self, i: int) -> np.ndarray:
        """p(t, x_C) for type i, shaped like ``sigma_shape(i)``."""
        keep = self.c_axes(i)
        drop = tuple(1 + k for k in range(len(self.x_names)) if k not in keep)
        return self.ptx.sum(axis=drop) if drop else self.ptx.copy()


# -- strategy profiles ----------------------------------------------------


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per type: probability of a = 1 given (t, x_C).

    Each sigma is a copy the profile owns: a profile made from a view of an
    engine batch does not keep the batch alive, and a caller that mutates
    its array afterwards does not change the profile.
    """

    sigmas: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        sigmas = tuple(np.array(s, dtype=np.float64) for s in self.sigmas)
        for i, s in enumerate(sigmas):
            if np.any(s < 0) or np.any(s > 1):
                raise ModelError(f"strategy {i} has entries outside [0, 1]")
        object.__setattr__(self, "sigmas", sigmas)

    def conforms(self, scenario: Scenario) -> None:
        if len(self.sigmas) != scenario.n_types:
            raise ModelError(
                f"profile has {len(self.sigmas)} strategies for {scenario.n_types} types"
            )
        for i, s in enumerate(self.sigmas):
            want = scenario.sigma_shape(i)
            if s.shape != want:
                raise ModelError(f"strategy {i} shaped {s.shape}, expected {want}")

    @classmethod
    def constant(cls, scenario: Scenario, p: float) -> "StrategyProfile":
        return cls(tuple(np.full(scenario.sigma_shape(i), float(p)) for i in range(scenario.n_types)))

    @classmethod
    def matching(cls, scenario: Scenario) -> "StrategyProfile":
        """Everyone follows taste: a = t regardless of covariates."""
        sigmas = []
        for i in range(scenario.n_types):
            s = np.zeros(scenario.sigma_shape(i))
            s[1] = 1.0
            sigmas.append(s)
        return cls(tuple(sigmas))

    def expanded(self, scenario: Scenario, i: int) -> np.ndarray:
        """Type i's action rule broadcast onto the full (t, x) grid."""
        keep = set(scenario.c_axes(i))
        newshape = (2,) + tuple(
            card if k in keep else 1 for k, card in enumerate(scenario.x_cards)
        )
        full = (2,) + tuple(scenario.x_cards)
        return np.broadcast_to(self.sigmas[i].reshape(newshape), full)

    def is_pure(self) -> bool:
        return all(bool(np.all((s == 0.0) | (s == 1.0))) for s in self.sigmas)

    def rounded(self) -> "StrategyProfile":
        return StrategyProfile(tuple(np.round(s) for s in self.sigmas))


# -- trembles --------------------------------------------------------------


@dataclass(frozen=True)
class TrembleSpec:
    """One perturbation rule: mix toward ``direction`` with weight eps**exponent.

    ``direction`` is an action (0 or 1), ``"flip"`` (toward whichever action
    the unperturbed strategy plays with probability < 1/2), or ``"uniform"``
    (toward the 50/50 mix).
    """

    exponent: float = 1.0
    direction: int | str = "flip"

    def __post_init__(self) -> None:
        if not self.exponent > 0:
            raise ModelError("tremble exponent must be positive")
        if self.direction not in (0, 1, "flip", "uniform"):
            raise ModelError(f"unknown tremble direction {self.direction!r}")


@dataclass(frozen=True)
class TrembleSchedule:
    """Per-(type, taste) perturbation rules defining a profile sequence.

    ``apply_trembles`` perturbs each strategy slice that has a rule; slices
    without one are left exact.  The empty schedule therefore yields the
    constant sequence, and eps = 0 is always the identity.
    """

    entries: tuple[tuple[tuple[int, int], TrembleSpec], ...] = ()
    default: TrembleSpec | None = None

    @classmethod
    def none(cls) -> "TrembleSchedule":
        return cls()

    @classmethod
    def uniform_flip(cls, exponent: float = 1.0) -> "TrembleSchedule":
        return cls(default=TrembleSpec(exponent, "flip"))

    @classmethod
    def of(cls, rules: Mapping[tuple[int, int], TrembleSpec], default: TrembleSpec | None = None) -> "TrembleSchedule":
        return cls(tuple(sorted(rules.items())), default)

    @property
    def is_empty(self) -> bool:
        return not self.entries and self.default is None

    def spec_for(self, type_index: int, taste: int) -> TrembleSpec | None:
        for key, spec in self.entries:
            if key == (type_index, taste):
                return spec
        return self.default


def apply_trembles(
    profile: StrategyProfile, schedule: TrembleSchedule, eps: float
) -> StrategyProfile:
    """Perturbed profile at noise level ``eps`` (identity at eps = 0)."""
    if eps < 0:
        raise ModelError("eps must be nonnegative")
    if eps == 0.0 or schedule.is_empty:
        return profile
    # _engine imports this module, so the engine is bound at call time
    from ._engine import CompiledSchedule, apply_compiled_trembles

    offsets = np.cumsum([0] + [sigma[0].size for sigma in profile.sigmas])
    stacked = np.concatenate([sigma.reshape(2, -1) for sigma in profile.sigmas], axis=-1)
    compiled = CompiledSchedule.from_schedule(schedule, offsets)
    blocks = np.split(apply_compiled_trembles(stacked, compiled, np.float64(eps)), offsets[1:-1], axis=-1)
    return StrategyProfile(tuple(b.reshape(s.shape) for b, s in zip(blocks, profile.sigmas)))


# -- induced behavior and outcomes ----------------------------------------


def aggregate_behavior(
    scenario: Scenario, profile: StrategyProfile, action: int = 1
) -> np.ndarray:
    """Population action rule p(a = action | t, x), shaped (2, *x_cards).

    Each type contributes its own probability of ``action``, so an exactly
    pure profile puts exactly zero mass on the action nobody plays even when
    the type weights sum to 1 only up to roundoff.
    """
    profile.conforms(scenario)
    out = np.zeros((2,) + tuple(scenario.x_cards))
    for i, w in enumerate(scenario.lam):
        if w:
            sig = profile.expanded(scenario, i)
            out += w * (sig if action == 1 else 1.0 - sig)
    return out


@dataclass(frozen=True)
class JointTable:
    """A joint distribution: an array with one axis per named variable."""

    names: tuple[str, ...]
    probs: np.ndarray

    def marginalize(self, keep: Sequence[str]) -> "JointTable":
        """Sum out every variable not in ``keep`` (original order preserved)."""
        unknown = set(keep) - set(self.names)
        if unknown:
            raise ModelError(f"unknown variables {sorted(unknown)}")
        drop = tuple(ax for ax, n in enumerate(self.names) if n not in keep)
        return JointTable(tuple(n for n in self.names if n in keep), self.probs.sum(axis=drop))


def induced_joint(scenario: Scenario, profile: StrategyProfile) -> JointTable:
    """Joint distribution over (t, x..., a, outcome) generated by the profile.

    Factorizes as p(t, x) * p(a | t, x) * p(outcome | t, x); the action and
    the outcome are conditionally independent given (t, x) by construction.
    """
    action = np.stack(
        [aggregate_behavior(scenario, profile, a) for a in (0, 1)], axis=-1
    )  # (..., a)
    outcome = np.stack([1.0 - scenario.kernel, scenario.kernel], axis=-1)
    probs = scenario.ptx[..., None, None] * action[..., :, None] * outcome[..., None, :]
    names = ("t", *scenario.x_names, "a", "y" if scenario.outcome_kind == "baseline" else "z")
    return JointTable(names, probs)


def action_rates(scenario: Scenario, profile: StrategyProfile) -> np.ndarray:
    """p(a = 1 | t) for t = 0, 1; nan where the taste has zero mass."""
    pa1 = aggregate_behavior(scenario, profile)
    x_axes = tuple(range(1, pa1.ndim))
    mass = scenario.ptx.sum(axis=x_axes) if x_axes else scenario.ptx
    joint = (scenario.ptx * pa1).sum(axis=x_axes) if x_axes else scenario.ptx * pa1
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.where(mass > 0, joint / np.where(mass > 0, mass, 1.0), np.nan)
    return rates


def error_probability(scenario: Scenario, profile: StrategyProfile) -> float:
    """Pr(a != t) under the induced joint."""
    pa0, pa1 = (aggregate_behavior(scenario, profile, a) for a in (0, 1))
    mismatch = np.stack([pa1[0], pa0[1]])  # t = 0 errs with a=1, t = 1 with a=0
    return float((scenario.ptx * mismatch).sum())


def welfare_loss(scenario: Scenario, profile: StrategyProfile) -> float:
    """Expected utility shortfall against a taste-matched DM who knows that
    the action never affects the outcome.

    In the baseline convention the rational rule is a = t and the loss reduces
    to ``c * Pr(a != t)``.  With a direct action weight beta the rational rule
    at t = 1 is always a = 1, and at t = 0 it is a = 1 exactly when beta > c;
    the loss weighs each deviation by the corresponding utility gap.
    """
    pa0, pa1 = (aggregate_behavior(scenario, profile, a) for a in (0, 1))
    beta, c = scenario.beta, scenario.c
    gap1 = beta + c  # t = 1, playing a = 0
    gap0_act = max(c - beta, 0.0)  # t = 0, playing a = 1
    gap0_wait = max(beta - c, 0.0)  # t = 0, playing a = 0
    per_cell = np.stack(
        [
            pa1[0] * gap0_act + pa0[0] * gap0_wait,
            pa0[1] * gap1,
        ]
    )
    return float((scenario.ptx * per_cell).sum())
