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
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from ._engine import CompiledScenario

RESERVED_NAMES = ("t", "a", "y", "z")

#: The one tolerance of every "masses sum to one" check.
NORM_TOL = 1e-12


class ModelError(ValueError):
    """Raised for malformed scenarios, types, profiles, or tremble schedules."""


def _type_violations(
    condition_set: Sequence[str], data_set: Sequence[str], known: set[str] | None = None
) -> list[str]:
    """Every violation of one type's (C, D) pair.  Inside a scenario each name
    must be a covariate (``known``); a lone type must use no reserved name."""
    problems = []
    cond, data = set(condition_set), set(data_set)
    if len(cond) != len(condition_set):
        problems.append(f"repeated names in C {tuple(condition_set)}")
    if len(data) != len(data_set):
        problems.append(f"repeated names in D {tuple(data_set)}")
    if not cond <= data:
        problems.append(f"C ⊄ D: {tuple(condition_set)} is not a subset of {tuple(data_set)}")
    names = cond | data
    if known is None:
        if not names.isdisjoint(RESERVED_NAMES):
            problems.append(f"reserved names {sorted(names.intersection(RESERVED_NAMES))}")
    elif not names <= known:
        problems.append(f"references unknown covariates {sorted(names - known)}")
    return problems


def scenario_violations(
    x_names: Sequence[str], x_cards: Sequence[int], ptx: np.ndarray | None,
    kernel: np.ndarray | None, types: Sequence[tuple[Sequence[str], Sequence[str]]],
    lam: Sequence[float], c: float, outcome_kind: str = "baseline", beta: float = 0.0,
) -> list[str]:
    """Every violation of a scenario's primitives, in a stable order.

    ``types`` holds each type's (C, D) name pair.  A ``None`` table is one
    the caller could not shape; its values go unchecked.  Each check passes
    only on good values, so a NaN fails it (as it fails ``min`` and ``max``).
    """
    problems = []
    if len(x_names) != len(x_cards):
        problems.append("x_names and x_cards length mismatch")
    known = set(x_names)
    if len(known) != len(x_names):
        problems.append(f"variable names must be distinct, got {tuple(x_names)}")
    for name in dict.fromkeys(n for n in x_names if n in RESERVED_NAMES):
        problems.append(f"variable name {name!r} is reserved")
    for name, card in zip(x_names, x_cards):
        if not card >= 1:
            problems.append(f"variable {name!r} needs cardinality >= 1")
    shape = (2, *x_cards)
    for label, table in (("p_tx", ptx), ("kernel", kernel)):
        if table is not None and table.shape != shape:
            problems.append(f"{label} shaped {table.shape}, expected {shape}")
    if ptx is not None:
        if ptx.size and not ptx.min() >= 0:
            problems.append("p_tx entries must be nonnegative")
        # an infinite or huge entry is a violation here, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(ptx.sum())
        if not abs(total - 1.0) <= NORM_TOL:
            problems.append(f"p_tx must sum to 1 (got {total!r})")
    if kernel is not None and kernel.size and not (kernel.min() >= 0 and kernel.max() <= 1):
        problems.append("kernel entries must lie in [0, 1]")
    if not types:
        problems.append("at least one type is required")
    for i, (condition_set, data_set) in enumerate(types):
        for problem in _type_violations(condition_set, data_set, known):
            problems.append(f"types[{i}]: {problem}")
    if len(lam) != len(types):
        problems.append("lambda must have one weight per type")
    if not all(w >= 0 for w in lam):
        problems.append("lambda weights must be nonnegative")
    if lam and not abs(sum(lam) - 1.0) <= NORM_TOL:
        problems.append(f"lambda not on simplex: weights sum to {float(sum(lam))!r}")
    if not 0.0 < c < 1.0:
        problems.append("taste-mismatch cost c must lie in (0, 1)")
    if outcome_kind not in ("baseline", "consequential"):
        problems.append(f"unknown outcome_kind {outcome_kind!r}")
    elif outcome_kind == "baseline" and beta != 0.0:
        problems.append("baseline scenarios must have beta = 0")
    elif outcome_kind == "consequential" and not 0.0 < beta < 1.0:
        problems.append("consequential beta must lie in (0, 1)")
    return problems


@dataclass(frozen=True)
class DataTypeSpec:
    """One DM data type: what it controls for and what its dataset records."""

    condition_set: tuple[str, ...]
    data_set: tuple[str, ...]

    def __post_init__(self) -> None:
        problems = _type_violations(self.condition_set, self.data_set)
        if problems:
            raise ModelError("; ".join(problems))

    @property
    def simple(self) -> bool:
        """A type is simple when it conditions on everything in its dataset."""
        return set(self.condition_set) == set(self.data_set)


@dataclass(frozen=True)
class Scenario:
    """Exogenous primitives of one decision environment; construction raises
    ``ModelError`` listing every violation ``scenario_violations`` finds."""

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
        ptx = np.array(self.ptx, dtype=np.float64)  # read-only copies, not the caller's arrays
        kernel = np.array(self.kernel, dtype=np.float64)
        ptx.setflags(write=False)
        kernel.setflags(write=False)
        lam = tuple(map(float, self.lam))
        types = [(spec.condition_set, spec.data_set) for spec in self.types]
        problems = scenario_violations(self.x_names, self.x_cards, ptx, kernel, types, lam,
                                       self.c, self.outcome_kind, self.beta)
        if problems:
            raise ModelError("; ".join(problems))
        object.__setattr__(self, "ptx", ptx)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "lam", lam)

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
        return tuple(sorted(self.x_names.index(n) for n in names))

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
            # written to pass only on good values, so a NaN entry fails it
            if not np.all((s >= 0) & (s <= 1)):
                raise ModelError(f"strategy {i} has entries not in [0, 1]")
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

    def is_pure(self) -> bool:
        return all(bool(np.all((s == 0.0) | (s == 1.0))) for s in self.sigmas)


# -- trembles --------------------------------------------------------------


@dataclass(frozen=True)
class TrembleSchedule:
    """Per-(type, taste) flip exponents defining a profile sequence.

    At noise level eps a slice with exponent k mixes weight eps**k of the
    action it plays with probability < 1/2 into its strategy.
    ``apply_trembles`` perturbs each strategy slice that has an exponent;
    slices without one are left exact.  The empty schedule therefore yields
    the constant sequence, and eps = 0 is always the identity.
    """

    entries: tuple[tuple[tuple[int, int], float], ...] = ()
    default: float | None = None

    def __post_init__(self) -> None:
        exponents = [k for _, k in self.entries]
        if self.default is not None:
            exponents.append(self.default)
        if not all(k > 0 for k in exponents):
            raise ModelError("tremble exponent must be positive")

    @classmethod
    def none(cls) -> "TrembleSchedule":
        return cls()

    @classmethod
    def uniform_flip(cls, exponent: float = 1.0) -> "TrembleSchedule":
        return cls(default=exponent)

    @classmethod
    def of(cls, rules: Mapping[tuple[int, int], float], default: float | None = None) -> "TrembleSchedule":
        return cls(tuple(sorted(rules.items())), default)

    @property
    def is_empty(self) -> bool:
        return not self.entries and self.default is None

    def exponents(self, n_types: int) -> np.ndarray:
        """The (2, n_types) table of flip exponents per (taste, type): each
        slice's own rule, else ``default``, else NaN (no rule: left exact)."""
        rules = dict(self.entries)
        rows = [[rules.get((i, taste), self.default) for i in range(n_types)] for taste in (0, 1)]
        return np.array(rows, dtype=np.float64)

    @classmethod
    def from_exponents(cls, table: np.ndarray) -> "TrembleSchedule":
        """The schedule of one explicit rule per non-NaN entry of a
        (2, n_types) exponent table."""
        return cls.of(
            {(i, taste): float(k) for (taste, i), k in np.ndenumerate(table) if not np.isnan(k)}
        )


def apply_trembles(
    profile: StrategyProfile, schedule: TrembleSchedule, eps: float
) -> StrategyProfile:
    """Perturbed profile at noise level ``eps`` (identity at eps = 0)."""
    if eps < 0:
        raise ModelError("eps must be nonnegative")
    if eps == 0.0 or schedule.is_empty:
        return profile
    # _engine imports this module, so the engine is bound at call time
    from ._engine import apply_compiled_trembles, cell_exponents

    offsets = np.cumsum([0] + [sigma[0].size for sigma in profile.sigmas])
    stacked = np.concatenate([sigma.reshape(2, -1) for sigma in profile.sigmas], axis=-1)
    exponents = cell_exponents(schedule.exponents(len(profile.sigmas)), offsets)
    blocks = np.split(apply_compiled_trembles(stacked, exponents, np.float64(eps)), offsets[1:-1], axis=-1)
    return StrategyProfile(tuple(b.reshape(s.shape) for b, s in zip(blocks, profile.sigmas)))


# -- induced behavior and outcomes ----------------------------------------


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


def induced_joint(scenario: Scenario | CompiledScenario, profile: StrategyProfile) -> JointTable:
    """Joint distribution over (t, x..., a, outcome) generated by the profile.

    Factorizes as p(t, x) * p(a | t, x) * p(outcome | t, x); the action and
    the outcome are conditionally independent given (t, x) by construction.
    ``scenario`` is a ``Scenario`` or its ``_engine.CompiledScenario``, as
    for ``error_probability``.
    """
    scenario, pa0, pa1 = _population_rates(scenario, profile)
    action = np.stack([pa0, pa1], axis=-1)  # (..., a)
    outcome = np.stack([1.0 - scenario.kernel, scenario.kernel], axis=-1)
    probs = scenario.ptx[..., None, None] * action[..., :, None] * outcome[..., None, :]
    names = ("t", *scenario.x_names, "a", "y" if scenario.outcome_kind == "baseline" else "z")
    return JointTable(names, probs)


def _population_rates(scenario: Scenario | CompiledScenario, profile: StrategyProfile):
    """The scenario and its population rates p(a=0 | t, x), p(a=1 | t, x),
    read on the engine's stacked layout."""
    # _engine imports this module, so the engine is bound at call time
    from ._engine import compiled, flatten_profile, population_rates

    cs = compiled(scenario)
    return (cs.scenario, *population_rates(cs, flatten_profile(cs, profile)))


def error_probability(scenario: Scenario | CompiledScenario, profile: StrategyProfile) -> float:
    """Pr(a != t) under the induced joint.

    ``scenario`` is a ``Scenario`` or its ``_engine.CompiledScenario``,
    which is then not compiled again.
    """
    scenario, pa0, pa1 = _population_rates(scenario, profile)
    mismatch = np.stack([pa1[0], pa0[1]])  # t = 0 errs with a=1, t = 1 with a=0
    return float((scenario.ptx * mismatch).sum())


def welfare_loss(scenario: Scenario | CompiledScenario, profile: StrategyProfile) -> float:
    """Expected utility shortfall against a taste-matched DM who knows that
    the action never affects the outcome.

    In the baseline convention the rational rule is a = t and the loss reduces
    to ``c * Pr(a != t)``.  With a direct action weight beta the rational rule
    at t = 1 is always a = 1, and at t = 0 it is a = 1 exactly when beta > c;
    the loss weighs each deviation by the corresponding utility gap.
    ``scenario`` is a ``Scenario`` or its ``_engine.CompiledScenario``, as
    for ``error_probability``.
    """
    scenario, pa0, pa1 = _population_rates(scenario, profile)
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
