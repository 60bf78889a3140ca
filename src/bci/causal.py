"""Subjective causal effects: what each DM type believes an action does.

A type with condition set C and data set D fits the interventional belief

    b(y=1 | x_C, do(a)) = sum over x_{D\\C} of  p(x_{D\\C} | x_C) * p(y=1 | a, x_D)

to its dataset, i.e. it adjusts for exactly the covariates it conditions on
and treats the remaining dataset covariates as mediating information to be
averaged out.  All ingredient distributions are taken from the population
joint with the taste marginalized away — the dataset never records tastes,
so conditioning on the action can smuggle taste information back in; that is
the confounding at the heart of the model.

A belief is *undefined* at a condition cell when the cell itself has zero
probability, or when some needed conditional p(y | a, x_D) would condition on
a zero-mass event while carrying positive adjustment weight.  Undefined
values propagate as ``None`` (scalar API) or masked entries (table API);
nothing is imputed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import ModelError, Scenario, StrategyProfile, aggregate_behavior

DEFAULT_TIE_TOL = 1e-9


def tie_tolerance(tie_tol: float | None = None) -> float:
    """Resolve the indifference tolerance: argument, else BCI_TIE_TOL, else default."""
    if tie_tol is not None:
        return float(tie_tol)
    env = os.environ.get("BCI_TIE_TOL")
    return float(env) if env else DEFAULT_TIE_TOL


@dataclass(frozen=True)
class DeltaTable:
    """Perceived effect of switching a=0 -> a=1 on the outcome, per condition cell.

    ``values`` is indexed by the type's condition covariates (in covariate
    order) and is nan wherever ``defined`` is False.  ``reachable`` marks
    condition cells with positive probability; a cell can be reachable yet
    undefined when the profile leaves some needed (a, x_D) event unseen.
    """

    type_index: int
    c_names: tuple[str, ...]
    values: np.ndarray
    defined: np.ndarray
    reachable: np.ndarray

    def delta_at(self, cell: Mapping[str, int] | Sequence[int]) -> float | None:
        idx = _cell_index(self.c_names, cell)
        if not bool(self.defined[idx]):
            return None
        return float(self.values[idx])


def _cell_index(names: tuple[str, ...], cell: Mapping[str, int] | Sequence[int]) -> tuple[int, ...]:
    if isinstance(cell, Mapping):
        missing = set(names) - set(cell)
        if missing:
            raise ModelError(f"cell must assign {names}, missing {sorted(missing)}")
        return tuple(int(cell[n]) for n in names)
    idx = tuple(int(v) for v in cell)
    if len(idx) != len(names):
        raise ModelError(f"cell must assign {len(names)} values for {names}")
    return idx


def _belief_arrays(scenario: Scenario, profile: StrategyProfile, type_index: int):
    """Interventional beliefs for one type, over (condition cells, action).

    Returns (belief, belief_defined, reachable) with shapes
    (C_cards..., 2), (C_cards..., 2), (C_cards...,).
    """
    if not 0 <= type_index < scenario.n_types:
        raise ModelError(f"no type with index {type_index}")
    c_axes = scenario.c_axes(type_index)
    d_axes = scenario.d_axes(type_index)
    rest_axes = tuple(k for k in d_axes if k not in c_axes)

    px = scenario.ptx.sum(axis=0)  # over x, taste marginalized
    x_all = tuple(range(len(scenario.x_names)))
    drop = tuple(k for k in x_all if k not in d_axes)

    # Dataset moments over (x_D, a): event mass and mass with y=1.  Both
    # action rates are summed type by type, so a=0 is never 1 - p(a=1).
    action = np.stack(
        [aggregate_behavior(scenario, profile, a) for a in (0, 1)], axis=-1
    )  # (t, x..., a)
    mass_txa = scenario.ptx[..., None] * action
    y_txa = mass_txa * scenario.kernel[..., None]
    sum_axes = (0,) + tuple(1 + k for k in drop)
    mass_da = mass_txa.sum(axis=sum_axes)  # (x_D..., a) in covariate order
    y_da = y_txa.sum(axis=sum_axes)
    seen = mass_da > 0.0
    cond = np.where(seen, y_da / np.where(seen, mass_da, 1.0), np.nan)

    # Adjustment weights p(x_{D\C} | x_C) over (x_C..., x_rest...).
    p_d = px.sum(axis=drop) if drop else px
    c_pos = tuple(d_axes.index(k) for k in c_axes)
    rest_pos = tuple(d_axes.index(k) for k in rest_axes)
    p_d = np.transpose(p_d, c_pos + rest_pos)
    cond = np.transpose(cond, c_pos + rest_pos + (len(d_axes),))
    seen = np.transpose(seen, c_pos + rest_pos + (len(d_axes),))
    rest_nd = len(rest_axes)
    rest_dims = tuple(range(len(c_axes), len(c_axes) + rest_nd))
    p_c = p_d.sum(axis=rest_dims) if rest_dims else p_d
    reachable = p_c > 0.0
    safe_pc = np.where(reachable, p_c, 1.0)
    w = p_d / safe_pc.reshape(p_c.shape + (1,) * rest_nd)

    # belief[cell, a] = sum over rest cells of w * cond, defined when every
    # positively weighted term has a seen (a, x_D) event.
    needed = w[..., None] > 0.0
    if rest_nd:
        ok = np.all(~needed | seen, axis=rest_dims)
        flat_w = w.reshape(p_c.shape + (-1,))
        flat_cond = cond.reshape(p_c.shape + (-1, 2))
        # zero-weight nan terms must not poison the sum
        belief = np.where(flat_w[..., None] > 0, flat_w[..., None] * flat_cond, 0.0).sum(axis=-2)
    else:
        ok = seen
        belief = np.where(seen, cond, 0.0)
    belief_defined = ok & reachable[..., None]
    belief = np.where(belief_defined, belief, np.nan)
    return belief, belief_defined, reachable


def subjective_do_belief(
    scenario: Scenario,
    profile: StrategyProfile,
    type_index: int,
    cell: Mapping[str, int] | Sequence[int],
    action: int,
) -> float | None:
    """b(y=1 | x_C = cell, do(a)) for one type, or None where undefined."""
    if action not in (0, 1):
        raise ModelError("action must be 0 or 1")
    belief, defined, _ = _belief_arrays(scenario, profile, type_index)
    idx = _cell_index(scenario.c_names(type_index), cell)
    if not bool(defined[idx + (action,)]):
        return None
    return float(belief[idx + (action,)])


def delta_table(
    scenario: Scenario, profile: StrategyProfile, type_index: int | None = None
) -> DeltaTable | tuple[DeltaTable, ...]:
    """Perceived effects per condition cell: one type, or all when unspecified."""
    if type_index is None:
        return tuple(delta_table(scenario, profile, i) for i in range(scenario.n_types))
    belief, defined, reachable = _belief_arrays(scenario, profile, type_index)
    both = defined[..., 0] & defined[..., 1]
    values = np.where(both, belief[..., 1] - belief[..., 0], np.nan)
    return DeltaTable(type_index, scenario.c_names(type_index), values, both, reachable)


def delta(
    scenario: Scenario,
    profile: StrategyProfile,
    type_index: int,
    cell: Mapping[str, int] | Sequence[int],
) -> float | None:
    """Perceived effect at one condition cell, or None where undefined."""
    return delta_table(scenario, profile, type_index).delta_at(cell)


def score_from_delta(scenario: Scenario, delta_value: float, taste: int) -> float:
    """Subjective utility advantage of a=1 over a=0 at the given taste.

    The outcome term weighs the perceived effect by (1 - beta), the action
    itself carries weight beta, and following taste saves the mismatch cost.
    The baseline convention is the beta = 0 special case.
    """
    sign = 1.0 if taste == 1 else -1.0
    return scenario.beta + (1.0 - scenario.beta) * delta_value + sign * scenario.c


def best_reply_set(
    scenario: Scenario,
    delta_value: float,
    taste: int,
    tie_tol: float | None = None,
) -> frozenset[int]:
    """Subjectively optimal actions given a perceived effect and a taste.

    Within ``tie_tol`` of indifference both actions are best replies.
    """
    if taste not in (0, 1):
        raise ModelError("taste must be 0 or 1")
    tol = tie_tolerance(tie_tol)
    s = score_from_delta(scenario, delta_value, taste)
    if s > tol:
        return frozenset((1,))
    if s < -tol:
        return frozenset((0,))
    return frozenset((0, 1))


def best_reply_at(
    scenario: Scenario,
    profile: StrategyProfile,
    type_index: int,
    taste: int,
    cell: Mapping[str, int] | Sequence[int],
    tie_tol: float | None = None,
) -> frozenset[int] | None:
    """Best replies for one type at (taste, condition cell) under a profile.

    Returns None when the type's perceived effect is undefined there.
    """
    d = delta(scenario, profile, type_index, cell)
    if d is None:
        return None
    return best_reply_set(scenario, d, taste, tie_tol)
