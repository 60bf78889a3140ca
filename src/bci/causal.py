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

Every belief and effect here is read from the compiled engine
(``_engine.profile_beliefs`` and ``_engine.profile_effects``), the same
computation that decides equilibrium verdicts; this module only lays its
output out per type and condition cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _engine as eng
from ._engine import tie_tolerance
from .model import ModelError, Scenario, StrategyProfile


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


def _check_type(scenario: Scenario, type_index: int) -> None:
    if not 0 <= type_index < scenario.n_types:
        raise ModelError(f"no type with index {type_index}")


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
    _check_type(scenario, type_index)
    cs = eng.compile_scenario(scenario)
    shape = (2,) + cs.c_cards[type_index]
    belief, defined = (
        eng.split_cells(cs, arr)[type_index].reshape(shape)
        for arr in eng.profile_beliefs(cs, eng.flatten_profile(cs, profile))
    )
    idx = (action,) + _cell_index(scenario.c_names(type_index), cell)
    if not bool(defined[idx]):
        return None
    return float(belief[idx])


def delta_table(
    scenario: Scenario, profile: StrategyProfile, type_index: int | None = None
) -> DeltaTable | tuple[DeltaTable, ...]:
    """Perceived effects per condition cell: one type, or all when unspecified."""
    if type_index is not None:
        _check_type(scenario, type_index)
    cs = eng.compile_scenario(scenario)
    effects = eng.profile_effects(cs, eng.split_cells(cs, eng.flatten_profile(cs, profile)))
    reachable = eng.split_cells(cs, cs.reachable)
    tables = tuple(
        DeltaTable(
            i,
            scenario.c_names(i),
            np.where(ok, d, np.nan).reshape(cs.c_cards[i]),
            ok.reshape(cs.c_cards[i]),
            reachable[i].reshape(cs.c_cards[i]),
        )
        for i, (d, ok) in enumerate(effects)
    )
    return tables if type_index is None else tables[type_index]


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
    # the engine's association (``_engine.best_replies``), so that scalar best
    # replies and verdicts agree to the last bit at the edge of the tie band
    return (scenario.beta + sign * scenario.c) + (1.0 - scenario.beta) * delta_value


def best_reply_set(scenario: Scenario, delta_value: float, taste: int) -> frozenset[int]:
    """Subjectively optimal actions given a perceived effect and a taste.

    Within ``tie_tolerance()`` of indifference both actions are best replies.
    """
    if taste not in (0, 1):
        raise ModelError("taste must be 0 or 1")
    tol = tie_tolerance()
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
) -> frozenset[int] | None:
    """Best replies for one type at (taste, condition cell) under a profile.

    Returns None when the type's perceived effect is undefined there.
    """
    d = delta(scenario, profile, type_index, cell)
    if d is None:
        return None
    return best_reply_set(scenario, d, taste)
