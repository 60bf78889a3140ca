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
values propagate as ``None`` (``delta``) or masked entries (``delta_table``);
nothing is imputed.

Every effect here is read from the compiled engine
(``_engine.profile_effects``, the one belief kernel on a stacked profile),
the same computation that decides equilibrium verdicts; this module only
lays its output out per type and condition cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _engine as eng
from .model import ModelError, Scenario, StrategyProfile, is_integer


@dataclass(frozen=True, eq=False)
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
        idx = _cell_index(self.c_names, self.values.shape, cell)
        if not bool(self.defined[idx]):
            return None
        return float(self.values[idx])


def _cell_index(
    names: tuple[str, ...], cards: tuple[int, ...], cell: Mapping[str, int] | Sequence[int]
) -> tuple[int, ...]:
    if isinstance(cell, Mapping):
        missing = set(names) - set(cell)
        if missing:
            raise ModelError(f"cell must assign {names}, missing {sorted(missing)}")
        idx = tuple(cell[n] for n in names)
    else:
        idx = tuple(cell)
        if len(idx) != len(names):
            raise ModelError(f"cell must assign {len(names)} values for {names}")
    if not all(map(is_integer, idx)):
        raise ModelError(f"cell {idx} must assign integer coordinates to {names}")
    idx = tuple(int(v) for v in idx)
    # a negative index would wrap around to another cell
    if not all(0 <= v < card for v, card in zip(idx, cards)):
        raise ModelError(f"cell {idx} lies outside {names} with cardinalities {cards}")
    return idx


def delta_table(
    scenario: Scenario | eng.CompiledScenario, profile: StrategyProfile
) -> tuple[DeltaTable, ...]:
    """Perceived effects per condition cell, one table per type in type order.

    ``scenario`` may also be its ``CompiledScenario``, which is then not
    compiled again.
    """
    cs = eng.compiled(scenario)
    effect, defined = eng.profile_effects(cs, eng.flatten_profile(cs, profile))
    per_type = [
        [block.reshape(cards) for block, cards in zip(eng.split_cells(cs, a), cs.c_cards)]
        for a in (np.where(defined, effect, np.nan), defined, cs.reachable)
    ]
    return tuple(
        DeltaTable(i, cs.scenario.c_names(i), *arrays) for i, arrays in enumerate(zip(*per_type))
    )


def delta(
    scenario: Scenario | eng.CompiledScenario,
    profile: StrategyProfile,
    type_index: int,
    cell: Mapping[str, int] | Sequence[int],
) -> float | None:
    """Perceived effect at one condition cell, or None where undefined.

    ``scenario`` may also be its ``CompiledScenario``, as for ``delta_table``.
    """
    cs = eng.compiled(scenario)
    if not (is_integer(type_index) and 0 <= type_index < cs.scenario.n_types):
        raise ModelError(f"no type with index {type_index!r}")
    return delta_table(cs, profile)[type_index].delta_at(cell)
