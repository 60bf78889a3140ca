"""Dominance structure on data types.

Type i dominates type j when i's long-run data covers everything j can
condition on: the types that control for more are the ones whose inferences
survive.  Completeness and quasitransitivity of this relation decide whether
equilibrium reasoning can be layered from best-informed types downward, which
in turn drives the welfare-loss dichotomy for taste-free populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DataTypeSpec

__all__ = [
    "OrderError",
    "DominanceRelation",
    "LayerPartition",
    "build_relation",
    "is_complete",
    "is_quasitransitive",
    "layer_partition",
]


class OrderError(ValueError):
    """Raised for malformed relations or partition preconditions."""


@dataclass(frozen=True)
class DominanceRelation:
    """Boolean matrix of the data-coverage relation: entry (i, j) = iPj."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise OrderError("relation matrix must be square")
        if not m.flags["C_CONTIGUOUS"]:
            m = np.ascontiguousarray(m)
        if not np.diagonal(m).all():
            raise OrderError("relation must be reflexive")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def strict(self) -> np.ndarray:
        """Asymmetric part P*: iP*j iff iPj and not jPi."""
        return self.matrix & ~self.matrix.T

    def holds(self, i: int, j: int) -> bool:
        return bool(self.matrix[i, j])


@dataclass(frozen=True)
class LayerPartition:
    """Ordered partition of types into successively dominated layers.

    Layer 0 is the set of types no remaining type strictly dominates; each
    later layer repeats the extraction on what is left.  Every member of a
    layer dominates (weakly) every type in its own and all later layers.
    """

    layers: tuple[tuple[int, ...], ...]


def build_relation(types: Sequence[DataTypeSpec]) -> DominanceRelation:
    """iPj iff type i's data set contains type j's conditioning set."""
    if len(set(types)) != len(types):
        raise OrderError("types must be distinct")
    n = len(types)
    m = np.zeros((n, n), dtype=bool)
    data_sets = [frozenset(sp.data_set) for sp in types]
    cond_sets = [frozenset(sp.condition_set) for sp in types]
    for i in range(n):
        for j in range(n):
            m[i, j] = data_sets[i] >= cond_sets[j]
    return DominanceRelation(m)


def is_complete(rel: DominanceRelation) -> bool:
    """Every pair is related at least one way."""
    return bool((rel.matrix | rel.matrix.T).all())


def is_quasitransitive(rel: DominanceRelation) -> bool:
    """The strict part is transitive."""
    s = rel.strict
    two_step = (s.astype(np.uint8) @ s.astype(np.uint8)) > 0
    return not bool((two_step & ~s).any())


def layer_partition(rel: DominanceRelation) -> LayerPartition:
    """Peel off the strictly-undominated types until none remain.

    Requires a complete and quasitransitive relation; those hypotheses are
    exactly what makes each extraction step nonempty and gives every layer
    member weak dominance over everything at or below its layer.
    """
    if not (is_complete(rel) and is_quasitransitive(rel)):
        raise OrderError("not-complete-or-quasitransitive: layer partition undefined")
    strict = rel.strict
    remaining = list(range(rel.n))
    layers: list[tuple[int, ...]] = []
    while remaining:
        idx = np.array(remaining)
        sub = strict[np.ix_(idx, idx)]
        undominated = [remaining[k] for k in range(len(remaining)) if not sub[:, k].any()]
        if not undominated:
            raise OrderError("empty extraction step; hypotheses violated")
        layers.append(tuple(undominated))
        remaining = [i for i in remaining if i not in set(undominated)]

    # Sanity: each member weakly dominates its own and all later layers.
    flat_from = {}
    for ell, layer in enumerate(layers):
        for i in layer:
            flat_from[i] = ell
    for i, ell in flat_from.items():
        for j, ell_j in flat_from.items():
            if ell_j >= ell and not rel.matrix[i, j]:
                raise OrderError("internal error: layer property failed")
    return LayerPartition(tuple(layers))
