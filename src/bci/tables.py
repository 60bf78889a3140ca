"""Dense finite joint-probability tables.

Conventions used throughout the package:

* A *variable space* is an ordered list of named finite variables.  Cell
  assignments are tuples of integer values, one per variable, in space order.
* Probability mass is stored as a dense float64 ndarray whose shape equals the
  per-variable cardinalities, laid out row-major (C order): the *first*
  variable is the slowest-moving index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Tables whose cell count exceeds this are rejected outright.
MAX_CELLS = 1 << 24

#: Tolerance for "masses sum to one" checks.
NORM_TOL = 1e-12


class TableError(ValueError):
    """Raised for malformed spaces, masses, or table operations."""


@dataclass(frozen=True)
class VariableSpace:
    """An ordered collection of named finite variables."""

    variables: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise TableError(f"duplicate variable names in {names}")
        for name, card in self.variables:
            if not isinstance(card, int) or card < 1:
                raise TableError(f"variable {name!r} needs integer cardinality >= 1, got {card!r}")
        if self.n_cells > MAX_CELLS:
            raise TableError(f"space has {self.n_cells} cells, above the {MAX_CELLS} cap")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.variables)

    @property
    def n_cells(self) -> int:
        out = 1
        for _, c in self.variables:
            out *= c
        return out

    def subspace(self, names: Sequence[str]) -> "VariableSpace":
        """Subspace holding ``names``, kept in this space's variable order."""
        keep = set(names)
        missing = keep - set(self.names)
        if missing:
            raise TableError(f"unknown variables {sorted(missing)}")
        return VariableSpace(tuple(v for v in self.variables if v[0] in keep))


class JointTable:
    """A normalized joint distribution over a :class:`VariableSpace`."""

    __slots__ = ("space", "probs")

    def __init__(self, space: VariableSpace, probs: np.ndarray, *, _checked: bool = False):
        probs = np.asarray(probs, dtype=np.float64).reshape(space.shape)
        if not _checked:
            if np.any(probs < 0):
                raise TableError("negative probability mass")
            total = float(probs.sum())
            if abs(total - 1.0) > NORM_TOL:
                raise TableError(f"masses sum to {total!r}, not 1 within {NORM_TOL}")
        self.space = space
        self.probs = probs

    def marginalize(self, keep: Sequence[str]) -> "JointTable":
        """Sum out every variable not in ``keep`` (original order preserved)."""
        sub = self.space.subspace(keep)
        drop = tuple(ax for ax, (n, _) in enumerate(self.space.variables) if n not in set(keep))
        return JointTable(sub, self.probs.sum(axis=drop) if drop else self.probs.copy(), _checked=True)
