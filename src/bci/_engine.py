"""Vectorized verification core.

Everything expensive in the package funnels through here: perceived-effect
computation, best-reply tests, tremble ladders, best-response dynamics, and
pure-profile enumeration all operate on stacked ``(batch..., 2, S)``
strategy arrays so that batches of profiles (dynamics inits, enumeration
chunks, ladder rungs) ride one set of matrix products, and all of them
decide best replies with ``best_replies``.

Index conventions
-----------------
Covariate cells are raveled C-order over ``x_cards``; each type's condition
and data cells are raveled C-order over that type's covariates in covariate
order.  The *stacked* cell axis concatenates every type's condition cells in
type order (``CompiledScenario.offsets`` marks the blocks), and the stacked
data axis does the same for data cells.

The stacked array is the one profile layout between engine calls.  Per-type
arrays remain in three places only, where a reader wants one table per type:
``StrategyProfile``, ``causal.DeltaTable``, and ``profile_effects``, the
per-type view of the stacked effects that ``causal.delta_table`` reads
(``best_replies`` takes the stacked effects directly).  ``type_major``
orders the flattened (taste, stacked cell) axis by (type, taste, cell), the
order in which enumeration assigns pure actions, random starts are drawn and
witnesses are reported.

Compiled linear map
-------------------
Every data moment a perceived effect needs is linear in the strategies:
the mass ``p(a, x_D)`` and the outcome mass ``p(a, y=1, x_D)`` of each
type's data cell are sums over (taste, covariate cell) of ``p(t, x)``,
the outcome kernel and the type weight times the probability that the
playing type takes action ``a``.  ``compile_scenario`` folds all of that
into ``mass_map``, one matrix from the stacked strategy ``(2 tastes,
stacked cells)`` to every type's data-cell moments.  ``profile_beliefs``
multiplies it by the stacked pair ``[1 - sigma, sigma]``, so the a=0 mass is
the sum of each type's own ``lam * (1 - sigma)``: an exactly pure profile
leaves exactly zero mass on the unplayed action even when the type weights
sum to 1 only up to roundoff (``1 - sum(lam * sigma)`` would leave about
1e-16 there and call an unseen event observed).  One divide gives the
conditional outcome rates, one matmul with the block-diagonal ``adjust``
matrix averages them into beliefs, and one with the block-diagonal
``missing`` matrix flags condition cells that need an unseen event.

Batches and results
-------------------
A batch lives only as long as the engine call or the caller's loop step
that made it.  ``unflatten_profile`` cuts per-type blocks out of one stacked
row and ``StrategyProfile`` copies them, so a returned profile owns its
arrays and never keeps its batch alive.  Enumeration screens pure profiles in
chunks sized in bytes: ``equilibrium._CHUNK_BYTES`` bounds the moments array
of ``profile_beliefs``, the largest temporary of a screen, so that every
chunk reuses the same cache-sized buffers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelError, Scenario, StrategyProfile, TrembleSchedule, TrembleSpec

LADDER_START = 0.1
LADDER_RATIO = 0.5
DEFAULT_LADDER_FLOOR = 1e-6
DEFAULT_TAIL_MIN = 6
DEFAULT_TIE_TOL = 1e-9

# Dynamics evaluates best replies under a tiny internal flip so that effects
# stay identified; large floors would contaminate interior mixing points.
BR_FLOOR = 1e-10
CONVERGENCE_TOL = 1e-10

# "Played with probability > eps" is tested with this much slack: schedules
# routinely place mass of exactly eps on a non-best reply, and 1-(1-eps)
# reproduces eps only up to roundoff.
PLAY_SLACK = 1e-12


def tie_tolerance() -> float:
    """The indifference tolerance: BCI_TIE_TOL, else ``DEFAULT_TIE_TOL``.

    The tolerance must be a finite number >= 0; under a negative one a score
    could lie both above tol and below -tol, and a strict best reply would
    mean nothing.
    """
    raw = os.environ.get("BCI_TIE_TOL")
    if not raw:
        return DEFAULT_TIE_TOL
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise ModelError(f"BCI_TIE_TOL must be a finite number >= 0, got {raw!r}")
    return tol


def ladder_rungs() -> np.ndarray:
    """Geometric noise levels from ``LADDER_START`` down to the floor:
    BCI_LADDER_FLOOR, else ``DEFAULT_LADDER_FLOOR``."""
    env = os.environ.get("BCI_LADDER_FLOOR")
    try:
        floor = float(env) if env else DEFAULT_LADDER_FLOOR
    except ValueError:
        floor = np.nan  # fails the range check below
    if not 0 < floor <= LADDER_START:
        raise ModelError(
            f"need 0 < floor <= {LADDER_START}, the first rung (BCI_LADDER_FLOOR={env!r})"
        )
    out = []
    eps = LADDER_START
    while eps >= floor:
        out.append(eps)
        eps *= LADDER_RATIO
    return np.array(out)


@dataclass
class CompiledScenario:
    scenario: Scenario
    c_cards: tuple[tuple[int, ...], ...]  # per type: its condition covariates' cards
    score_base: np.ndarray  # (2,) = beta - c, beta + c
    effect_weight: float  # 1 - beta
    offsets: tuple[int, ...]  # n_types + 1 block bounds on the stacked cell axis
    reachable: np.ndarray  # (S,) bool: p(x_C) > 0
    tcm: np.ndarray  # (2, S) taste-cell mass p(t, x_C)
    active: np.ndarray  # (2, S) bool: tcm > 0
    type_major: np.ndarray  # (2 * S,) flat (taste, cell) indices in (type, taste, cell) order
    # (2 * S, 2 * D): stacked strategy, taste-major, -> [p(a, x_D) | p(a, y=1, x_D)]
    mass_map: np.ndarray
    adjust: np.ndarray  # (D, S) block-diagonal w_d * agg_c
    missing: np.ndarray  # (D, S) block-diagonal agg_c where w_d > 0
    # the two settings, each read once on first use: a call that never
    # decides a best reply or walks the ladder never reads a bad one
    tie_tol = cached_property(lambda self: tie_tolerance())
    rungs = cached_property(lambda self: ladder_rungs())


def _ravel_cells(cards: tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    """Ravel rows of per-variable coordinates into flat cell indices."""
    if not cards:
        return np.zeros(coords.shape[0], dtype=np.int64)
    return np.ravel_multi_index(tuple(coords.T), cards).astype(np.int64)


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    cards = tuple(scenario.x_cards)
    nx = int(np.prod(cards)) if cards else 1
    ptx = scenario.ptx.reshape(2, nx)
    kernel = scenario.kernel.reshape(2, nx)
    px = ptx.sum(axis=0)

    grid = np.indices(cards).reshape(len(cards), nx).T if cards else np.zeros((1, 0), int)
    all_c_cards, tcms = [], []
    offsets = [0]
    # per type, in stacked indices: covariate cell -> condition cell, data
    # cell -> condition cell; and one-hot covariate cell -> data cell
    c_cols, adj_cols, in_d, w_d = [], [], [], []
    for i in range(scenario.n_types):
        c_axes = scenario.c_axes(i)
        d_axes = scenario.d_axes(i)
        c_cards = tuple(cards[k] for k in c_axes)
        d_cards = tuple(cards[k] for k in d_axes)
        nc = int(np.prod(c_cards)) if c_cards else 1
        nd = int(np.prod(d_cards)) if d_cards else 1
        x_to_d = _ravel_cells(d_cards, grid[:, list(d_axes)])
        # data cell -> condition cell (C ⊆ D, both in covariate order)
        d_grid = np.indices(d_cards).reshape(len(d_cards), nd).T if d_cards else np.zeros((1, 0), int)
        c_in_d = [d_axes.index(k) for k in c_axes]
        d_to_c = _ravel_cells(c_cards, d_grid[:, c_in_d])

        agg_d = np.zeros((nx, nd))
        agg_d[np.arange(nx), x_to_d] = 1.0
        agg_c = np.zeros((nd, nc))
        agg_c[np.arange(nd), d_to_c] = 1.0

        pd = px @ agg_d
        pc = pd @ agg_c
        pc_of_d = pc[d_to_c]
        w_d.append(np.divide(pd, pc_of_d, out=np.zeros_like(pd), where=pc_of_d > 0))
        tcms.append(ptx @ agg_d @ agg_c)
        all_c_cards.append(c_cards)
        c_cols.append(offsets[-1] + d_to_c[x_to_d])
        adj_cols.append(offsets[-1] + d_to_c)
        in_d.append(agg_d)
        offsets.append(offsets[-1] + nc)

    n_s = offsets[-1]
    lam_x = np.zeros((nx, n_s))  # covariate cell -> stacked condition cells, times lam
    lam_x[np.arange(nx)[:, None], np.stack(c_cols, axis=1)] = scenario.lam
    in_d = np.concatenate(in_d, axis=1)  # covariate cell -> stacked data cells
    n_d = in_d.shape[1]
    moments = np.stack([ptx, ptx * kernel])  # (moment, taste, nx)
    mass_map = (lam_x.T * moments[:, :, None, :]) @ in_d  # (moment, taste, S, D)
    adjust = np.zeros((n_d, n_s))
    adjust[np.arange(n_d), np.concatenate(adj_cols)] = np.concatenate(w_d)

    tcm = np.concatenate(tcms, axis=1)
    # stable sort of the taste-major flat axis by type: (type, taste, cell)
    type_of_cell = np.repeat(np.arange(scenario.n_types), np.diff(offsets))
    beta, c = scenario.beta, scenario.c
    return CompiledScenario(
        scenario=scenario,
        c_cards=tuple(all_c_cards),
        score_base=np.array([beta - c, beta + c]),
        effect_weight=1.0 - beta,
        offsets=tuple(offsets),
        reachable=tcm.sum(axis=0) > 0,
        tcm=tcm,
        active=tcm > 0,
        type_major=np.argsort(np.tile(type_of_cell, 2), kind="stable"),
        mass_map=mass_map.transpose(1, 2, 0, 3).reshape(2 * n_s, 2 * n_d),
        adjust=adjust,
        missing=(adjust > 0).astype(np.float64),
    )


# -- profile layout ---------------------------------------------------------


def flatten_profile(cs: CompiledScenario, profile: StrategyProfile) -> np.ndarray:
    """The profile on the stacked layout, shaped (2, S)."""
    profile.conforms(cs.scenario)
    return np.concatenate([sig.reshape(2, -1) for sig in profile.sigmas], axis=-1)


def unflatten_profile(cs: CompiledScenario, stacked: np.ndarray) -> StrategyProfile:
    """The profile of one stacked (2, S) row; its sigmas are copies, not views."""
    blocks = split_cells(cs, stacked)
    return StrategyProfile(tuple(b.reshape((2,) + cards) for b, cards in zip(blocks, cs.c_cards)))


def profile_key(stacked: np.ndarray) -> bytes:
    """Identity of a stacked profile up to 10 decimals, for deduplicating rest points."""
    return np.round(np.asarray(stacked), 10).tobytes()


def split_cells(cs: CompiledScenario, stacked: np.ndarray) -> list[np.ndarray]:
    """Per-type views of an array whose last axis is the stacked cell axis."""
    return [stacked[..., a:b] for a, b in zip(cs.offsets[:-1], cs.offsets[1:])]


# -- trembles ---------------------------------------------------------------

_TARGET_NONE = -1
_TARGET_ZERO = 0
_TARGET_ONE = 1
_TARGET_FLIP = 2
_TARGET_UNIFORM = 3

_CODE_OF_DIRECTION = {0: _TARGET_ZERO, 1: _TARGET_ONE, "flip": _TARGET_FLIP, "uniform": _TARGET_UNIFORM}
_DIRECTION_OF_CODE = {code: direction for direction, code in _CODE_OF_DIRECTION.items()}


@dataclass
class CompiledSchedule:
    """Tremble rules on the stacked layout: an exponent and a target code per (taste, cell)."""

    exponents: np.ndarray  # (..., 2, S), broadcastable to the profile batch
    codes: np.ndarray  # (2, S) ints

    @classmethod
    def from_schedule(cls, schedule: TrembleSchedule, offsets) -> "CompiledSchedule":
        """Compile for the stacked cell axis whose type blocks ``offsets`` bounds."""
        specs = [
            [schedule.spec_for(i, taste) for i in range(len(offsets) - 1)] for taste in (0, 1)
        ]
        sizes = np.diff(offsets)
        exps = [[1.0 if sp is None else sp.exponent for sp in row] for row in specs]
        codes = [
            [_TARGET_NONE if sp is None else _CODE_OF_DIRECTION[sp.direction] for sp in row]
            for row in specs
        ]
        return cls(
            np.repeat(np.array(exps, dtype=np.float64), sizes, axis=-1),
            np.repeat(np.array(codes), sizes, axis=-1),
        )

    def to_schedule(self, offsets) -> TrembleSchedule:
        """The per-(type, taste) rules of a schedule compiled for one profile."""
        return TrembleSchedule.of(
            {
                (i, taste): TrembleSpec(
                    float(self.exponents[taste, first]),
                    _DIRECTION_OF_CODE[int(self.codes[taste, first])],
                )
                for i, first in enumerate(offsets[:-1])
                for taste in (0, 1)
                if self.codes[taste, first] != _TARGET_NONE
            }
        )


def taste_weighted_schedule(cs: CompiledScenario, stacked: np.ndarray) -> CompiledSchedule:
    """Flip trembles that fade faster where the slice already matches taste.

    Slices whose majority action over active cells equals the taste get
    exponent 2 (second-order noise); others get exponent 1.  This mirrors the
    natural construction for taste-driven corner profiles, where the
    taste-matching side must tremble an order slower to keep the perceived
    effect alive.
    """
    weights = np.where(cs.active, cs.tcm, 0.0)
    played = stacked * weights
    # per-block slice sums: a segmented reduction (np.add.reduceat) would
    # round differently and move majorities that sit exactly at one half
    blocks = list(zip(cs.offsets[:-1], cs.offsets[1:]))
    total = np.stack([weights[:, a:b].sum(axis=-1) for a, b in blocks], axis=-1)
    mass = np.stack([played[..., a:b].sum(axis=-1) for a, b in blocks], axis=-1)
    share = np.divide(mass, total, out=np.full(mass.shape, 0.5), where=total > 0)
    majority = share >= 0.5  # (..., 2, n_types) per-slice majority action
    exps = np.where(majority == (np.arange(2)[:, None] == 1), 2.0, 1.0)
    return CompiledSchedule(
        np.repeat(exps, np.diff(cs.offsets), axis=-1),
        np.full(cs.active.shape, _TARGET_FLIP),
    )


def apply_compiled_trembles(
    stacked: np.ndarray, sched: CompiledSchedule, eps: np.ndarray
) -> np.ndarray:
    """Trembled copies of stacked profiles at noise levels ``eps``.

    ``eps`` may be scalar or (R,); with (R,) the output gains a leading rung
    axis: (R, batch..., 2, S).
    """
    eps = np.asarray(eps, dtype=np.float64)
    code = sched.codes
    tgt = np.where(code == _TARGET_ONE, 1.0, 0.0)
    tgt = np.where(code == _TARGET_UNIFORM, 0.5, tgt)
    tgt = np.where(code == _TARGET_FLIP, np.where(stacked >= 0.5, 0.0, 1.0), tgt)
    m = np.minimum(eps.reshape(eps.shape + (1,) * stacked.ndim) ** sched.exponents, 1.0)
    m = np.where(code != _TARGET_NONE, m, 0.0)
    return (1.0 - m) * stacked + m * tgt


def flip_floor(stacked: np.ndarray) -> np.ndarray:
    """Full-support copy: mix ``BR_FLOOR`` of the opposite pure action everywhere."""
    return (1.0 - BR_FLOOR) * stacked + BR_FLOOR * np.where(stacked >= 0.5, 0.0, 1.0)


# -- perceived effects and best replies ------------------------------------


def profile_beliefs(cs: CompiledScenario, stacked: np.ndarray):
    """Do-beliefs b(y=1 | x_C, do(a)) for a batch of stacked profiles, per action.

    ``stacked`` is (batch..., 2, S); every type and every batch entry goes
    through the compiled maps in one pass.  Returns (belief, defined), both
    shaped (batch..., 2 actions, S).  A belief is defined where its condition
    cell is reachable and every data cell it averages over with positive
    weight has seen that action; belief is meaningless where it is not
    defined.
    """
    lead, n_s = stacked.shape[:-2], stacked.shape[-1]
    n_d = cs.adjust.shape[0]
    sigma = stacked.reshape(-1, 1, 2 * n_s)
    both = np.concatenate([1.0 - sigma, sigma], axis=1)  # (n, action, 2 * S)
    moments = (both.reshape(-1, 2 * n_s) @ cs.mass_map).reshape(-1, 2 * n_d)
    mass, ymass = moments[:, :n_d], moments[:, n_d:]
    seen = mass > 0
    cond = np.divide(ymass, mass, out=np.zeros_like(mass), where=seen)
    belief = (cond @ cs.adjust).reshape(lead + (2, n_s))
    unseen = (~seen).astype(np.float64)
    defined = ((unseen @ cs.missing) == 0).reshape(lead + (2, n_s)) & cs.reachable
    return belief, defined


def _stacked_effects(cs: CompiledScenario, stacked: np.ndarray):
    """(delta, defined) for a batch of stacked profiles, both shaped (batch..., S).

    delta = b(do(1)) - b(do(0)) from ``profile_beliefs``, defined where both
    beliefs are, and 0 where undefined.
    """
    belief, defined = profile_beliefs(cs, stacked)
    # the same as defined.all(axis=-2), which is several times slower on a
    # reduction axis of length 2
    both = defined[..., 0, :] & defined[..., 1, :]
    return np.where(both, belief[..., 1, :] - belief[..., 0, :], 0.0), both


def profile_effects(cs: CompiledScenario, flats: list[np.ndarray]):
    """Per-type (delta, defined) lists for a batch of profiles.

    ``flats`` holds per-type arrays shaped (batch..., 2, nc), such as the
    ``split_cells`` views of a stacked batch; the effects are
    ``_stacked_effects`` split the same way.
    """
    delta, defined = _stacked_effects(cs, np.concatenate(flats, axis=-1))
    return list(zip(split_cells(cs, delta), split_cells(cs, defined)))


def best_replies(cs: CompiledScenario, stacked: np.ndarray):
    """The best-reply rule for a batch of stacked profiles (batch..., 2, S).

    Returns (delta, defined, scores, code): the perceived effect and its
    definedness, shaped (batch..., S); the score of a=1 over a=0,
    ``score_base + effect_weight * delta``, and the strict best-reply code,
    both shaped (batch..., 2 tastes, S).  The code is 1 or 0 where that
    action is the strict best reply, and -1 at a tie within ``cs.tie_tol``, on
    an inactive cell, or where the effect is undefined.
    """
    delta, defined = _stacked_effects(cs, stacked)
    scores = cs.score_base.reshape((2, 1)) + cs.effect_weight * delta[..., None, :]
    tol = cs.tie_tol
    code = np.where(scores > tol, 1, np.where(scores < -tol, 0, -1)).astype(np.int8)
    code = np.where(cs.active & defined[..., None, :], code, np.int8(-1))
    return delta, defined, scores, code


def offside(stacked: np.ndarray, code: np.ndarray, eps) -> tuple[np.ndarray, np.ndarray]:
    """Where action 1, and where action 0, is played above ``eps`` against a strict best reply."""
    return (
        (stacked > eps + PLAY_SLACK) & (code == 0),
        ((1.0 - stacked) > eps + PLAY_SLACK) & (code == 1),
    )


def check_rungs(cs: CompiledScenario, trembled: np.ndarray, eps: np.ndarray):
    """Definition test for trembled profiles at matching noise thresholds.

    ``trembled`` is (R, batch..., 2, S); ``eps`` is (R,).  Returns
    (ok, undef, bad, scores): ok and undef shaped (R, batch...), bad and the
    ``best_replies`` scores shaped like ``trembled``.  bad marks an action
    played above the threshold against a strict best reply; undef, an active
    cell whose effect is undefined; ok, neither anywhere in the profile.
    """
    _, defined, scores, code = best_replies(cs, trembled)
    bad1, bad0 = offside(trembled, code, eps.reshape(eps.shape + (1,) * (trembled.ndim - 1)))
    bad = bad1 | bad0
    undef = (~defined & cs.active.any(axis=0)).any(axis=-1)
    ok = ~bad.any(axis=(-2, -1)) & ~undef
    return ok, undef, bad, scores


def tail_lengths(passes: np.ndarray) -> np.ndarray:
    """Length of the passing suffix along the leading (rung) axis."""
    return np.cumprod(passes[::-1], axis=0).sum(axis=0)
