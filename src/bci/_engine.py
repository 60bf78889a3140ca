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
stacked cells)`` to every type's data-cell moments.  ``_beliefs``, the one
belief kernel, takes a batch as the column pair ``[1 - sigma | sigma]``,
``(2S, 2n)``, and multiplies the transposed map by it, so the a=0 mass is
the sum of each type's own ``lam * (1 - sigma)``: an exactly pure profile
leaves exactly zero mass on the unplayed action even when the type weights
sum to 1 only up to roundoff (``1 - sum(lam * sigma)`` would leave about
1e-16 there and call an unseen event observed).  One divide gives the
conditional outcome rates, one matmul with the block-diagonal ``adjust``
matrix averages them into beliefs, and one with the block-diagonal
``missing`` matrix flags condition cells that need an unseen event.  Best
replies and enumeration's misfit filter both read this kernel.

A caller that holds a compiled scenario hands it on: the verifiers, the
delta tables and the report statistics (``model.welfare_loss`` and
``model.error_probability``) take a ``Scenario`` or a ``CompiledScenario``
and pass their argument through ``compiled``, which compiles only the
former.  So one certification compiles its scenario at most once, and not
at all when its caller has already compiled it.

Population statistics
---------------------
``population_rates`` reads the population's action rates p(a | t, x) off
the stacked layout: ``CompiledScenario.x_cells`` maps each covariate cell to
each type's stacked condition cell, so a type's rate on the full (t, x) grid
is one gather.  The report statistics and ``model.induced_joint`` weigh
those rates by ``p(t, x)``.

Trembles
--------
A tremble schedule compiles to one form, its flip exponent per (taste,
type), NaN where a slice has no rule: a ``(batch..., 2, n_types)`` table.
``cell_exponents`` repeats a table onto the stacked cells, and
``apply_compiled_trembles`` leaves a NaN cell exact.  Stacked tables tremble
one batch under several schedules at once, as enumeration's screen does.

Batches and results
-------------------
A batch lives only as long as the engine call or the caller's loop step
that made it.  ``unflatten_profile`` cuts per-type blocks out of one stacked
row and ``StrategyProfile`` copies them, so a returned profile owns its
arrays and never keeps its batch alive.  Enumeration makes two passes over
pure profiles in chunks sized in bytes.  ``pure_misfits`` first rejects the
profiles that provably fail the floor rung: the kernel's scores, less a
tremble margin, of the half whose last slot plays 0 and, off the same
columns, of their complements.  Its column block is built once per
enumeration call, a power-of-two chunk wide, with every pattern of the bits
below that width; each chunk rewrites only the rows of the slots whose bits
lie above it.  The exact screen and certification then see only the rest.
``equilibrium._CHUNK_BYTES`` bounds the kernel's moments array, ``(2D, 2n)``,
so that every chunk reuses the same cache-sized buffers; the exact screen,
which sees few profiles, checks three schedules per profile, ``(2D, 6n)``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelError, Scenario, StrategyProfile

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
    x_cells: np.ndarray  # (n_types, nx) per type: covariate cell -> stacked condition cell
    # the two settings, each read once on first use: a call that never
    # decides a best reply or walks the ladder never reads a bad one
    tie_tol = cached_property(lambda self: tie_tolerance())
    rungs = cached_property(lambda self: ladder_rungs())

    @cached_property
    def weights(self) -> np.ndarray:
        """(2, S) taste-cell mass on active cells, 0 elsewhere."""
        return np.where(self.active, self.tcm, 0.0)

    @cached_property
    def total(self) -> np.ndarray:
        """(2, n_types) active mass of each type's taste slice."""
        return np.stack([w.sum(axis=-1) for w in split_cells(self, self.weights)], axis=-1)


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
    x_cells = np.stack(c_cols)
    lam_x = np.zeros((nx, n_s))  # covariate cell -> stacked condition cells, times lam
    lam_x[np.arange(nx)[:, None], x_cells.T] = scenario.lam
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
        x_cells=x_cells,
    )


def compiled(scenario: Scenario | CompiledScenario) -> CompiledScenario:
    """The compiled scenario: a ``CompiledScenario`` as it is, anything else compiled."""
    return scenario if isinstance(scenario, CompiledScenario) else compile_scenario(scenario)


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


def population_rates(cs: CompiledScenario, stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(a=0 | t, x) and p(a=1 | t, x) of one stacked (2, S) profile, each
    shaped (2, *x_cards).

    Each type adds its own lam-weighted rate of each action, in type order
    and skipping weight 0, so an exactly pure profile leaves exactly zero
    mass on the action nobody plays.
    """
    sig = stacked[:, cs.x_cells]  # (taste, type, covariate cell)
    both = np.concatenate([1.0 - sig, sig])  # (action and taste, type, covariate cell)
    rates = np.zeros((4, cs.x_cells.shape[1]))
    for i, w in enumerate(cs.scenario.lam):
        if w:
            rates += w * both[:, i]
    rates = rates.reshape((2, 2) + tuple(cs.scenario.x_cards))
    return rates[0], rates[1]


# -- trembles ---------------------------------------------------------------


def cell_exponents(table: np.ndarray, offsets) -> np.ndarray:
    """A (..., 2, n_types) exponent table expanded onto the stacked cell axis
    whose type blocks ``offsets`` bounds: (..., 2, S)."""
    return np.repeat(table, np.diff(offsets), axis=-1)


def taste_weighted_schedule(cs: CompiledScenario, stacked: np.ndarray) -> np.ndarray:
    """Flip trembles that fade faster where the slice already matches taste.

    Slices whose majority action over active cells equals the taste get
    exponent 2 (second-order noise); others get exponent 1.  This mirrors the
    natural construction for taste-driven corner profiles, where the
    taste-matching side must tremble an order slower to keep the perceived
    effect alive.  Returns the exponent table, (batch..., 2, n_types).
    """
    played = stacked * cs.weights
    # per-block slice sums, as for ``cs.total``: a segmented reduction
    # (np.add.reduceat) would round differently and move majorities that sit
    # exactly at one half
    mass = np.stack([p.sum(axis=-1) for p in split_cells(cs, played)], axis=-1)
    total = cs.total
    share = np.divide(mass, total, out=np.full(mass.shape, 0.5), where=total > 0)
    majority = share >= 0.5  # (..., 2, n_types) per-slice majority action
    return np.where(majority == (np.arange(2)[:, None] == 1), 2.0, 1.0)


def apply_compiled_trembles(
    stacked: np.ndarray, exponents: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Trembled copies of stacked profiles at noise levels ``eps``.

    ``exponents`` holds each cell's flip exponent (NaN: exact), (..., 2, S),
    and the batch broadcasts it against the profiles.  ``eps`` may be scalar
    or (R,); with (R,) the output gains a leading rung axis: (R, batch..., 2, S).
    """
    eps = np.asarray(eps, dtype=np.float64)
    tgt = np.where(stacked >= 0.5, 0.0, 1.0)
    ndim = max(stacked.ndim, exponents.ndim)
    m = np.minimum(eps.reshape(eps.shape + (1,) * ndim) ** exponents, 1.0)
    # not m's own NaN: 1 ** NaN is 1
    np.copyto(m, 0.0, where=np.isnan(exponents))
    return (1.0 - m) * stacked + m * tgt


def flip_floor(stacked: np.ndarray) -> np.ndarray:
    """Full-support copy: mix ``BR_FLOOR`` of the opposite pure action everywhere."""
    out = (1.0 - BR_FLOOR) * stacked
    np.add(out, BR_FLOOR, out=out, where=stacked < 0.5)
    return out


# -- perceived effects and best replies ------------------------------------


def _beliefs(cs: CompiledScenario, cols: np.ndarray):
    """The belief kernel, on a batch of stacked profiles held as columns.

    ``cols`` is ``[1 - sigma | sigma]``, (2S, 2n), column j of sigma profile
    j's (taste, cell) strategy.  Returns (mass, belief, defined): the
    data-cell masses p(a, x_D), shaped (D, 2n); the do-beliefs
    b(y=1 | x_C, do(a)) and their definedness, shaped (S, 2n).  Columns run
    over every profile under a=0, then under a=1.  A belief is defined where
    its condition cell is reachable and every data cell it averages over
    with positive weight has seen that action; belief is meaningless where
    it is not defined.
    """
    n_d = cs.adjust.shape[0]
    moments = cs.mass_map.T @ cols  # (2D, 2n)
    mass, ymass = moments[:n_d], moments[n_d:]
    seen = mass > 0
    cond = np.divide(ymass, mass, out=np.zeros_like(mass), where=seen)
    unseen = cs.missing.T @ (~seen).astype(np.float64)
    return mass, cs.adjust.T @ cond, (unseen == 0) & cs.reachable[:, None]


def _stacked_effects(cs: CompiledScenario, stacked: np.ndarray):
    """(delta, defined) for a batch of stacked profiles, both shaped (batch..., S).

    delta = b(do(1)) - b(do(0)) from ``_beliefs``, defined where both
    beliefs are, and 0 where undefined.
    """
    lead, n_s = stacked.shape[:-2], stacked.shape[-1]
    n = math.prod(lead)
    sigma = stacked.reshape(n, 2 * n_s).T
    _, belief, defined = _beliefs(cs, np.concatenate([1.0 - sigma, sigma], axis=1))
    both = defined[:, :n] & defined[:, n:]
    delta = np.zeros(both.shape)
    np.copyto(delta, belief[:, n:] - belief[:, :n], where=both)
    return delta.T.reshape(lead + (n_s,)), both.T.reshape(lead + (n_s,))


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
    code = np.full(scores.shape, -1, dtype=np.int8)
    strict = (np.abs(scores) > tol) & cs.active & defined[..., None, :]
    np.copyto(code, scores > tol, where=strict)
    return delta, defined, scores, code


def check_rungs(cs: CompiledScenario, trembled: np.ndarray, eps: np.ndarray):
    """Definition test for trembled profiles at matching noise thresholds.

    ``trembled`` is (R, batch..., 2, S); ``eps`` is (R,).  Returns
    (ok, undef, bad, replies): ok and undef shaped (R, batch...), bad shaped
    like ``trembled``, and replies the ``best_replies`` arrays (delta,
    defined, scores, code) the test decided from.  bad marks an action
    played above the threshold against a strict best reply; undef, a
    reachable cell whose effect is undefined; ok, neither anywhere in the
    profile.
    """
    _, defined, _, code = replies = best_replies(cs, trembled)
    above = eps.reshape(eps.shape + (1,) * (trembled.ndim - 1)) + PLAY_SLACK
    bad = ((trembled > above) & (code == 0)) | ((1.0 - trembled > above) & (code == 1))
    undef = (~defined & cs.reachable).any(axis=-1)
    ok = ~bad.any(axis=(-2, -1)) & ~undef
    return ok, undef, bad, replies


def tail_lengths(passes: np.ndarray) -> np.ndarray:
    """Length of the passing suffix along the leading (rung) axis."""
    return np.cumprod(passes[::-1], axis=0).sum(axis=0)


# -- pure-profile filter ----------------------------------------------------

# T / M_a where action a leaves data cell d unseen: finite, so that a zero
# ``adjust`` weight times it stays 0 (such a cell's effect is undefined, and
# its margin is never read)
_UNSEEN_RATIO = 1e300
# slack for the roundoff of computing a score, on top of the tie band
_SCORE_ROUNDOFF = 1e-12


def _pure_scores(cs: CompiledScenario, cols: np.ndarray, eps: float):
    """Scores of pure profiles, as ``_beliefs`` columns (2S, 2n), and of
    their complements, with the bound on how far trembles of at most ``eps``
    per cell can move them.

    Returns (scores, margin, defined): scores shaped (2 tastes, S, 2n), the
    profiles' then their complements', margin and defined shaped (S, n);
    scores and defined are those ``best_replies`` reads off ``_beliefs``.  A
    complement flips every active cell, so on the rows ``mass_map`` weighs its
    columns are ``[sigma | 1 - sigma]``: its effect is -delta to the bit, and
    its margin and definedness (sums over both actions) are the profile's.  A
    tremble m <= eps moves action a's outcome rate at data cell d by at most
    eps / (1 - eps) * T(d) / M_a(d), where M_a(d) is the pure profile's mass
    of a at d and T(d) = M_0(d) + M_1(d); margin is that bound carried
    through ``adjust`` and ``effect_weight``, on cells whose effect is
    defined.
    """
    n = cols.shape[1] // 2
    mass, belief, defined = _beliefs(cs, cols)
    by_action = mass.reshape(-1, 2, n)
    total = by_action.sum(axis=1, keepdims=True)
    ratio = np.divide(
        total, by_action, out=np.full(by_action.shape, _UNSEEN_RATIO), where=by_action > 0
    )
    margin = cs.adjust.T @ ratio.sum(axis=1)
    margin *= cs.effect_weight * eps / (1.0 - eps)
    effect = cs.effect_weight * (belief[:, n:] - belief[:, :n])
    scores = cs.score_base[:, None, None] + np.concatenate([effect, -effect], axis=1)
    return scores, margin, defined[:, :n] & defined[:, n:]


def pure_misfits(cs: CompiledScenario, cols: np.ndarray, eps: float) -> np.ndarray:
    """(2, n) bool: pure profiles, as ``_beliefs`` columns (2S, 2n), in row
    0, and their complements (see ``_pure_scores``) in row 1, that no
    tremble of at most ``eps`` per cell can make pass ``check_rungs`` at
    threshold ``eps``.

    A profile is flagged where an active cell with a defined effect plays
    against a strict best reply by more than ``cs.tie_tol``, roundoff slack
    and the ``_pure_scores`` margin: every such tremble leaves that cell's effect
    defined and its score on the same side of the tie band, and for
    eps < 1/2 the trembled cell still plays its action with probability
    1 - m > eps.
    """
    scores, margin, defined = _pure_scores(cs, cols, eps)
    margin += cs.tie_tol + _SCORE_ROUNDOFF
    n = cols.shape[1] // 2
    # the score of the action played over the other: a misfit is far below 0
    played = (cols[:, n:] - cols[:, :n]).reshape(2, -1, 1, n)  # 2 sigma - 1
    scores = scores.reshape(played.shape[:2] + (2, n)) * played
    scores[:, :, 1] *= -1.0  # a complement plays the other action
    misfit = (scores < -margin[:, None]) & (defined & cs.active[..., None])[:, :, None]
    return misfit.any(axis=(0, 1))
