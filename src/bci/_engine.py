"""Vectorized verification core.

Everything expensive in the package funnels through here: perceived-effect
computation, best-reply tests, tremble ladders, best-response dynamics, and
pure-profile enumeration.  Batches of profiles (dynamics starts, enumeration
chunks, ladder rungs) ride one set of matrix products, and all of them decide
best replies with one column-native rule, ``column_replies``.

Index conventions
-----------------
Covariate cells are raveled C-order over ``x_cards``; each type's condition
and data cells are raveled C-order over that type's covariates in covariate
order.  The *stacked* cell axis concatenates every type's condition cells in
type order (``CompiledScenario.offsets`` marks the blocks), and the stacked
data axis does the same for data cells.  ``type_major`` orders the flattened
(taste, stacked cell) axis by (type, taste, cell), the order in which
enumeration assigns pure actions, random starts are drawn and witnesses are
reported.

A profile is a stacked (2, S) array between engine calls.  A batch is the
kernel's C-ordered column block (see ``column_pair``), (2S, n), column j
profile j's (taste, cell) strategy: the dynamics loop, enumeration, the
trembles and the rung checks hold it.  ``flatten_profile`` and
``unflatten_profile`` are the one boundary to per-type arrays, which remain
only in ``StrategyProfile`` and ``causal.DeltaTable``.

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
``missing`` matrix counts each condition cell's seen data cells, against
``need``.  Best replies and enumeration's misfit filter both read this
kernel.

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
A tremble schedule is its ``(2, n_types)`` table of flip exponents: rows
are tastes, columns types, and NaN leaves a slice exact.  ``schedule_table``
is the one check of a caller's table (``None``: all NaN, no trembles).
Tables reach ``apply_compiled_trembles`` as they are; it repeats them onto
the stacked rows as columns and leaves a NaN cell exact.  Stacked tables
tremble one batch under several schedules at once, as enumeration's screen
does.

Batches and results
-------------------
A batch lives only as long as the engine call or the caller's loop step
that made it.  ``unflatten_profile`` cuts per-type blocks out of one stacked
profile and ``StrategyProfile`` copies them, so a returned profile owns its
arrays and never keeps its batch alive.  Trembled rungs form one block,
(2S, R n), column r n + j rung r of profile j, whose C-ordered
``column_replies`` results the rung checks read as they come.
Enumeration first pins each cell ``forced_codes`` gives, whose reply taste
decides under every profile, and enumerates the free cells only.  Its
first pass hands ``pure_misfits`` column blocks of consecutive pure
profiles; it flags those that provably fail the floor rung, off the
kernel's scores less a tremble margin, and the exact screen and
certification see only the rest.  ``equilibrium._CHUNK_BYTES`` bounds the
kernel's moments array, ``(2D, 2n)``, so that every chunk reuses the same
cache-sized buffers; the exact screen, which sees few profiles, checks
three schedules per profile, ``(2D, 6n)``.
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


@dataclass(eq=False)
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
    need: np.ndarray  # (S, 1) missing's column sums, -1 where unreachable
    x_cells: np.ndarray  # (n_types, nx) per type: covariate cell -> stacked condition cell
    # the two settings, each read once on first use: a call that never
    # decides a best reply or walks the ladder never reads a bad one
    tie_tol = cached_property(lambda self: tie_tolerance())
    rungs = cached_property(lambda self: ladder_rungs())

    @cached_property
    def total(self) -> np.ndarray:
        """(2, n_types) active mass of each type's taste slice."""
        return np.stack([w.sum(axis=-1) for w in split_cells(self, self.tcm)], axis=-1)


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
    reachable = tcm.sum(axis=0) > 0
    missing = (adjust > 0).astype(np.float64)
    # stable sort of the taste-major flat axis by type: (type, taste, cell)
    type_of_cell = np.repeat(np.arange(scenario.n_types), np.diff(offsets))
    beta, c = scenario.beta, scenario.c
    return CompiledScenario(
        scenario=scenario,
        c_cards=tuple(all_c_cards),
        score_base=np.array([beta - c, beta + c]),
        effect_weight=1.0 - beta,
        offsets=tuple(offsets),
        reachable=reachable,
        tcm=tcm,
        active=tcm > 0,
        type_major=np.argsort(np.tile(type_of_cell, 2), kind="stable"),
        mass_map=mass_map.transpose(1, 2, 0, 3).reshape(2 * n_s, 2 * n_d),
        adjust=adjust,
        missing=missing,
        need=np.where(reachable, missing.sum(axis=0), -1.0)[:, None],
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
    """The profile of a stacked (2, S) row or (2S,) column; its sigmas are copies."""
    blocks = split_cells(cs, stacked.reshape(2, -1))
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


def schedule_table(cs: CompiledScenario, schedule) -> np.ndarray:
    """A caller's tremble schedule, checked: a read-only float64 copy of its
    (2, n_types) exponent table, all NaN for ``None``.  Another shape, a
    non-numeric entry, or an exponent neither positive nor NaN raises
    ``ModelError``."""
    shape = (2, cs.scenario.n_types)
    table = np.full(shape, np.nan) if schedule is None else np.array(schedule)
    if table.shape != shape or table.dtype.kind not in "iuf":
        raise ModelError(
            f"a tremble schedule is a {shape} table of numbers, got {table.shape} {table.dtype}"
        )
    table = table.astype(np.float64, copy=False)  # np.array has already copied
    if not np.all((table > 0) | np.isnan(table)):
        raise ModelError("tremble exponent must be positive or NaN")
    table.setflags(write=False)
    return table


def taste_weighted_schedule(cs: CompiledScenario, sigma: np.ndarray) -> np.ndarray:
    """Flip trembles that fade faster where the slice already matches taste.

    Slices whose majority action over active cells equals the taste get
    exponent 2 (second-order noise); others get exponent 1.  This mirrors the
    natural construction for taste-driven corner profiles, where the
    taste-matching side must tremble an order slower to keep the perceived
    effect alive.  Returns the (2, n_types, n) tables of columns (2S, n).
    """
    # per-block slice sums along a contiguous cell axis, as for ``cs.total``:
    # sums down the column block or a segmented reduction (np.add.reduceat)
    # would round differently and move majorities that sit exactly at one half
    played = np.multiply(sigma.T.reshape((-1,) + cs.tcm.shape), cs.tcm, order="C")
    mass = np.stack([p.sum(axis=-1) for p in split_cells(cs, played)], axis=-1)
    total = cs.total
    share = np.divide(mass, total, out=np.full(mass.shape, 0.5), where=total > 0)
    majority = share >= 0.5  # (n, 2, n_types) per-slice majority action
    return np.where(majority == (np.arange(2)[:, None] == 1), 2.0, 1.0).transpose(1, 2, 0)


def apply_compiled_trembles(
    cs: CompiledScenario, sigma: np.ndarray, table: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Trembled copies of profiles held as columns, (2S, n), at noise levels
    ``eps``, scalar or (R,): (2S, R n), column r n + j rung r of profile j.

    ``table`` holds the (taste, type) flip exponents (NaN: exact), one
    (2, n_types) table shared by the batch or (2, n_types, n), one per
    profile; each stacked cell trembles by its own slice's exponent.
    """
    exponents = np.repeat(table, np.diff(cs.offsets), axis=1).reshape(2 * cs.offsets[-1], -1)
    eps = np.asarray(eps, dtype=np.float64).reshape(-1, 1)
    m = np.minimum(eps ** exponents[:, None], 1.0)  # (2S, R, n)
    # not m's own NaN: 1 ** NaN is 1
    np.copyto(m, 0.0, where=np.isnan(exponents[:, None]))
    sigma = sigma[:, None]
    return ((1.0 - m) * sigma + m * np.where(sigma >= 0.5, 0.0, 1.0)).reshape(len(sigma), -1)


def flip_floor(sigma: np.ndarray) -> np.ndarray:
    """The ``column_pair`` of sigma with ``BR_FLOOR`` of the opposite pure action mixed in."""
    return column_pair(sigma * (1.0 - BR_FLOOR) + np.where(sigma < 0.5, BR_FLOOR, 0.0))


# -- perceived effects and best replies ------------------------------------


def _beliefs(cs: CompiledScenario, cols: np.ndarray):
    """The belief kernel, on a batch of stacked profiles held as columns.

    ``cols`` is ``[1 - sigma | sigma]``, (2S, 2n), column j of sigma profile
    j's (taste, cell) strategy.  Returns (mass, belief, defined): the
    data-cell masses p(a, x_D), shaped (D, 2n); the do-beliefs
    b(y=1 | x_C, do(a)) and their definedness, shaped (S, 2n).  Columns run
    over every profile under a=0, then under a=1.  A belief is defined where
    its condition cell is reachable and every data cell it averages over
    with positive weight has seen that action (``CompiledScenario.need``);
    belief is meaningless where it is not defined.
    """
    n_d = cs.adjust.shape[0]
    moments = cs.mass_map.T @ cols  # (2D, 2n)
    mass, ymass = moments[:n_d], moments[n_d:]
    seen = mass > 0
    cond = np.divide(ymass, mass, out=np.zeros(mass.shape), where=seen)
    return mass, cs.adjust.T @ cond, cs.missing.T @ seen.astype(np.float64) == cs.need


def column_pair(sigma: np.ndarray) -> np.ndarray:
    """The kernel's C-ordered column pair ``[1 - sigma | sigma]`` of ``sigma``, (2S, n)."""
    sigma = np.ascontiguousarray(sigma)
    return np.concatenate([1.0 - sigma, sigma], axis=1)


def column_effects(cs: CompiledScenario, cols: np.ndarray):
    """(delta, defined) of a batch as the kernel's column pair (2S, 2n), both
    (S, n): delta = b(do(1)) - b(do(0)) from ``_beliefs``, defined where
    both beliefs are, and 0 where undefined."""
    n = cols.shape[1] // 2
    _, belief, defined = _beliefs(cs, cols)
    defined = defined[:, :n] & defined[:, n:]
    return np.where(defined, belief[:, n:] - belief[:, :n], 0.0), defined


def column_replies(cs: CompiledScenario, cols: np.ndarray):
    """The best-reply rule, on a batch as the kernel's column pair (2S, 2n).

    Returns (delta, defined, scores, code): the ``column_effects``, (S, n);
    the score of a=1 over a=0, ``score_base + effect_weight * delta``, and
    the strict best-reply code, both (2 tastes, S, n).  The code is 1 or 0
    where that action is the strict best reply, and -1 at a tie within
    ``cs.tie_tol``, on an inactive cell, or where the effect is undefined.
    """
    delta, defined = column_effects(cs, cols)
    scores = cs.score_base[:, None, None] + cs.effect_weight * delta
    code = np.empty(scores.shape, dtype=np.int8)
    code.fill(-1)
    strict = (np.abs(scores) > cs.tie_tol) & cs.active[..., None] & defined
    np.copyto(code, scores > cs.tie_tol, where=strict)
    return delta, defined, scores, code


def profile_effects(cs: CompiledScenario, stacked: np.ndarray):
    """(delta, defined) of one stacked (2, S) profile, both (S,): the
    ``column_effects`` of its column pair."""
    delta, defined = column_effects(cs, column_pair(stacked.reshape(-1, 1)))
    return delta[:, 0], defined[:, 0]


def check_rungs(cs: CompiledScenario, trembled: np.ndarray, eps: np.ndarray):
    """Definition test for trembled profiles at matching noise thresholds.

    ``trembled`` is the ``apply_compiled_trembles`` block (2S, R n), column
    r n + j at threshold ``eps[r]``; ``eps`` is (R,).  Returns (ok, undef,
    bad, replies): ok and undef shaped (R n,), bad (2, S, R n), and replies
    the ``column_replies`` arrays (delta, defined, scores, code) the test
    decided from.  bad marks an action played above the threshold against a
    strict best reply; undef, a reachable cell whose effect is undefined;
    ok, neither anywhere in the profile.
    """
    _, defined, _, code = replies = column_replies(cs, column_pair(trembled))
    played = trembled.reshape(code.shape)
    above = np.repeat(eps + PLAY_SLACK, played.shape[-1] // len(eps))
    bad = ((played > above) & (code == 0)) | ((1.0 - played > above) & (code == 1))
    undef = (~defined & cs.reachable[:, None]).any(axis=0)
    ok = ~bad.any(axis=(0, 1)) & ~undef
    return ok, undef, bad, replies


# -- pure-profile filter ----------------------------------------------------

# T / M_a where action a leaves data cell d unseen: finite, so that a zero
# ``adjust`` weight times it stays 0 (such a cell's effect is undefined, and
# its margin is never read)
_UNSEEN_RATIO = 1e300
# slack for the roundoff of computing a score, on top of the tie band
_SCORE_ROUNDOFF = 1e-12


def _pure_scores(cs: CompiledScenario, cols: np.ndarray, eps: float):
    """Scores of pure profiles, as ``_beliefs`` columns (2S, 2n), with the
    bound on how far trembles of at most ``eps`` per cell can move them.

    Returns (scores, margin, defined): scores shaped (2 tastes, S, n), margin
    and defined (S, n); scores and defined are those ``column_replies`` reads
    off ``_beliefs``.  A tremble m <= eps moves action a's outcome rate at
    data cell d by at most eps / (1 - eps) * T(d) / M_a(d), where M_a(d) is
    the pure profile's mass of a at d and T(d) = M_0(d) + M_1(d); margin is
    that bound carried through ``adjust`` and ``effect_weight``, on cells
    whose effect is defined.
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
    scores = cs.score_base[:, None, None] + cs.effect_weight * (belief[:, n:] - belief[:, :n])
    return scores, margin, defined[:, :n] & defined[:, n:]


def pure_misfits(cs: CompiledScenario, sigma: np.ndarray, eps: float) -> np.ndarray:
    """(n,) bool: the pure profiles held as columns (2S, n) that no tremble
    of at most ``eps`` per cell can make pass ``check_rungs`` at threshold
    ``eps``.

    A profile is flagged where an active cell with a defined effect plays
    against a strict best reply by more than ``cs.tie_tol``, roundoff slack
    and the ``_pure_scores`` margin: every such tremble leaves that cell's effect
    defined and its score on the same side of the tie band, and for
    eps < 1/2 the trembled cell still plays its action with probability
    1 - m > eps.
    """
    scores, margin, defined = _pure_scores(cs, column_pair(sigma), eps)
    margin += cs.tie_tol + _SCORE_ROUNDOFF
    # the score of the action played over the other: a misfit is far below 0
    scores *= (2.0 * sigma - 1.0).reshape(scores.shape)
    misfit = (scores < -margin) & defined & cs.active[..., None]
    return misfit.any(axis=(0, 1))


def forced_codes(cs: CompiledScenario) -> np.ndarray:
    """(2, S) int8: each active cell's strict best reply under every profile,
    pure, mixed or trembled, where its effect is defined; -1 on a free or
    inactive cell.

    Under any profile, action a's outcome rate at data cell d averages the
    ratios ``p(y=1 | row)`` of the ``mass_map`` rows with positive mass at
    d, so the two rates differ by at most their spread, and |delta| by at
    most ``adjust.T @ spread``.  Where the taste term clears that bound by
    ``cs.tie_tol`` and roundoff slack, taste alone decides the reply.
    """
    n_d = cs.adjust.shape[0]
    mass, ymass = cs.mass_map[:, :n_d], cs.mass_map[:, n_d:]
    seen = mass > 0
    ratio = np.divide(ymass, mass, out=np.zeros(mass.shape), where=seen)
    # a data cell no row feeds is never seen, and an effect weighing it is undefined
    hi = ratio.max(axis=0, where=seen, initial=-np.inf)
    spread = np.where(seen.any(axis=0), hi - ratio.min(axis=0, where=seen, initial=np.inf), 0.0)
    bound = cs.effect_weight * (cs.adjust.T @ spread)
    slack = cs.tie_tol + _SCORE_ROUNDOFF
    code = np.full(cs.active.shape, -1, dtype=np.int8)
    code[(cs.score_base[:, None] - bound > slack) & cs.active] = 1
    code[(cs.score_base[:, None] + bound < -slack) & cs.active] = 0
    return code
