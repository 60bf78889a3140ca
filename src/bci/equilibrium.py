"""Equilibrium verification and search.

A profile is an eps-equilibrium when every action played with probability
above eps is subjectively optimal for the type playing it, on every taste
cell that actually occurs.  An equilibrium proper is a limit of
eps-equilibria; the verifier witnesses that definition along a geometric
noise ladder: the profile, perturbed by a tremble schedule at each rung,
must pass the rung's own threshold on a suffix of rungs reaching the floor.
A verified limit therefore means "witnessed by this schedule" — the
quantifier over all conceivable sequences is out of computational reach.

Cells are exempt from the optimality requirement in exactly two cases:
the taste cell (t, x_C) has zero probability (nothing to optimize over), or
the perceived effect there is undefined and the cell is unreachable.  A
reachable cell with an undefined effect blocks verification and is reported
as such, never silently passed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _engine as eng
from .causal import DeltaTable, delta_table
from .model import Scenario, StrategyProfile, error_probability, is_integer, welfare_loss

__all__ = [
    "EquilibriumError",
    "ViolationWitness",
    "UndefinedCell",
    "LadderRung",
    "EquilibriumReport",
    "DynamicsResult",
    "verify_eps_equilibrium",
    "verify_limit",
    "certify_equilibrium",
    "dynamics_starts",
    "solve",
    "best_response_dynamics",
    "enumerate_pure_equilibria",
]

VERDICT_EPS = "epsilon_equilibrium"
VERDICT_LIMIT = "equilibrium_limit"
VERDICT_NOT = "not_equilibrium"
VERDICT_UNDEFINED = "undefined_cells"


class EquilibriumError(ValueError):
    """Raised for bad verification inputs or oversized enumeration."""


@dataclass(frozen=True)
class ViolationWitness:
    """One concrete optimality failure: who, where, and by how much."""

    type_index: int
    taste: int
    cell: tuple[int, ...]
    action: int
    played: float
    delta: float
    score: float
    eps: float


@dataclass(frozen=True)
class UndefinedCell:
    """A reachable taste cell whose perceived effect is not identified."""

    type_index: int
    taste: int
    cell: tuple[int, ...]


@dataclass(frozen=True)
class LadderRung:
    eps: float
    passed: bool
    max_violation: float
    undefined: bool


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    verdict: str
    eps: float | None
    witness: ViolationWitness | None
    undefined_cells: tuple[UndefinedCell, ...]
    ladder_trace: tuple[LadderRung, ...]
    welfare_loss: float
    error_probability: float
    delta_tables: tuple[DeltaTable, ...]
    schedule: np.ndarray | None  # the checked (2, n_types) exponent table
    sup_gap: float

    @property
    def passed(self) -> bool:
        return self.verdict in (VERDICT_EPS, VERDICT_LIMIT)


@dataclass(frozen=True)
class DynamicsResult:
    status: str  # "converged" | "max_iters"
    profile: StrategyProfile
    report: EquilibriumReport | None
    iterations: int


def _slot(cs: eng.CompiledScenario, flat: int) -> tuple[int, int, tuple[int, ...]]:
    """(type, taste, cell) of an index into a flattened (2, S) stacked array."""
    taste, stacked_cell = divmod(int(flat), cs.offsets[-1])
    i = bisect_right(cs.offsets, stacked_cell) - 1
    cell = np.unravel_index(stacked_cell - cs.offsets[i], cs.c_cards[i]) if cs.c_cards[i] else ()
    return i, taste, tuple(int(v) for v in cell)


def _diagnose(cs, played, bad, replies, eps):
    """Worst violation and undefined-cell list for one trembled column (2S,),
    read off its rung check: ``bad`` and the ``column_replies`` arrays there.

    Both are read in (type, taste, cell) order; the witness is the first
    maximum of |score| over bad cells.  A bad cell plays against its strict
    best reply, so its action is 1 exactly where its score is below 0.
    """
    delta, defined, scores, _ = replies
    order = cs.type_major
    undef = (cs.active & ~defined).reshape(-1)[order]
    undefined = tuple(UndefinedCell(*_slot(cs, k)) for k in order[undef])
    if not bad.any():
        return None, undefined
    k = int(order[np.argmax(np.where(bad, np.abs(scores), -np.inf).reshape(-1)[order])])
    at = divmod(k, cs.offsets[-1])  # (taste, stacked cell)
    action = int(scores[at] < 0)
    freq = float(played[k]) if action == 1 else float(1.0 - played[k])
    return ViolationWitness(
        *_slot(cs, k), action, freq, float(delta[at[1]]), float(scores[at]), eps
    ), undefined


def _profile_stats(cs: eng.CompiledScenario, profile: StrategyProfile):
    return (
        float(welfare_loss(cs, profile)),
        float(error_probability(cs, profile)),
        delta_table(cs, profile),
    )


def _reaches_floor(ok: np.ndarray) -> np.ndarray:
    """The ladder rule on per-rung passes (R, batch...): a passing suffix of
    ``DEFAULT_TAIL_MIN`` rungs, or of every rung on a shorter ladder."""
    suffix = np.cumprod(ok[::-1], axis=0).sum(axis=0)  # passing rungs up to the floor
    return suffix >= min(eng.DEFAULT_TAIL_MIN, len(ok))


def _ladder(cs, profile, table, rungs):
    """The ladder core of both verifiers: the profile, as one column, trembled
    by the exponent table at each rung (one column each), each checked at its own
    noise level, and the deepest failing rung diagnosed.

    Returns (trace, sup_gap, failed_at, witness, undefined); ``failed_at`` is
    the deepest failing rung's noise level, or None (and no diagnosis) when
    the ladder passes ``_reaches_floor``.
    """
    sigma = eng.flatten_profile(cs, profile).reshape(-1, 1)
    trembled = eng.apply_compiled_trembles(cs, sigma, table, rungs)  # column r: rung r
    ok, undef, bad, replies = eng.check_rungs(cs, trembled, rungs)
    viol = np.where(bad, np.abs(replies[2]), 0.0).max(axis=(0, 1))
    trace = tuple(
        LadderRung(float(e), bool(o), float(v), bool(u))
        for e, o, v, u in zip(rungs, ok, viol, undef)
    )
    sup_gap = float(np.max(np.abs(trembled[:, -1] - sigma[:, 0])))
    if _reaches_floor(ok):
        return trace, sup_gap, None, None, ()
    r = int(np.nonzero(~ok)[0][-1])  # the deepest failing rung
    failed_at = float(rungs[r])
    diagnosis = _diagnose(cs, trembled[:, r], bad[..., r], [a[..., r] for a in replies], failed_at)
    return (trace, sup_gap, failed_at) + diagnosis


def verify_eps_equilibrium(
    scenario: Scenario | eng.CompiledScenario,
    profile: StrategyProfile,
    eps: float,
) -> EquilibriumReport:
    """Check the profile, as given, against the eps threshold.

    Any undefined active cell makes the verdict ``undefined_cells``, even
    where some played action also violates the threshold.  ``scenario`` may
    also be its ``CompiledScenario``, which is then not compiled again.
    """
    if not 0 < eps < 1:
        raise EquilibriumError("eps must lie in (0, 1)")
    cs = eng.compiled(scenario)
    none = eng.schedule_table(cs, None)
    trace, _, failed_at, witness, undefined = _ladder(cs, profile, none, np.array([eps]))
    loss, errp, tables = _profile_stats(cs, profile)
    if undefined:
        verdict, witness = VERDICT_UNDEFINED, None
    else:
        verdict = VERDICT_EPS if failed_at is None else VERDICT_NOT
    return EquilibriumReport(verdict, eps, witness, undefined, trace, loss, errp, tables, None, 0.0)


def verify_limit(
    scenario: Scenario | eng.CompiledScenario,
    profile: StrategyProfile,
    schedule: np.ndarray | None = None,
) -> EquilibriumReport:
    """Witness the profile as a limit of eps-equilibria along the ladder.

    ``schedule`` is a (2, n_types) exponent table (rows tastes, NaN: exact;
    ``None``: no trembles), and the report keeps its checked copy.
    Each rung perturbs the profile with the schedule at that rung's noise
    level and demands an eps-equilibrium at the same level.  The verdict is
    a limit equilibrium when a passing suffix of at least
    ``DEFAULT_TAIL_MIN`` rungs reaches the floor: rungs coarser than a
    schedule's turn-on scale may legitimately fail without saying anything
    about the limit.  At the deepest failing rung, undefined cells give
    ``undefined_cells`` only when no played action violates the threshold
    there.  ``scenario`` may also be its ``CompiledScenario``, which is then
    not compiled again.
    """
    cs = eng.compiled(scenario)
    schedule = eng.schedule_table(cs, schedule)
    trace, sup_gap, failed_at, witness, undefined = _ladder(cs, profile, schedule, cs.rungs)
    loss, errp, tables = _profile_stats(cs, profile)
    if failed_at is None:
        verdict = VERDICT_LIMIT
    else:
        verdict = VERDICT_UNDEFINED if undefined and witness is None else VERDICT_NOT
    return EquilibriumReport(
        verdict, failed_at, witness, undefined, trace, loss, errp, tables, schedule, sup_gap
    )


def _try_list(cs: eng.CompiledScenario, sigma: np.ndarray) -> np.ndarray:
    """The try-list of ``certify_equilibrium`` and ``enumerate_pure_equilibria``
    for profiles held as columns (2S, n): the exponent tables, shaped
    (2, n_types, 3, n), of no trembles, uniform flip and taste-weighted flip,
    in the order tried.

    At the floor rung eps, every schedule trembles each cell by at most eps:
    none by 0, uniform flip by eps, taste-weighted flip by eps or eps**2.
    ``enumerate_pure_equilibria`` rests its misfit filter on this."""
    weighted = eng.taste_weighted_schedule(cs, sigma)
    return np.stack([np.full_like(weighted, np.nan), np.ones_like(weighted), weighted], axis=2)


def _floor_screen(cs: eng.CompiledScenario, sigma: np.ndarray) -> np.ndarray:
    """(n,) bool: profiles held as columns (2S, n) that pass the floor rung
    under some schedule of the try-list, all three in one rung check."""
    floor = cs.rungs[-1:]
    trembled = eng.apply_compiled_trembles(cs, np.tile(sigma, 3), _try_list(cs, sigma), floor)
    return eng.check_rungs(cs, trembled, floor)[0].reshape(3, -1).any(axis=0)


def certify_equilibrium(
    scenario: Scenario | eng.CompiledScenario, profile: StrategyProfile
) -> EquilibriumReport:
    """Try to witness a limit equilibrium with a small set of schedules.

    The try-list is: no trembles at all (exact equilibria), uniform flip
    trembles (fills in undefined effects without biasing them), then
    taste-weighted flip trembles (keeps taste-driven corner profiles alive),
    each recorded as its exponent table.  Each schedule in turn is
    verified by ``verify_limit``, one ladder each, and the report returned
    is the first that passes or, if none passes, the one with the most
    passing rungs anywhere on the ladder (the earliest on ties).
    ``scenario`` may also be its ``CompiledScenario``, which is then not
    compiled again.
    """
    cs = eng.compiled(scenario)
    best, most = None, -1
    tried = _try_list(cs, eng.flatten_profile(cs, profile).reshape(-1, 1))[..., 0]
    for table in np.moveaxis(tried, -1, 0):
        report = verify_limit(cs, profile, table)
        if report.passed:
            return report
        passes = sum(rung.passed for rung in report.ladder_trace)
        if passes > most:
            best, most = report, passes
    return best


# -- best-response dynamics --------------------------------------------------

# Every cell's first step toward its best reply; later steps only halve.
DAMPING = 0.5


def _dynamics_batch(cs: eng.CompiledScenario, stacked: np.ndarray, max_iters: int):
    """Damped best-reply iteration on a batch of stacked profiles (batch, 2, S).

    Per-cell steps start at ``DAMPING`` and halve whenever that cell's strict
    best reply flips, which settles oscillations onto interior mixing points;
    cells at (or within tolerance of) indifference hold their current value.
    Steps never grow and every reversal halves one, so no state repeats while
    anything moves: there are no cycles to detect.

    A start stops, as converged, in one of two ways.  Its sup-norm change
    falls below ``CONVERGENCE_TOL``; or the profile its previous iteration
    snapped to (strict cells at their best reply, every other cell held)
    reproduces the best-reply codes it was built from.  Such a snapped
    profile is a rest point of the damped update, and the start ends there.
    The rest-point test rides the iteration's own ``column_replies`` call,
    for every start still running, at iterations 1, 3, 7, 15, ... (each wait
    twice the last), so a start that runs to ``max_iters`` adds a few
    columns to the calls, not one per iteration.  The loop holds the batch
    as C-ordered kernel columns, (2S, batch), and returns (state, converged,
    cycled, iters) batch-first; ``cycled`` is all False and stays only
    because ``perfbench/tracing.py`` unpacks four values.
    """
    n_init = stacked.shape[0]
    state = np.ascontiguousarray(stacked.reshape(n_init, -1).T, dtype=np.float64)
    steps = np.full(state.shape, DAMPING)
    prev = np.full(state.shape, -1, dtype=np.int8)
    done = np.zeros(n_init, dtype=bool)
    iters = np.zeros(n_init, dtype=int)
    # rest-point test: each start's last snapped profile and the codes it
    # was built from; every start is tested at iteration 1 and fails each
    # test until it stops, so running starts share one due iteration and wait
    snapped = built = None
    due, wait = 1, 2

    for it in range(max_iters):
        test = np.flatnonzero(~done) if it == due else None
        rows = state if test is None else np.concatenate([state, snapped[:, test]], axis=1)
        code = eng.column_replies(cs, eng.flip_floor(rows))[3].reshape(rows.shape)
        code, test_code = code[:, :n_init], code[:, n_init:]
        strict = code >= 0
        target = np.where(strict, code, state)
        # codes are -1, 0 or 1: only two strict and different codes xor to 1
        np.multiply(steps, 0.5, out=steps, where=(prev ^ code) == 1)
        np.copyto(prev, code, where=strict)
        upd = state + steps * (target - state)
        np.copyto(upd, state, where=done)
        max_change = np.abs(upd - state).max(axis=0)
        if test is not None:
            at_rest = test[(test_code == built[:, test]).all(axis=0)]
            upd[:, at_rest] = snapped[:, at_rest]
            max_change[at_rest] = 0.0
            due, wait = it + wait, 2 * wait
        state, snapped, built = upd, target, code
        iters[~done] = it + 1
        done |= max_change < eng.CONVERGENCE_TOL
        if done.all():
            break

    # Snap strictly-best-reply cells of converged runs to the pure action;
    # a rest point snaps to itself.
    code = eng.column_replies(cs, eng.flip_floor(state))[3].reshape(state.shape)
    state = np.where((code >= 0) & done, code, state)
    return state.T.reshape(stacked.shape).copy(), done, np.zeros(n_init, dtype=bool), iters


# Deterministic dynamics starts by name: the action each taste plays everywhere.
_FIXED_STARTS = {"taste": (0.0, 1.0), "zero": (0.0, 0.0), "one": (1.0, 1.0)}


def dynamics_starts(
    cs: eng.CompiledScenario, rng: np.random.Generator, n_random: int
) -> tuple[list[str], np.ndarray]:
    """Labels and the stacked start batch (batch, 2, S) for ``solve``.

    The fixed starts come first, then ``n_random`` uniform draws from
    ``rng``, drawn in (start, type, taste, cell) order.
    """
    if not is_integer(n_random) or n_random < 0:
        raise EquilibriumError("the number of random starts must be a nonnegative integer")
    n_flat = cs.active.size
    fixed = np.repeat(np.array(list(_FIXED_STARTS.values()))[:, :, None], n_flat // 2, axis=2)
    drawn = np.empty((n_random, n_flat))
    drawn[:, cs.type_major] = rng.random((n_random, n_flat))
    labels = [*_FIXED_STARTS, *(f"random{k}" for k in range(n_random))]
    return labels, np.concatenate([fixed, drawn.reshape((n_random,) + cs.active.shape)])


def solve(
    cs: eng.CompiledScenario,
    starts: np.ndarray,
    max_iters: int,
    known: Sequence[tuple[StrategyProfile, EquilibriumReport]] = (),
) -> tuple[list[DynamicsResult], list[tuple[StrategyProfile, EquilibriumReport]]]:
    """Damped best-reply dynamics from stacked starts (batch, 2, S), with
    each distinct rest point (by ``_engine.profile_key``) certified once.

    Returns one ``DynamicsResult`` per start, in start order, where starts
    that reach one rest point share its profile and report; and the limit
    equilibria: the (profile, report) pairs of ``known`` first, whose rest
    points are not certified again, then each new one in the order its first
    start reached it.  Bad starts or a bad ``max_iters`` raise ``EquilibriumError``.
    """
    starts = np.asarray(starts, dtype=np.float64)
    if starts.ndim != 3 or starts.shape[1:] != cs.active.shape:
        raise EquilibriumError(f"starts are shaped (batch, 2, {cs.offsets[-1]}), not {starts.shape}")
    if not np.all((starts >= 0) & (starts <= 1)):
        raise EquilibriumError("every start entry must lie in [0, 1]")
    if not is_integer(max_iters) or max_iters < 1:
        raise EquilibriumError("max_iters must be an integer of at least 1")
    out, converged, _, iters = _dynamics_batch(cs, starts, max_iters)
    rests = {eng.profile_key(eng.flatten_profile(cs, p)): (p, r) for p, r in known}
    results = []
    for b, done in enumerate(converged):
        if not done:
            profile = eng.unflatten_profile(cs, out[b])
            results.append(DynamicsResult("max_iters", profile, None, int(iters[b])))
            continue
        key = eng.profile_key(out[b])
        if key not in rests:
            profile = eng.unflatten_profile(cs, out[b])
            rests[key] = (profile, certify_equilibrium(cs, profile))
        results.append(DynamicsResult("converged", *rests[key], int(iters[b])))
    return results, [pair for pair in rests.values() if pair[1].verdict == VERDICT_LIMIT]


def best_response_dynamics(
    scenario: Scenario | eng.CompiledScenario,
    init: StrategyProfile,
    max_iters: int = 1000,
) -> DynamicsResult:
    """Iterate damped best replies from ``init`` and certify the rest point:
    ``solve`` on one start.  Dynamics converge at a rest point or on a
    sup-norm change below 1e-10, and otherwise stop at the iteration cap,
    reported as ``max_iters``.  ``scenario`` may also be its
    ``CompiledScenario``, which is then not compiled again.
    """
    cs = eng.compiled(scenario)
    return solve(cs, eng.flatten_profile(cs, init)[None], max_iters)[0][0]


# -- exhaustive pure-profile enumeration -------------------------------------

ENUMERATION_CAP = 1 << 20
# Bound on the largest per-chunk temporary of both passes, the moments array:
# two actions' data moments per profile, (2D, 2n) in ``_engine._beliefs``.
# Each pass takes as many profiles per chunk as fit; the exact screen checks
# three schedules per profile, (2D, 6n).  Chunks this small reuse the same
# few cache-sized buffers chunk after chunk; larger ones fault each chunk's
# temporaries in anew, and smaller ones pay numpy's per-call cost more often.
# On a 2-core x86 VM, a first pass that scored all 4096 pure profiles of a
# 12-cell, 6-data-cell scenario in 8 chunks of 512 took under 200 page
# faults with this bound; 1024-profile chunks (115k faults) ran 10-20 %
# slower, 256-profile ones 20-35 %, and 48, 192 and 384 KiB slower.
_CHUNK_BYTES = 96 << 10


def enumerate_pure_equilibria(scenario: Scenario) -> list[tuple[StrategyProfile, EquilibriumReport]]:
    """All pure profiles verifiable as limit equilibria, in index order.

    Pure assignments range over taste cells that occur with positive
    probability, bit by bit in (type, taste, cell) order; unreachable cells
    are pinned to a = t.  ``_engine.forced_codes`` pins each of those cells
    whose reply taste decides under every profile, and only the free ones
    are enumerated, in the same order.  Two passes run over chunks of as
    many profiles as ``_CHUNK_BYTES`` fits.  The first scores every free
    profile, consecutive indices per chunk, and drops those
    ``_engine.pure_misfits`` flags at the floor rung.  The second runs over
    the indices the first kept: an exact screen keeps the profiles that pass
    the floor rung under some schedule of the try-list, and
    ``certify_equilibrium`` decides each of them.

    No step drops a profile that certification would pass.  A passing
    ladder suffix always contains the floor rung.  At that rung every
    schedule of the try-list trembles each cell by at most the floor.  A
    profile that plays against a forced code there plays that action with
    probability above the floor against a strict best reply, or leaves a
    reachable effect undefined; a flagged profile has a cell whose score no
    such tremble can move into or across the tie band.  Either fails the
    floor rung under all schedules.  The ``ENUMERATION_CAP`` counts every
    enumerable cell, pinned or free.  Every returned profile re-passes
    ``verify_limit`` independently, and owns its arrays (``StrategyProfile``
    copies them), so results do not pin chunks.
    """
    cs = eng.compile_scenario(scenario)
    order = cs.type_major
    slots = order[cs.active.reshape(-1)[order]]
    n_slots = len(slots)
    if 2**n_slots > ENUMERATION_CAP:
        raise EquilibriumError(f"instance-too-large: 2^{n_slots} pure profiles exceed the cap")
    forced = eng.forced_codes(cs).reshape(-1)
    free = slots[forced[slots] < 0]
    fit = max(1, _CHUNK_BYTES // (2 * cs.mass_map[0].nbytes))  # profiles whose moments fit

    def pure(idx: np.ndarray) -> np.ndarray:
        sigma = np.zeros((cs.active.size, len(idx)))
        sigma[cs.offsets[-1] :] = 1.0  # a = t on cells enumeration does not touch
        sigma[slots] = forced[slots, None]  # each free cell's -1 is overwritten next
        sigma[free] = (idx >> np.arange(len(free))[:, None]) & 1
        return sigma

    every = np.arange(1 << len(free))
    keep = np.concatenate([
        ~eng.pure_misfits(cs, pure(every[start : start + fit]), cs.rungs[-1])
        for start in range(0, len(every), fit)
    ])
    kept = every[keep]

    results: list[tuple[StrategyProfile, EquilibriumReport]] = []
    for start in range(0, len(kept), fit):
        batch = pure(kept[start : start + fit])
        for b in np.nonzero(_floor_screen(cs, batch))[0]:
            profile = eng.unflatten_profile(cs, batch[:, b])
            report = certify_equilibrium(cs, profile)
            if report.passed:
                results.append((profile, report))
    return results
