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

import numpy as np

from . import _engine as eng
from .causal import DeltaTable, delta_table
from .model import (
    Scenario,
    StrategyProfile,
    TrembleSchedule,
    error_probability,
    welfare_loss,
)

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


@dataclass(frozen=True)
class EquilibriumReport:
    verdict: str
    eps: float | None
    witness: ViolationWitness | None
    undefined_cells: tuple[UndefinedCell, ...]
    ladder_trace: tuple[LadderRung, ...]
    welfare_loss: float
    error_probability: float
    delta_tables: tuple[DeltaTable, ...]
    schedule: TrembleSchedule | None
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


def _diagnose(
    cs: eng.CompiledScenario, stacked: np.ndarray, eps: float
) -> tuple[ViolationWitness | None, tuple[UndefinedCell, ...]]:
    """Worst violation and undefined-cell list for one stacked (trembled) profile.

    Both are read in (type, taste, cell) order; the witness is the first
    maximum of |score| over cells where an action is played above ``eps``
    against a strict best reply.
    """
    delta, defined, scores, code = eng.best_replies(cs, stacked)
    bad1, bad0 = eng.offside(stacked, code, eps)
    bad = bad1 | bad0
    order = cs.type_major
    undefined = tuple(
        UndefinedCell(*_slot(cs, k))
        for k in order[(cs.active & ~defined).reshape(-1)[order]]
    )
    if not bad.any():
        return None, undefined
    k = int(order[np.argmax(np.where(bad, np.abs(scores), -np.inf).reshape(-1)[order])])
    at = divmod(k, cs.offsets[-1])  # (taste, stacked cell)
    action = 1 if bad1[at] else 0
    played = float(stacked[at]) if action == 1 else float(1.0 - stacked[at])
    witness = ViolationWitness(
        *_slot(cs, k), action, played, float(delta[at[1]]), float(scores[at]), float(eps)
    )
    return witness, undefined


def _profile_stats(scenario: Scenario, profile: StrategyProfile):
    return (
        float(welfare_loss(scenario, profile)),
        float(error_probability(scenario, profile)),
        delta_table(scenario, profile),
    )


def _rung_passes(cs, stacked, sched, rungs) -> np.ndarray:
    """Per-rung passes (R, batch...) of stacked profiles trembled by a compiled schedule."""
    return eng.check_rungs(cs, eng.apply_compiled_trembles(stacked, sched, rungs), rungs)[0]


def _reaches_floor(ok: np.ndarray) -> np.ndarray:
    """The ladder rule on per-rung passes (R, batch...): a passing suffix of
    ``DEFAULT_TAIL_MIN`` rungs, or of every rung on a shorter ladder."""
    return eng.tail_lengths(ok) >= min(eng.DEFAULT_TAIL_MIN, len(ok))


def _ladder(cs, stacked, sched, rungs):
    """The ladder core of both verifiers: the stacked (2, S) profile trembled
    by the compiled schedule at each rung, each rung checked at its own noise
    level, and the deepest failing rung diagnosed.

    Returns (trace, sup_gap, failed_at, witness, undefined); ``failed_at`` is
    the deepest failing rung's noise level, or None (and no diagnosis) when
    the ladder passes ``_reaches_floor``.
    """
    trembled = eng.apply_compiled_trembles(stacked, sched, rungs)
    ok, undef, bad, scores = eng.check_rungs(cs, trembled, rungs)
    viol = np.where(bad, np.abs(scores), 0.0).max(axis=(-2, -1))
    trace = tuple(
        LadderRung(float(e), bool(o), float(v), bool(u))
        for e, o, v, u in zip(rungs, ok, viol, undef)
    )
    sup_gap = float(np.max(np.abs(trembled[-1] - stacked)))
    if _reaches_floor(ok):
        return trace, sup_gap, None, None, ()
    deepest = int(np.nonzero(~ok)[0][-1])
    failed_at = float(rungs[deepest])
    return (trace, sup_gap, failed_at) + _diagnose(cs, trembled[deepest], failed_at)


def verify_eps_equilibrium(
    scenario: Scenario,
    profile: StrategyProfile,
    eps: float,
) -> EquilibriumReport:
    """Check the profile, as given, against the eps threshold.

    Any undefined active cell makes the verdict ``undefined_cells``, even
    where some played action also violates the threshold.
    """
    if not 0 < eps < 1:
        raise EquilibriumError("eps must lie in (0, 1)")
    cs = eng.compile_scenario(scenario)
    sched = eng.CompiledSchedule.from_schedule(TrembleSchedule.none(), cs.offsets)
    trace, _, failed_at, witness, undefined = _ladder(
        cs, eng.flatten_profile(cs, profile), sched, np.array([eps])
    )
    loss, errp, tables = _profile_stats(scenario, profile)
    if undefined:
        verdict, witness = VERDICT_UNDEFINED, None
    else:
        verdict = VERDICT_EPS if failed_at is None else VERDICT_NOT
    return EquilibriumReport(verdict, eps, witness, undefined, trace, loss, errp, tables, None, 0.0)


def verify_limit(
    scenario: Scenario,
    profile: StrategyProfile,
    schedule: TrembleSchedule | None = None,
) -> EquilibriumReport:
    """Witness the profile as a limit of eps-equilibria along the ladder.

    Each rung perturbs the profile with the schedule at that rung's noise
    level and demands an eps-equilibrium at the same level.  The verdict is
    a limit equilibrium when a passing suffix of at least
    ``DEFAULT_TAIL_MIN`` rungs reaches the floor: rungs coarser than a
    schedule's turn-on scale may legitimately fail without saying anything
    about the limit.  At the deepest failing rung, undefined cells give
    ``undefined_cells`` only when no played action violates the threshold
    there.
    """
    schedule = schedule if schedule is not None else TrembleSchedule.none()
    cs = eng.compile_scenario(scenario)
    sched = eng.CompiledSchedule.from_schedule(schedule, cs.offsets)
    trace, sup_gap, failed_at, witness, undefined = _ladder(
        cs, eng.flatten_profile(cs, profile), sched, cs.rungs
    )
    loss, errp, tables = _profile_stats(scenario, profile)
    if failed_at is None:
        verdict = VERDICT_LIMIT
    else:
        verdict = VERDICT_UNDEFINED if undefined and witness is None else VERDICT_NOT
    return EquilibriumReport(
        verdict, failed_at, witness, undefined, trace, loss, errp, tables, schedule, sup_gap
    )


def _try_list(cs: eng.CompiledScenario):
    """The schedule try-list of ``certify_equilibrium`` and
    ``enumerate_pure_equilibria`` in the order tried: the first schedule whose
    ladder passes wins, else the one with the most passing rungs.  Each entry
    maps a stacked profile batch to its compiled schedule.  No trembles and
    uniform flip do not depend on the batch, so they compile once, here."""
    none = eng.CompiledSchedule.from_schedule(TrembleSchedule.none(), cs.offsets)
    flip = eng.CompiledSchedule.from_schedule(TrembleSchedule.uniform_flip(1.0), cs.offsets)
    return (
        lambda batch: none,
        lambda batch: flip,
        lambda batch: eng.taste_weighted_schedule(cs, batch),
    )


def certify_equilibrium(scenario: Scenario, profile: StrategyProfile) -> EquilibriumReport:
    """Try to witness a limit equilibrium with a small set of schedules.

    The try-list is: no trembles at all (exact equilibria), uniform flip
    trembles (fills in undefined effects without biasing them), then
    taste-weighted flip trembles (keeps taste-driven corner profiles alive),
    each recorded as its per-(type, taste) rules.  Each schedule's ladder is
    screened on the compiled scenario, and only the chosen one is verified
    into a report: the first passing schedule, or, if none passes, the one
    with the most passing rungs anywhere on the ladder (the earliest on
    ties).
    """
    cs = eng.compile_scenario(scenario)
    stacked = eng.flatten_profile(cs, profile)
    best, most = None, -1
    for make in _try_list(cs):
        sched = make(stacked)
        ok = _rung_passes(cs, stacked, sched, cs.rungs)
        if _reaches_floor(ok):
            best = sched
            break
        if ok.sum() > most:
            best, most = sched, int(ok.sum())
    return verify_limit(scenario, profile, best.to_schedule(cs.offsets))


# -- best-response dynamics --------------------------------------------------

# Every cell's first step toward its best reply; later steps only halve.
DAMPING = 0.5


def _dynamics_batch(cs: eng.CompiledScenario, stacked: np.ndarray, max_iters: int):
    """Damped best-reply iteration on a batch of stacked profiles (batch, 2, S).

    Per-cell steps start at ``DAMPING`` and halve whenever that cell's strict
    best reply flips, which settles oscillations onto interior mixing points;
    cells at (or within tolerance of) indifference hold their current value.
    A start stops once its sup-norm change falls below ``CONVERGENCE_TOL``
    or at ``max_iters``.  Steps never grow and every reversal halves one, so
    no state repeats while anything moves: there are no cycles to detect.

    Returns (state, converged, cycled, iters); ``cycled`` is all False and
    stays only because ``perfbench/tracing.py`` unpacks four values.
    """
    state = stacked
    n_init = state.shape[0]
    steps = np.full(state.shape, DAMPING)
    prev = np.full(state.shape, -1, dtype=np.int8)
    done = np.zeros(n_init, dtype=bool)
    iters = np.zeros(n_init, dtype=int)

    def best_reply_targets(st):
        code = eng.best_replies(cs, eng.flip_floor(st))[3]
        return code, np.where(code < 0, st, code.astype(np.float64))

    for it in range(max_iters):
        code, target = best_reply_targets(state)
        flipped = (prev >= 0) & (code >= 0) & (prev != code)
        steps = np.where(flipped, steps * 0.5, steps)
        prev = np.where(code >= 0, code, prev)
        upd = state + steps * (target - state)
        upd = np.where(done[:, None, None], state, upd)
        max_change = np.abs(upd - state).max(axis=(1, 2))
        state = upd
        iters = np.where(~done, it + 1, iters)
        done |= max_change < eng.CONVERGENCE_TOL
        if done.all():
            break

    # Snap strictly-best-reply cells of converged runs to the pure action.
    state = np.where(done[:, None, None], best_reply_targets(state)[1], state)
    return state, done, np.zeros(n_init, dtype=bool), iters


# Deterministic dynamics starts by name: the action each taste plays everywhere.
_FIXED_STARTS = {"taste": (0.0, 1.0), "zero": (0.0, 0.0), "one": (1.0, 1.0)}


def _dynamics_starts(
    cs: eng.CompiledScenario, rng: np.random.Generator, n_random: int
) -> tuple[list[str], np.ndarray]:
    """Labels and the stacked start batch for ``_dynamics_batch``.

    The fixed starts come first, then ``n_random`` uniform draws from
    ``rng``, drawn in (start, type, taste, cell) order.
    """
    n_flat = cs.active.size
    fixed = np.repeat(np.array(list(_FIXED_STARTS.values()))[:, :, None], n_flat // 2, axis=2)
    drawn = np.empty((n_random, n_flat))
    drawn[:, cs.type_major] = rng.random((n_random, n_flat))
    labels = [*_FIXED_STARTS, *(f"random{k}" for k in range(n_random))]
    return labels, np.concatenate([fixed, drawn.reshape((n_random,) + cs.active.shape)])


def _dynamics_results(
    scenario: Scenario,
    cs: eng.CompiledScenario,
    batch,
) -> list[DynamicsResult]:
    """One result per start of a ``_dynamics_batch`` output; a converged
    profile is certified against the schedule try-list."""
    out, converged, _, iters = batch
    results = []
    for b in range(len(iters)):
        profile = eng.unflatten_profile(cs, out[b])
        if converged[b]:
            status, report = "converged", certify_equilibrium(scenario, profile)
        else:
            status, report = "max_iters", None
        results.append(DynamicsResult(status, profile, report, int(iters[b])))
    return results


def best_response_dynamics(
    scenario: Scenario,
    init: StrategyProfile,
    max_iters: int = 1000,
) -> DynamicsResult:
    """Iterate damped best replies from ``init`` and verify the rest point.

    Dynamics stop on convergence (a sup-norm change below 1e-10) or at the
    iteration cap, reported as ``max_iters``.  A converged profile is
    certified against the schedule try-list.
    """
    cs = eng.compile_scenario(scenario)
    stacked = eng.flatten_profile(cs, init)[None]
    batch = _dynamics_batch(cs, stacked, max_iters)
    return _dynamics_results(scenario, cs, batch)[0]


# -- exhaustive pure-profile enumeration -------------------------------------

ENUMERATION_CAP = 1 << 20
# Bound on the screen's largest per-chunk temporary, the moments array of
# ``profile_beliefs``.  Chunks this small reuse the same few cache-sized
# buffers chunk after chunk; larger ones fault each chunk's temporaries in
# anew, and smaller ones pay numpy's per-call cost more often.  On a 2-core
# x86 VM, a pass of the ``enumerate`` benchmark took under 200 page faults
# with this bound (512 profiles per chunk on its 12-cell, 6-data-cell
# scenarios); 1024-profile chunks took about 115k and ran 10-20 % slower, and
# 256-profile chunks ran 20-35 % slower.
_CHUNK_BYTES = 96 << 10


def enumerate_pure_equilibria(scenario: Scenario) -> list[tuple[StrategyProfile, EquilibriumReport]]:
    """All pure profiles verifiable as limit equilibria, in index order.

    Pure assignments range over taste cells that occur with positive
    probability, bit by bit in (type, taste, cell) order; unreachable cells
    are pinned to a = t.  A vectorized screen keeps the profiles that pass
    the floor rung under some schedule of the try-list, and
    ``certify_equilibrium`` decides each of them.  A passing ladder suffix
    always contains the floor rung, so the screen drops no profile that
    certification would pass, and every returned profile re-passes
    ``verify_limit`` independently.

    The screen runs over chunks of consecutive indices, each as many profiles
    as keep the moments array of ``profile_beliefs`` (two actions' data
    moments per profile) within ``_CHUNK_BYTES``.  Returned profiles own their
    arrays (``StrategyProfile`` copies them), so results do not pin chunks.
    """
    cs = eng.compile_scenario(scenario)
    order = cs.type_major
    slots = order[cs.active.reshape(-1)[order]]
    n_slots = len(slots)
    if n_slots.bit_length() > 63 or 2**n_slots > ENUMERATION_CAP:
        raise EquilibriumError(f"instance-too-large: 2^{n_slots} pure profiles exceed the cap")
    n_profiles = 1 << n_slots
    floor = cs.rungs[-1:]
    try_list = _try_list(cs)
    chunk = max(1, _CHUNK_BYTES // (2 * cs.mass_map[0].nbytes))

    results: list[tuple[StrategyProfile, EquilibriumReport]] = []
    for start in range(0, n_profiles, chunk):
        idx = np.arange(start, min(start + chunk, n_profiles), dtype=np.int64)
        batch = np.zeros((len(idx),) + cs.active.shape)
        batch[:, 1] = 1.0  # a = t on cells enumeration does not touch
        batch.reshape(len(idx), -1)[:, slots] = (idx[:, None] >> np.arange(n_slots)) & 1

        # each schedule of the try-list screens the profiles the earlier ones left
        passing = np.zeros(len(idx), dtype=bool)
        todo = np.arange(len(idx))
        for make in try_list:
            rest = batch[todo]
            ok = _rung_passes(cs, rest, make(rest), floor)[0]
            passing[todo[ok]] = True
            todo = todo[~ok]
            if not todo.size:
                break

        for b in np.nonzero(passing)[0]:
            profile = eng.unflatten_profile(cs, batch[b])
            report = certify_equilibrium(scenario, profile)
            if report.passed:
                results.append((profile, report))
    return results
