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

from dataclasses import dataclass

import numpy as np

from . import _engine as eng
from .causal import DeltaTable, delta_table, tie_tolerance
from .model import (
    Scenario,
    StrategyProfile,
    TrembleSchedule,
    TrembleSpec,
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
    "ladder_rungs",
]

VERDICT_EPS = "epsilon_equilibrium"
VERDICT_LIMIT = "equilibrium_limit"
VERDICT_NOT = "not_equilibrium"
VERDICT_UNDEFINED = "undefined_cells"

ladder_rungs = eng.ladder_rungs


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
    status: str  # "converged" | "cycle_detected" | "max_iters"
    profile: StrategyProfile
    report: EquilibriumReport | None
    iterations: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _cell_tuple(ct: eng.CompiledType, flat_cell: int) -> tuple[int, ...]:
    if not ct.c_cards:
        return ()
    return tuple(int(v) for v in np.unravel_index(flat_cell, ct.c_cards))


def _diagnose(
    cs: eng.CompiledScenario,
    trembled: list[np.ndarray],
    eps: float,
    tol: float,
) -> tuple[ViolationWitness | None, tuple[UndefinedCell, ...]]:
    """Worst violation and undefined-cell list for one (trembled) profile."""
    effects = eng.profile_effects(cs, trembled)
    witness = None
    worst = -np.inf
    undefined: list[UndefinedCell] = []
    for i, ((delta, defined), flat, ct) in enumerate(zip(effects, trembled, cs.types)):
        scores = cs.score_base.reshape(2, 1) + cs.effect_weight * delta[None, :]
        for taste in (0, 1):
            for cell in range(ct.nc):
                if not ct.active[taste, cell]:
                    continue
                if not defined[cell]:
                    undefined.append(UndefinedCell(i, taste, _cell_tuple(ct, cell)))
                    continue
                s = float(scores[taste, cell])
                for action, played in ((1, float(flat[taste, cell])), (0, 1.0 - float(flat[taste, cell]))):
                    offside = s < -tol if action == 1 else s > tol
                    if played > eps + eng.PLAY_SLACK and offside and abs(s) > worst:
                        worst = abs(s)
                        witness = ViolationWitness(
                            i, taste, _cell_tuple(ct, cell), action, played,
                            float(delta[cell]), s, float(eps),
                        )
    return witness, tuple(undefined)


def _profile_stats(scenario: Scenario, profile: StrategyProfile):
    return (
        float(welfare_loss(scenario, profile)),
        float(error_probability(scenario, profile)),
        delta_table(scenario, profile),
    )


def verify_eps_equilibrium(
    scenario: Scenario,
    profile: StrategyProfile,
    eps: float,
    tie_tol: float | None = None,
) -> EquilibriumReport:
    """Check the profile, as given, against the eps threshold."""
    if not 0 < eps < 1:
        raise EquilibriumError("eps must lie in (0, 1)")
    tol = tie_tolerance(tie_tol)
    cs = eng.compile_scenario(scenario)
    flats = eng.flatten_profile(cs, profile)
    rung = np.array([eps])
    ok, undef, viol = eng.check_rungs(cs, [f[None] for f in flats], rung, tol)
    trace = (LadderRung(eps, bool(ok[0]), float(viol[0]), bool(undef[0])),)
    loss, errp, tables = _profile_stats(scenario, profile)
    witness, undefined = (None, ())
    if not ok[0]:
        witness, undefined = _diagnose(cs, flats, eps, tol)
    if undefined:
        verdict, witness = VERDICT_UNDEFINED, None
    elif ok[0]:
        verdict = VERDICT_EPS
    else:
        verdict = VERDICT_NOT
    return EquilibriumReport(
        verdict, eps, witness, undefined, trace, loss, errp, tables, None, 0.0
    )


def verify_limit(
    scenario: Scenario,
    profile: StrategyProfile,
    schedule: TrembleSchedule | None = None,
    ladder: np.ndarray | None = None,
    tie_tol: float | None = None,
    tail_min: int = eng.DEFAULT_TAIL_MIN,
) -> EquilibriumReport:
    """Witness the profile as a limit of eps-equilibria along the ladder.

    Each rung perturbs the profile with the schedule at that rung's noise
    level and demands an eps-equilibrium at the same level.  The verdict is
    a limit equilibrium when a passing suffix of at least ``tail_min`` rungs
    reaches the floor: rungs coarser than a schedule's turn-on scale may
    legitimately fail without saying anything about the limit.
    """
    schedule = schedule if schedule is not None else TrembleSchedule.none()
    rungs = np.asarray(ladder if ladder is not None else eng.ladder_rungs(), dtype=float)
    if rungs.ndim != 1 or len(rungs) == 0 or np.any(np.diff(rungs) >= 0):
        raise EquilibriumError("ladder must be a strictly decreasing sequence")
    tol = tie_tolerance(tie_tol)
    cs = eng.compile_scenario(scenario)
    flats = eng.flatten_profile(cs, profile)
    compiled_sched = eng.CompiledSchedule.from_schedule(schedule, len(cs.types))
    trembled = eng.apply_compiled_trembles(flats, compiled_sched, rungs)
    ok, undef, viol = eng.check_rungs(cs, trembled, rungs, tol)
    trace = tuple(
        LadderRung(float(e), bool(o), float(v), bool(u))
        for e, o, v, u in zip(rungs, ok, viol, undef)
    )
    sup_gap = max(
        float(np.max(np.abs(tr[-1] - f))) if f.size else 0.0
        for tr, f in zip(trembled, flats)
    )
    loss, errp, tables = _profile_stats(scenario, profile)
    need = min(tail_min, len(rungs))
    if int(eng.tail_lengths(ok)) >= need:
        return EquilibriumReport(
            VERDICT_LIMIT, None, None, (), trace, loss, errp, tables, schedule, sup_gap
        )
    deepest = int(np.nonzero(~ok)[0][-1])
    rung_flats = [tr[deepest] for tr in trembled]
    witness, undefined = _diagnose(cs, rung_flats, float(rungs[deepest]), tol)
    if undefined and witness is None:
        return EquilibriumReport(
            VERDICT_UNDEFINED, float(rungs[deepest]), None, undefined, trace,
            loss, errp, tables, schedule, sup_gap,
        )
    return EquilibriumReport(
        VERDICT_NOT, float(rungs[deepest]), witness, undefined, trace,
        loss, errp, tables, schedule, sup_gap,
    )


def _taste_weighted_candidate(cs: eng.CompiledScenario, flats: list[np.ndarray]) -> TrembleSchedule:
    compiled = eng.taste_weighted_schedule(cs, flats)
    rules = {}
    for i, exps in enumerate(compiled.exponents):
        for taste in (0, 1):
            rules[(i, taste)] = TrembleSpec(float(exps[taste]), "flip")
    return TrembleSchedule.of(rules)


def certify_equilibrium(
    scenario: Scenario,
    profile: StrategyProfile,
    schedules: tuple[TrembleSchedule, ...] | None = None,
    ladder: np.ndarray | None = None,
    tie_tol: float | None = None,
    tail_min: int = eng.DEFAULT_TAIL_MIN,
) -> EquilibriumReport:
    """Try to witness a limit equilibrium with a small set of schedules.

    The default try-list is: no trembles at all (exact equilibria), uniform
    flip trembles (fills in undefined effects without biasing them), then
    taste-weighted flip trembles (keeps taste-driven corner profiles alive).
    The first passing schedule wins and is recorded on the report; if none
    passes, the report of the deepest-reaching attempt is returned.
    """
    if schedules is None:
        cs = eng.compile_scenario(scenario)
        flats = eng.flatten_profile(cs, profile)
        schedules = (
            TrembleSchedule.none(),
            TrembleSchedule.uniform_flip(1.0),
            _taste_weighted_candidate(cs, flats),
        )
    best: EquilibriumReport | None = None
    best_tail = -1
    for sched in schedules:
        report = verify_limit(scenario, profile, sched, ladder, tie_tol, tail_min)
        if report.passed:
            return report
        tail = sum(1 for r in reversed(report.ladder_trace) if r.passed)
        if tail > best_tail:
            best, best_tail = report, tail
    assert best is not None
    return best


# -- best-response dynamics --------------------------------------------------


def _dynamics_batch(
    cs: eng.CompiledScenario,
    flats: list[np.ndarray],
    damping: float,
    max_iters: int,
    tol: float,
):
    """Damped best-reply iteration on a batch of profiles.

    Per-cell steps start at ``damping`` and halve whenever that cell's strict
    best reply flips, which settles oscillations onto interior mixing points;
    cells at (or within tolerance of) indifference hold their current value.
    All types ride one (batch, 2, stacked cells) state array.  Returns final
    per-type arrays plus per-init status.
    """
    if not 0 < damping <= 1:
        raise EquilibriumError("damping must lie in (0, 1]")
    state = np.concatenate(flats, axis=-1)
    n_init = state.shape[0]
    steps = np.full(state.shape, damping)
    prev = np.full(state.shape, -1, dtype=np.int8)
    done = np.zeros(n_init, dtype=bool)
    cycled = np.zeros(n_init, dtype=bool)
    iters = np.zeros(n_init, dtype=int)
    seen: list[set[bytes]] = [set() for _ in range(n_init)]

    def scored(st):
        delta, defined = eng.join_effects(
            eng.profile_effects(cs, eng.split_cells(cs, eng.flip_floor([st])[0]))
        )
        scores = cs.score_base.reshape(2, 1) + cs.effect_weight * delta[:, None, :]
        return scores, cs.active & defined[:, None, :]

    for it in range(max_iters):
        scores, live = scored(state)
        code = np.where(scores > tol, 1, np.where(scores < -tol, 0, -1)).astype(np.int8)
        code = np.where(live, code, -1)
        target = np.where(code < 0, state, code.astype(np.float64))
        flipped = (prev >= 0) & (code >= 0) & (prev != code)
        steps = np.where(flipped, steps * 0.5, steps)
        prev = np.where(code >= 0, code, prev)
        upd = state + steps * (target - state)
        upd = np.where(done[:, None, None], state, upd)
        max_change = np.abs(upd - state).max(axis=(1, 2))
        state = upd
        just_converged = ~done & (max_change < eng.CONVERGENCE_TOL)
        iters = np.where(~done, it + 1, iters)
        done |= just_converged
        # Revisit detection runs only while the state still moves at a scale
        # well above the rounding used for keys; a settling trajectory would
        # otherwise alias consecutive near-identical states into a "cycle".
        # Keys round to 9 decimals, one coarser than ``eng.profile_key``:
        # they must catch a return to an earlier state up to accumulated
        # roundoff, while the 1e-7 gate keeps the movement far above the grid.
        moving = np.nonzero(~done & (max_change >= 1e-7))[0]
        if moving.size:
            keys = np.round(state[moving], 9).tobytes()
            width = len(keys) // moving.size
            for j, b in enumerate(moving.tolist()):
                key = keys[j * width : (j + 1) * width]
                if key in seen[b]:
                    cycled[b] = True
                    done[b] = True
                else:
                    seen[b].add(key)
        if done.all():
            break

    converged = done & ~cycled
    # Snap strictly-best-reply cells of converged runs to the pure action.
    scores, live = scored(state)
    snap = np.where((scores > tol) & live, 1.0, np.where((scores < -tol) & live, 0.0, state))
    state = np.where(converged[:, None, None], snap, state)
    return [f.copy() for f in eng.split_cells(cs, state)], converged, cycled, iters


# Deterministic dynamics starts by name: the action each taste plays everywhere.
_FIXED_STARTS = {"taste": (0.0, 1.0), "zero": (0.0, 0.0), "one": (1.0, 1.0)}


def _dynamics_starts(
    cs: eng.CompiledScenario, rng: np.random.Generator, n_random: int
) -> tuple[list[str], list[np.ndarray]]:
    """Labels and per-type start batches for ``_dynamics_batch``.

    The fixed starts come first, then ``n_random`` uniform draws from
    ``rng``, one type after another within each start.
    """
    starts = [
        [np.repeat(np.array(actions)[:, None], ct.nc, axis=1) for ct in cs.types]
        for actions in _FIXED_STARTS.values()
    ]
    starts += [[rng.random((2, ct.nc)) for ct in cs.types] for _ in range(n_random)]
    labels = [*_FIXED_STARTS, *(f"random{k}" for k in range(n_random))]
    return labels, [np.stack([start[k] for start in starts]) for k in range(len(cs.types))]


def _dynamics_results(
    scenario: Scenario,
    cs: eng.CompiledScenario,
    batch,
    schedule: TrembleSchedule | None = None,
    tie_tol: float | None = None,
) -> list[DynamicsResult]:
    """One result per start of a ``_dynamics_batch`` output.

    A converged profile is verified with ``schedule`` when given, else
    certified against the default schedule try-list.
    """
    out, converged, cycled, iters = batch
    results = []
    for b in range(len(iters)):
        profile = eng.unflatten_profile(cs, [f[b] for f in out])
        if cycled[b]:
            results.append(DynamicsResult("cycle_detected", profile, None, int(iters[b])))
            continue
        if not converged[b]:
            results.append(DynamicsResult("max_iters", profile, None, int(iters[b])))
            continue
        if schedule is not None and not schedule.is_empty:
            report = verify_limit(scenario, profile, schedule, tie_tol=tie_tol)
        else:
            report = certify_equilibrium(scenario, profile, tie_tol=tie_tol)
        results.append(DynamicsResult("converged", profile, report, int(iters[b])))
    return results


def best_response_dynamics(
    scenario: Scenario,
    init: StrategyProfile,
    schedule: TrembleSchedule | None = None,
    damping: float = 0.5,
    max_iters: int = 1000,
    tie_tol: float | None = None,
) -> DynamicsResult:
    """Iterate damped best replies from ``init`` and verify the rest point.

    Convergence is declared below a sup-norm change of 1e-10; revisiting an
    earlier state first is reported as a cycle, and hitting the iteration cap
    as non-convergence.  A converged profile is verified with ``schedule``
    when given, else certified against the default schedule try-list.
    """
    cs = eng.compile_scenario(scenario)
    flats = [f[None] for f in eng.flatten_profile(cs, init)]
    batch = _dynamics_batch(cs, flats, damping, max_iters, tie_tolerance(tie_tol))
    return _dynamics_results(scenario, cs, batch, schedule, tie_tol)[0]


# -- exhaustive pure-profile enumeration -------------------------------------

ENUMERATION_CAP = 1 << 20
_CHUNK = 1 << 12


def _batch_tails(
    cs: eng.CompiledScenario,
    flats: list[np.ndarray],
    sched: eng.CompiledSchedule,
    rungs: np.ndarray,
    tol: float,
) -> np.ndarray:
    trembled = eng.apply_compiled_trembles(flats, sched, rungs)
    ok, _, _ = eng.check_rungs(cs, trembled, rungs, tol)
    return eng.tail_lengths(ok)


def enumerate_pure_equilibria(
    scenario: Scenario,
    schedule: TrembleSchedule | None = None,
    tie_tol: float | None = None,
    cap: int = ENUMERATION_CAP,
) -> list[tuple[StrategyProfile, EquilibriumReport]]:
    """All pure profiles verifiable as limit equilibria, in index order.

    Pure assignments range over taste cells that occur with positive
    probability; unreachable cells are pinned to a = t.  With a schedule the
    profiles are verified under it; otherwise each survivor of a vectorized
    pre-screen is certified against the default try-list.  The pre-screen and
    the final per-profile verification use the same ladder logic, so every
    returned profile re-passes ``verify_limit`` independently.
    """
    cs = eng.compile_scenario(scenario)
    slots = [
        (k, taste, cell)
        for k, ct in enumerate(cs.types)
        for taste in (0, 1)
        for cell in range(ct.nc)
        if ct.active[taste, cell]
    ]
    n_slots = len(slots)
    if n_slots.bit_length() > 63 or 2**n_slots > cap:
        raise EquilibriumError(
            f"instance-too-large: 2^{n_slots} pure profiles exceed the cap"
        )
    n_profiles = 1 << n_slots
    rungs = eng.ladder_rungs()
    tol = tie_tolerance(tie_tol)
    tail_need = min(eng.DEFAULT_TAIL_MIN, len(rungs))

    base = []
    for ct in cs.types:
        sig = np.zeros((2, ct.nc))
        sig[1] = 1.0  # a = t on cells enumeration does not touch
        base.append(sig)

    floor_rung = rungs[-1:]

    def _ladder_pass(sub_flats, make_sched) -> np.ndarray:
        # a qualifying suffix always contains the final rung, so one cheap
        # floor-rung sweep filters the batch before the full ladder
        out = np.zeros(len(sub_flats[0]), dtype=bool)
        at_floor = _batch_tails(cs, sub_flats, make_sched(sub_flats), floor_rung, tol) >= 1
        if at_floor.any():
            deep = [f[at_floor] for f in sub_flats]
            ok = _batch_tails(cs, deep, make_sched(deep), rungs, tol) >= tail_need
            out[np.nonzero(at_floor)[0]] = ok
        return out

    n_types = len(cs.types)
    if schedule is not None:
        given = eng.CompiledSchedule.from_schedule(schedule, n_types)
    else:
        empty = eng.CompiledSchedule.from_schedule(TrembleSchedule.none(), n_types)
        uniform = eng.CompiledSchedule.from_schedule(TrembleSchedule.uniform_flip(1.0), n_types)

    results: list[tuple[StrategyProfile, EquilibriumReport]] = []
    for start in range(0, n_profiles, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n_profiles), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n_slots)) & 1
        flats = [np.broadcast_to(sig, (len(idx),) + sig.shape).copy() for sig in base]
        for s, (k, taste, cell) in enumerate(slots):
            flats[k][:, taste, cell] = bits[:, s]

        if schedule is not None:
            passing = _ladder_pass(flats, lambda _f: given)
        else:
            passing = _ladder_pass(flats, lambda _f: empty)
            rest = ~passing
            if rest.any():
                sub = [f[rest] for f in flats]
                more = _ladder_pass(sub, lambda _f: uniform)
                todo = ~more
                if todo.any():
                    sub2 = [f[todo] for f in sub]
                    tw_pass = _ladder_pass(
                        sub2, lambda fl: eng.taste_weighted_schedule(cs, fl)
                    )
                    more[np.nonzero(todo)[0][tw_pass]] = True
                passing[np.nonzero(rest)[0][more]] = True

        for b in np.nonzero(passing)[0]:
            profile = eng.unflatten_profile(cs, [f[b] for f in flats])
            if schedule is not None:
                report = verify_limit(scenario, profile, schedule, tie_tol=tie_tol)
            else:
                report = certify_equilibrium(scenario, profile, tie_tol=tie_tol)
            if report.passed:
                results.append((profile, report))
    return results
