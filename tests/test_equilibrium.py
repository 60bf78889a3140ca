import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci import _engine as eng, equilibrium
from bci._engine import tie_tolerance
from bci.equilibrium import (
    ENUMERATION_CAP,
    EquilibriumError,
    UndefinedCell,
    _dynamics_batch,
    _floor_screen,
    _reaches_floor,
    _try_list,
    best_response_dynamics,
    certify_equilibrium,
    dynamics_starts,
    enumerate_pure_equilibria,
    solve,
    verify_eps_equilibrium,
    verify_limit,
)
from bci.model import DataTypeSpec, Scenario, StrategyProfile
from bci.scenarios import (
    example_1_1_collider,
    example_1_1_confounder,
    example_3_1,
    example_3_1_profile,
    example_4_1,
    example_4_1_corner_profile,
    example_4_1_interior_profile,
    matching_on_own_covariate,
    pandemic,
    pandemic_corner_profile,
    pandemic_profile,
    prop2_cycle,
    prop2_incomplete,
    prop4,
    prop5,
)
from bci.worstcase import (
    SearchConfig,
    check_annotations,
    random_scenario,
    verified_equilibria,
    witness_incomplete,
    witness_incomplete_hetero,
)

from test_causal import assert_same, compiled_path_cases, random_small_scenario
from test_engine import as_columns, kernel_columns, random_family_scenarios


def test_eps_equilibrium_golden_two_covariates():
    s = example_3_1()
    prof = matching_on_own_covariate(s)
    report = verify_eps_equilibrium(s, prof, 0.01)
    assert report.verdict == "epsilon_equilibrium"
    assert report.witness is None
    assert report.welfare_loss == pytest.approx(0.4, abs=1e-12)
    assert report.error_probability == pytest.approx(0.8, abs=1e-12)
    assert report.sup_gap == 0.0  # no best-reply violation anywhere


def test_eps_validation():
    s = example_3_1()
    prof = matching_on_own_covariate(s)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(EquilibriumError):
            verify_eps_equilibrium(s, prof, bad)


def test_violation_witness_identifies_cell():
    # at q=0.5 the perceived effect is 2q/(1+q) = 2/3, so c=0.7 makes acting
    # on the x=1 signal a strict mistake
    s = example_3_1(beta=0.5, q=0.5, c=0.7)
    report = verify_eps_equilibrium(s, matching_on_own_covariate(s), 0.01)
    assert report.verdict == "not_equilibrium"
    w = report.witness
    assert (w.type_index, w.taste, w.cell, w.action) == (0, 0, (1,), 1)
    assert w.score == pytest.approx(2.0 / 3.0 - 0.7, abs=1e-12)
    assert report.ladder_trace[0].max_violation == pytest.approx(0.7 - 2.0 / 3.0, abs=1e-12)


def test_zero_mass_taste_cells_are_exempt():
    s = example_3_1()  # t = 1 unreachable
    prof = matching_on_own_covariate(s)
    sig = np.array(prof.sigmas[0])
    sig[1, :] = 0.3  # nonsense play on the dead taste row
    report = verify_eps_equilibrium(s, StrategyProfile((sig, prof.sigmas[1])), 0.01)
    assert report.passed


def test_limit_certification_interior_rest_point():
    s = example_4_1(0.3, 0.5)
    report = certify_equilibrium(s, example_4_1_interior_profile(s))
    assert report.verdict == "equilibrium_limit"
    assert np.array_equal(report.schedule, np.full((2, 1), np.nan), equal_nan=True)
    assert len(report.ladder_trace) == 17
    assert all(r.passed for r in report.ladder_trace)


def test_limit_certification_corner_needs_uneven_schedule():
    s = example_4_1(0.6, 0.5)
    corner = example_4_1_corner_profile(s)
    # the taste-0 pool must tremble harder (lower exponent) than the taste-1
    # pool for the a=0 observations to keep reading as taste-0 people, which
    # is what props the perceived effect above c; the opposite orientation fails
    good = np.array([[1.0], [2.0]])  # rows tastes, columns types
    report = verify_limit(s, corner, good)
    assert report.verdict == "equilibrium_limit"
    assert report.welfare_loss == pytest.approx(0.5 * (1 - 0.6), abs=1e-12)
    flipped = np.array([[2.0], [1.0]])
    assert verify_limit(s, corner, flipped).verdict == "not_equilibrium"
    # the built-in certification search finds a working schedule on its own
    auto = certify_equilibrium(s, corner)
    assert auto.verdict == "equilibrium_limit"


def test_report_schedule_is_its_own_read_only_copy():
    s = example_4_1(0.6, 0.5)
    good = np.array([[1.0], [2.0]])
    report = verify_limit(s, example_4_1_corner_profile(s), good)
    assert not report.schedule.flags.writeable
    assert not np.shares_memory(report.schedule, good)
    good[:] = 5.0
    assert report.schedule.tolist() == [[1.0], [2.0]]
    # a report at one eps has no schedule at all
    assert verify_eps_equilibrium(s, example_4_1_corner_profile(s), 0.01).schedule is None


def test_certification_reports_the_try_list_table_it_passed(monkeypatch):
    # the report's schedule is the try-list table handed to ``verify_limit``,
    # copied, not a view of the try-list's buffer
    passed = []
    real = equilibrium.verify_limit

    def spy(cs, profile, table):
        passed.append(table)
        return real(cs, profile, table)

    monkeypatch.setattr(equilibrium, "verify_limit", spy)
    s = example_4_1(0.6, 0.5)
    cs = eng.compile_scenario(s)
    corner = example_4_1_corner_profile(s)
    report = certify_equilibrium(cs, corner)
    assert report.passed and len(passed) > 1  # the corner needs a trembling schedule
    tried = _try_list(cs, eng.flatten_profile(cs, corner).reshape(-1, 1))[..., 0]
    assert np.array_equal(passed[-1], tried[..., len(passed) - 1], equal_nan=True)
    assert np.array_equal(report.schedule, passed[-1], equal_nan=True)
    assert not np.shares_memory(report.schedule, passed[-1])


def test_ladder_rule_needs_a_passing_suffix_of_tail_min_rungs():
    # one column per passing-suffix length on the default 17-rung ladder
    n_rungs = 17
    assert len(eng.ladder_rungs()) == n_rungs
    ok = np.arange(n_rungs)[:, None] >= n_rungs - np.arange(n_rungs + 1)
    reached = _reaches_floor(ok)
    assert not reached[: eng.DEFAULT_TAIL_MIN].any()  # suffixes of 1-5 rungs fail
    assert reached[eng.DEFAULT_TAIL_MIN :].all()  # 6 rungs and more pass
    # a ladder shorter than the suffix rule passes only if every rung does
    short = np.ones((eng.DEFAULT_TAIL_MIN - 2, 2), dtype=bool)
    short[0, 1] = False
    assert _reaches_floor(short).tolist() == [True, False]


def test_tail_rule_rejects_transient_passes():
    s = prop2_incomplete()
    prof = witness_incomplete().profile
    # a schedule that trembles far too hard at small eps ruins the tail
    bad = np.array([[0.05, 0.05], [np.nan, np.nan]])
    report = verify_limit(s, prof, bad)
    assert report.verdict in ("not_equilibrium", "undefined_cells")


def test_ladder_floor_is_read_on_every_call(monkeypatch):
    # each verification compiles its scenario, and the compiled scenario
    # reads BCI_LADDER_FLOOR afresh
    s = example_3_1()
    prof = example_3_1_profile(s)
    assert len(verify_limit(s, prof).ladder_trace) == 17
    monkeypatch.setenv("BCI_LADDER_FLOOR", "1e-3")
    assert len(verify_limit(s, prof).ladder_trace) == 7


def test_certification_is_first_passing_schedule_else_most_passing_rungs():
    # the definition, written out: a full report per try-list schedule; the
    # first passing one wins, else the one with the most passing rungs
    # anywhere on the ladder, the earliest on ties
    rng = np.random.default_rng(31)
    fields = (
        "verdict", "eps", "witness", "undefined_cells", "ladder_trace",
        "welfare_loss", "error_probability", "schedule", "sup_gap",
    )
    picked = {"pass": 0, "fail": 0, "later": 0, "not_longest_suffix": 0}
    for _ in range(40):
        s, prof = random_small_scenario(rng)
        cs = eng.compile_scenario(s)
        rest = best_response_dynamics(s, prof, max_iters=200).profile
        pure = StrategyProfile(tuple(np.floor(2 * rng.random(x.shape)) for x in prof.sigmas))
        for p in (rest, StrategyProfile(tuple(np.round(x) for x in prof.sigmas)), pure):
            tried = _try_list(cs, eng.flatten_profile(cs, p).reshape(-1, 1))[..., 0]
            reports = [verify_limit(s, p, table) for table in np.moveaxis(tried, -1, 0)]
            passing = [r for r in reports if r.passed]
            passes = [np.array([r.passed for r in rep.ladder_trace]) for rep in reports]
            most = [int(ok.sum()) for ok in passes]
            suffix = [int(np.cumprod(ok[::-1]).sum()) for ok in passes]
            expected = passing[0] if passing else reports[most.index(max(most))]
            got = certify_equilibrium(s, p)
            for f in fields:
                assert_same(getattr(got, f), getattr(expected, f), (f,))
            picked["pass" if passing else "fail"] += 1
            picked["later"] += not passing and most.index(max(most)) > 0
            picked["not_longest_suffix"] += not passing and (
                most.index(max(most)) != suffix.index(max(suffix))
            )
    # the corpus reaches both outcomes, a fallback past the first schedule,
    # and fallbacks that a longest-passing-suffix rule would choose differently
    assert min(picked.values()) > 0, picked


def test_compiled_scenario_gives_the_same_reports():
    # each verifier, handed the scenario's compiled form in place of the
    # scenario, returns the same report in every field, delta tables included
    verdicts = set()
    for s, profiles in compiled_path_cases():
        cs = eng.compile_scenario(s)
        for p in profiles:
            for verify in (
                lambda x: verify_eps_equilibrium(x, p, 0.01),
                lambda x: verify_limit(x, p),
                lambda x: verify_limit(x, p, np.ones((2, s.n_types))),
                lambda x: certify_equilibrium(x, p),
            ):
                want = verify(s)
                assert_same(verify(cs), want)
                verdicts.add(want.verdict)
    assert verdicts == {
        "epsilon_equilibrium", "equilibrium_limit", "not_equilibrium", "undefined_cells"
    }


@pytest.fixture
def compiles(monkeypatch):
    """The scenarios ``_engine.compile_scenario`` compiles, in call order."""
    calls = []
    compile_scenario = eng.compile_scenario

    def spy(scenario):
        calls.append(scenario)
        return compile_scenario(scenario)

    monkeypatch.setattr(eng, "compile_scenario", spy)
    return calls


def test_each_op_compiles_its_scenario_once(compiles):
    # callers hand their compiled scenario on, so only entry points compile;
    # ``verified_equilibria`` hands ``enumerate_pure_equilibria`` the
    # scenario, which that compiles once more
    s = example_3_1()
    prof = matching_on_own_covariate(s)
    assert len(enumerate_pure_equilibria(s)) == 2
    assert compiles == [s]
    compiles.clear()
    assert verified_equilibria(s, np.random.default_rng(0))
    assert compiles == [s, s]
    compiles.clear()
    assert certify_equilibrium(s, prof).passed
    assert compiles == [s]
    cs = eng.compile_scenario(s)
    compiles.clear()
    assert certify_equilibrium(cs, prof).passed
    assert compiles == []
    witness = witness_incomplete_hetero()
    compiles.clear()
    assert check_annotations(witness) < 1e-9
    assert compiles == [witness.scenario]


def test_certification_walks_one_ladder_per_schedule_tried(monkeypatch):
    # a certification that passes on its first schedule checks one ladder;
    # one that passes on none checks one per try-list schedule
    ladders = []
    check_rungs = eng.check_rungs

    def spy(cs, trembled, eps):
        ladders.append(len(eps))
        return check_rungs(cs, trembled, eps)

    monkeypatch.setattr(eng, "check_rungs", spy)
    s = example_3_1()
    cs = eng.compile_scenario(s)
    report = certify_equilibrium(cs, matching_on_own_covariate(s))
    assert report.passed
    assert np.array_equal(report.schedule, np.full((2, 2), np.nan), equal_nan=True)
    assert ladders == [len(cs.rungs)]
    ladders.clear()
    s = example_4_1(0.3, 0.5)
    cs = eng.compile_scenario(s)
    matching = StrategyProfile.matching(s)
    assert not certify_equilibrium(cs, matching).passed
    assert ladders == [len(cs.rungs)] * _try_list(cs, eng.flatten_profile(cs, matching).reshape(-1, 1)).shape[2]


def test_dynamics_converges_to_known_interior():
    s = example_4_1(0.3, 0.5)
    result = best_response_dynamics(s, StrategyProfile.matching(s))
    assert result.status == "converged"
    alpha0 = float(result.profile.sigmas[0][0])
    assert alpha0 == pytest.approx(3.0 / 7.0, abs=1e-6)
    assert float(result.profile.sigmas[0][1]) == 1.0
    assert result.report is not None and result.report.passed
    assert result.report.welfare_loss == pytest.approx(0.15, abs=1e-6)


def test_dynamics_respects_max_iters():
    s = example_4_1(0.3, 0.5)
    result = best_response_dynamics(s, StrategyProfile.constant(s, 0.5), max_iters=1)
    assert result.status == "max_iters"
    assert result.report is None


def test_dynamics_reach_the_all_act_corner_when_gamma_exceeds_c():
    # the taste-0 cell returns to an earlier value with a halved step on the
    # way; a check on revisited positions would abandon this start
    s = example_4_1(0.6, 0.2)
    result = best_response_dynamics(s, StrategyProfile.matching(s))
    assert result.status == "converged"
    assert result.profile.sigmas[0].tolist() == [1.0, 1.0]
    assert result.report.verdict == "equilibrium_limit"
    assert result.report.welfare_loss == pytest.approx(0.2 * (1 - 0.6), abs=1e-12)


def test_dynamics_from_never_acting_reach_the_interior_mix():
    gamma, c = 0.4, 0.5
    s = example_4_1(gamma, c)
    result = best_response_dynamics(s, StrategyProfile.constant(s, 0.0))
    assert result.status == "converged"
    alpha0, alpha1 = result.profile.sigmas[0].tolist()
    assert alpha0 == pytest.approx(gamma * (1 - c) / ((1 - gamma) * c), abs=1e-6)
    assert alpha1 == 1.0


@pytest.mark.parametrize("max_iters", [0, -3])
def test_dynamics_reject_an_empty_iteration_budget(max_iters):
    s = example_3_1()
    with pytest.raises(EquilibriumError, match="max_iters"):
        best_response_dynamics(s, StrategyProfile.matching(s), max_iters=max_iters)


def _solve_example_3_1(starts, max_iters=400):
    cs = eng.compile_scenario(example_3_1())
    return solve(cs, np.broadcast_to(starts, starts.shape[:-1] + (cs.offsets[-1],)), max_iters)


def test_solve_rejects_starts_of_another_cell_count():
    cs = eng.compile_scenario(example_3_1())
    with pytest.raises(EquilibriumError, match="shaped"):
        solve(cs, np.full((2, 2, cs.offsets[-1] + 1), 0.5), 400)


def test_solve_rejects_a_single_unbatched_start():
    cs = eng.compile_scenario(example_3_1())
    with pytest.raises(EquilibriumError, match="shaped"):
        solve(cs, np.full(cs.active.shape, 0.5), 400)


def test_solve_rejects_a_fractional_iteration_budget():
    for bad in (2.5, True):  # True would run one iteration
        with pytest.raises(EquilibriumError, match="max_iters"):
            _solve_example_3_1(np.full((1, 2, 1), 0.5), bad)


@pytest.mark.parametrize("entry", [1.5, np.nan])
def test_solve_rejects_start_entries_outside_the_unit_interval(entry):
    starts = np.full((2, 2, 1), 0.5)
    starts[1, 0] = entry
    with pytest.raises(EquilibriumError, match=r"\[0, 1\]"):
        _solve_example_3_1(starts)


def test_dynamics_starts_reject_a_negative_count():
    s = example_3_1()
    for bad in (-1, 2.5, True):
        with pytest.raises(EquilibriumError, match="random starts"):
            dynamics_starts(eng.compile_scenario(s), np.random.default_rng(0), bad)
        with pytest.raises(EquilibriumError, match="random starts"):
            verified_equilibria(s, np.random.default_rng(0), inner_inits=bad)


def _key(cs, profile):
    return eng.profile_key(eng.flatten_profile(cs, profile))


@pytest.fixture
def certified(monkeypatch):
    """The profile keys ``certify_equilibrium`` certifies, in call order."""
    calls = []
    certify = equilibrium.certify_equilibrium

    def spy(cs, profile):
        calls.append(_key(cs, profile))
        return certify(cs, profile)

    monkeypatch.setattr(equilibrium, "certify_equilibrium", spy)
    return calls


@pytest.mark.parametrize(
    "scenario", [example_3_1(), example_4_1(0.4, 0.5)], ids=["example_3_1", "example_4_1"]
)
def test_solve_certifies_each_distinct_rest_point_once(certified, scenario):
    # a batch that repeats its starts: each distinct converged rest point is
    # certified once, its repeats share its profile and report, and the
    # equilibria come back in the order their first start reached them
    cs = eng.compile_scenario(scenario)
    _, starts = dynamics_starts(cs, np.random.default_rng(0), 8)
    batch = np.concatenate([starts, starts])
    results, found = solve(cs, batch, 400)
    out, converged, _, _ = _dynamics_batch(cs, batch, 400)
    keys = list(dict.fromkeys(eng.profile_key(out[b]) for b in np.nonzero(converged)[0]))
    assert certified == keys
    assert [r.status == "converged" for r in results] == converged.tolist()
    n = len(starts)
    for b in range(n):
        assert results[b + n].profile is results[b].profile
        assert results[b + n].report is results[b].report
    report = {_key(cs, r.profile): r.report for r in results if r.report is not None}
    assert [_key(cs, p) for p, _ in found] == [
        k for k in keys if report[k].verdict == "equilibrium_limit"
    ]
    assert all(rep is report[_key(cs, p)] for p, rep in found)


def test_verified_equilibria_list_enumeration_first_and_do_not_certify_it_again(certified):
    s = example_3_1()
    cs = eng.compile_scenario(s)
    enumerated = [_key(cs, p) for p, _ in enumerate_pure_equilibria(s)]
    n_enum = len(certified)
    keys = [_key(cs, p) for p, _ in verified_equilibria(s, np.random.default_rng(0))]
    assert len(keys) > len(enumerated) and keys[: len(enumerated)] == enumerated
    # the calls after enumeration's own are the dynamics' new rest points
    dynamics = certified[2 * n_enum :]
    assert len(dynamics) == len(set(dynamics)) and not set(dynamics) & set(enumerated)
    assert set(keys[len(enumerated) :]) <= set(dynamics)


def test_enumerate_pure_finds_both_31_equilibria():
    s = example_3_1()
    found = enumerate_pure_equilibria(s)
    losses = sorted(round(rep.welfare_loss, 9) for _, rep in found)
    assert losses == [0.0, 0.4]
    for prof, rep in found:
        assert rep.verdict == "equilibrium_limit"
        assert prof.is_pure()


def test_enumerate_cap_guards_blowup():
    # one type on a 32-valued covariate: 64 active taste cells, 2^64 pure profiles
    s = Scenario(
        ("x1",), (32,), np.full((2, 32), 1 / 64), np.full((2, 32), 0.5),
        (DataTypeSpec(("x1",), ("x1",)),), (1.0,), 0.5,
    )
    assert 2**64 > ENUMERATION_CAP
    with pytest.raises(EquilibriumError, match="2\\^64 pure profiles"):
        enumerate_pure_equilibria(s)


def pure_profiles_in_index_order(s):
    """Every pure profile enumeration ranges over, in its index order: bit k
    of the index sets the k-th active taste cell in (type, taste, cell)
    order, and the other cells play a = t."""
    slots = [
        (i, tuple(at)) for i in range(s.n_types) for at in np.argwhere(s.taste_cell_mass(i) > 0)
    ]
    for index in range(1 << len(slots)):
        sigmas = [np.zeros(s.sigma_shape(i)) for i in range(s.n_types)]
        for sigma in sigmas:
            sigma[1] = 1.0
        for k, (i, at) in enumerate(slots):
            sigmas[i][at] = (index >> k) & 1
        yield StrategyProfile(tuple(sigmas))


def enumeration_cases(n: int, lo: int, hi: int, seed: int) -> list[Scenario]:
    """``prop4`` and ``random_small_scenario`` draws with ``lo``-``hi`` active taste cells."""
    rng = np.random.default_rng(seed)
    cases = [prop4()]
    while len(cases) < n:
        s, _ = random_small_scenario(rng)
        if lo <= sum(int((s.taste_cell_mass(i) > 0).sum()) for i in range(s.n_types)) <= hi:
            cases.append(s)
    return cases


REPORT_FIELDS = (
    "verdict", "eps", "witness", "undefined_cells", "ladder_trace",
    "welfare_loss", "error_probability", "schedule", "sup_gap",
)


def assert_same_equilibria(got, expected):
    assert len(got) == len(expected)
    for (got_p, got_r), (want_p, want_r) in zip(got, expected):
        assert all(np.array_equal(a, b) for a, b in zip(got_p.sigmas, want_p.sigmas))
        for f in REPORT_FIELDS:
            assert_same(getattr(got_r, f), getattr(want_r, f), (f,))


def test_enumeration_returns_exactly_the_certified_pure_profiles():
    # neither the forced codes nor the floor-rung screen may drop a profile
    # that certification passes, whether every cell, some or none is pinned
    found, kinds = 0, set()
    for s in enumeration_cases(9, 4, 8, seed=8) + [example_1_1_collider()]:
        cs = eng.compile_scenario(s)
        pinned = int((eng.forced_codes(cs) >= 0).sum())
        kinds.add("none" if not pinned else "all" if pinned == cs.active.sum() else "some")
        expected = [
            (p, r) for p in pure_profiles_in_index_order(s)
            if (r := certify_equilibrium(s, p)).passed
        ]
        got = enumerate_pure_equilibria(s)
        assert_same_equilibria(got, expected)
        found += len(got)
    assert found and kinds == {"none", "some", "all"}


def exhaustive_floor_screen(s):
    """Every pure profile in index order, their stacked batch, and which of
    them pass the exact floor-rung screen under some try-list schedule."""
    cs = eng.compile_scenario(s)
    profiles = list(pure_profiles_in_index_order(s))
    batch = np.stack([eng.flatten_profile(cs, p) for p in profiles])
    sigma = as_columns(batch)
    floor = cs.rungs[-1:]
    passing = np.zeros(len(batch), dtype=bool)
    tables = _try_list(cs, sigma)
    for k in range(tables.shape[2]):
        trembled = eng.apply_compiled_trembles(cs, sigma, tables[:, :, k], floor)
        passing |= eng.check_rungs(cs, trembled, floor)[0]
    # the screen checks the three schedules in one call, with the same verdicts
    assert np.array_equal(_floor_screen(cs, sigma), passing)
    return profiles, batch, passing


def test_misfit_filter_keeps_every_profile_the_exact_screen_passes():
    # the builtins have exact ties; the random draws have 6 to 12 active cells
    rng = np.random.default_rng(23)
    draws = [
        s for s in random_family_scenarios(rng, 60)
        if 6 <= eng.compile_scenario(s).active.sum() <= 12
    ]
    cases = [example_3_1(), pandemic(), prop5(), prop4(), example_1_1_collider()]
    cases += enumeration_cases(16, 6, 12, seed=4)[1:] + draws[:15]
    assert len(cases) == 35
    screened = found = 0
    for s in cases:
        cs = eng.compile_scenario(s)
        profiles, batch, passing = exhaustive_floor_screen(s)
        misfit = eng.pure_misfits(cs, as_columns(batch), cs.rungs[-1])
        assert not (misfit & passing).any()
        expected = [
            (p, r) for p, ok in zip(profiles, passing)
            if ok and (r := certify_equilibrium(s, p)).passed
        ]
        assert_same_equilibria(enumerate_pure_equilibria(s), expected)
        screened += int(passing.sum())
        found += len(expected)
    assert found and screened


def test_exact_screen_sees_under_two_percent_of_pure_profiles(monkeypatch):
    # the filter leaves ``check_rungs`` few of a 12-cell scenario's 4096 pure
    # profiles, certification's ladders included
    s = random_scenario(SearchConfig(n_covariates=2, n_types=2), np.random.default_rng(0))
    assert eng.compile_scenario(s).active.sum() == 12
    check_rungs = eng.check_rungs
    seen = []

    def spy(cs, trembled, eps):
        seen.append(trembled.shape[1] // len(eps))  # profiles per rung
        return check_rungs(cs, trembled, eps)

    monkeypatch.setattr(eng, "check_rungs", spy)
    assert enumerate_pure_equilibria(s)
    assert sum(seen) < 0.02 * 4096


def moments_bytes(cs, n: int) -> int:
    """Bytes of the first pass's moments array, (2D, 2n), for n profiles."""
    return 2 * cs.adjust.shape[0] * 2 * n * 8


@pytest.mark.parametrize(
    "budget",
    [
        lambda cs, n_slots: 1,  # one profile per chunk
        lambda cs, n_slots: 3000,  # 11 to 23 profiles' worth: first-pass chunks of 8 or 16
        lambda cs, n_slots: moments_bytes(cs, 1 << (n_slots - 2)),  # a quarter of the profiles
        lambda cs, n_slots: moments_bytes(cs, 1 << (n_slots - 1)),  # half the profiles
        lambda cs, n_slots: moments_bytes(cs, 3 << (n_slots - 2)),  # three quarters: halves
        lambda cs, n_slots: moments_bytes(cs, 1 << n_slots),  # every profile, exactly
        lambda cs, n_slots: moments_bytes(cs, 1 << (n_slots + 1)),  # room for twice that
    ],
    ids=["1", "3000", "quarter", "half", "three-quarters", "all", "twice"],
)
def test_enumeration_does_not_depend_on_chunk_boundaries(monkeypatch, budget):
    # a chunk of either pass is as many profiles as the budget fits their
    # moments: the budgets put it at one profile, at widths that are no power
    # of two, and below, at and above the 2^n_slots profiles of a scenario
    # with no cell pinned
    def run(cases, budget):
        out = []
        for s in cases:
            cs = eng.compile_scenario(s)
            monkeypatch.setattr(equilibrium, "_CHUNK_BYTES", budget(cs, int(cs.active.sum())))
            out.append([
                (tuple(sig.tobytes() for sig in p.sigmas), r.verdict, r.schedule.tobytes(), r.welfare_loss)
                for p, r in enumerate_pure_equilibria(s)
            ])
        return out

    cases = enumeration_cases(5, 6, 8, seed=1)
    whole = run(cases, lambda cs, n_slots: 1 << 40)
    assert run(cases, budget) == whole
    assert all(whole)


def first_pass_draws(seed: int) -> dict:
    """``enumeration_cases`` draws, one for each active-cell count 1 to 12
    with and without a cell ``_engine.forced_codes`` pins, where drawn."""
    draws = {}
    for s in enumeration_cases(300, 1, 12, seed=seed):
        cs = eng.compile_scenario(s)
        draws.setdefault((int(cs.active.sum()), bool((eng.forced_codes(cs) >= 0).any())), s)
    assert {n for n, _ in draws} == set(range(1, 13))
    assert {pinned for _, pinned in draws} == {False, True}
    return draws


def playing_forced_codes(cs, batch) -> np.ndarray:
    """Which profiles of a stacked batch (n, 2, S) play every forced code."""
    forced = eng.forced_codes(cs)
    return ((forced < 0) | (batch == forced)).all(axis=(1, 2))


@pytest.mark.parametrize("budget", [None, 3000])
def test_the_first_pass_hands_the_kernel_each_chunk_as_its_pure_batch_columns(monkeypatch, budget):
    # every block the first pass scores is the column block of consecutive
    # profiles that play every forced code, in index order, as many per
    # block as fit the budget (the last may hold fewer), C-ordered like every
    # batch the engine holds; together the blocks cover each such profile
    # once, and the second pass sees exactly those the blocks keep
    pure_misfits, floor_screen = eng.pure_misfits, equilibrium._floor_screen
    for (_, pinned), s in first_pass_draws(35).items():
        cs = eng.compile_scenario(s)
        batch = np.stack([eng.flatten_profile(cs, p) for p in pure_profiles_in_index_order(s)])
        consistent = playing_forced_codes(cs, batch)
        assert consistent.all() != pinned
        fit = max(1, (budget or equilibrium._CHUNK_BYTES) // moments_bytes(cs, 1))
        blocks, screened = [], []

        def spy_misfits(cs, sigma, eps):
            blocks.append(sigma.copy(order="K"))  # memory layout included
            return pure_misfits(cs, sigma, eps)

        def spy_screen(cs, sigma):
            screened.append(sigma.T.copy())  # back to stacked rows
            return floor_screen(cs, sigma)

        monkeypatch.setattr(eng, "pure_misfits", spy_misfits)
        monkeypatch.setattr(equilibrium, "_floor_screen", spy_screen)
        if budget is not None:
            monkeypatch.setattr(equilibrium, "_CHUNK_BYTES", budget)
        enumerate_pure_equilibria(s)
        monkeypatch.undo()
        scored = batch[consistent]  # the profiles the blocks cover
        assert [b.shape[1] for b in blocks[:-1]] == [fit] * (len(blocks) - 1)
        assert 0 < blocks[-1].shape[1] <= fit
        keep = np.zeros(len(batch), dtype=bool)
        at = np.flatnonzero(consistent)  # index of each scored profile in batch
        for k, sigma in enumerate(blocks):
            want = as_columns(scored[k * fit : (k + 1) * fit])
            assert sigma.flags.c_contiguous and sigma.dtype == want.dtype
            assert sigma.tobytes(order="A") == want.tobytes(order="A")
            keep[at[k * fit : (k + 1) * fit]] = ~pure_misfits(cs, want, cs.rungs[-1])
        assert sum(b.shape[1] for b in blocks) == len(scored)
        seen = np.concatenate(screened) if screened else batch[:0]
        assert seen.tobytes() == batch[keep].tobytes()


def test_the_first_pass_keeps_what_a_pass_over_every_profile_keeps(monkeypatch):
    # the kept set is that of a first pass that scores all 2^n_slots
    # profiles itself and drops those that play against a forced code,
    # every one of which fails the exact floor screen
    floor_screen = equilibrium._floor_screen
    dropped = 0
    for s in first_pass_draws(36).values():
        cs = eng.compile_scenario(s)
        batch = np.stack([eng.flatten_profile(cs, p) for p in pure_profiles_in_index_order(s)])
        every = eng.pure_misfits(cs, as_columns(batch), cs.rungs[-1])
        consistent = playing_forced_codes(cs, batch)
        pinned_out = batch[~every & ~consistent]
        if len(pinned_out):
            assert not floor_screen(cs, as_columns(pinned_out)).any()
        dropped += len(pinned_out)
        screened = []

        def spy_screen(cs, sigma):
            screened.append(sigma.T.copy())  # back to stacked rows
            return floor_screen(cs, sigma)

        monkeypatch.setattr(equilibrium, "_floor_screen", spy_screen)
        enumerate_pure_equilibria(s)
        monkeypatch.undo()
        seen = np.concatenate(screened) if screened else batch[:0]
        assert seen.tobytes() == batch[~every & consistent].tobytes()
    assert dropped


def test_returned_profiles_own_their_arrays():
    # a profile holding a view of an engine batch would keep the whole batch alive
    s = prop4()
    cs = eng.compile_scenario(s)
    batch = np.full((cs.active.size, 4), 0.25)  # a column block
    profiles = [eng.unflatten_profile(cs, batch[:, 2])]
    profiles += [p for p, _ in enumerate_pure_equilibria(s)]
    profiles.append(best_response_dynamics(s, StrategyProfile.matching(s)).profile)
    profiles += [p for p, _ in verified_equilibria(s, np.random.default_rng(0))]
    assert len(profiles) > 3
    for p in profiles:
        for sig in p.sigmas:
            assert sig.flags.owndata
            assert not np.shares_memory(sig, batch)

    sig = np.zeros((2, 3))
    profile = StrategyProfile((sig, sig))
    sig[:] = 1.0
    assert not np.shares_memory(profile.sigmas[0], profile.sigmas[1])
    assert all((p == 0.0).all() for p in profile.sigmas)


def test_enumeration_results_hold_no_screening_chunk():
    # a 12-cell scenario: 4096 pure profiles, screened in chunks whose
    # arrays must be freed once the call returns
    s = random_scenario(SearchConfig(n_covariates=2, n_types=2), np.random.default_rng(0))
    assert eng.compile_scenario(s).active.sum() == 12
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = enumerate_pure_equilibria(s)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert results
    assert held / len(results) < 64 << 10


def test_pandemic_taste_following_verdicts():
    s = pandemic(c=0.3)
    report = verify_eps_equilibrium(s, pandemic_profile(s), 0.01)
    assert report.passed
    assert report.welfare_loss == pytest.approx(0.05, abs=1e-12)
    s_cheap = pandemic(c=0.05)
    report2 = verify_eps_equilibrium(s_cheap, pandemic_profile(s_cheap), 0.01)
    assert report2.verdict == "not_equilibrium"
    # blind type, taste 0: acting is strictly better once c is tiny
    assert report2.witness.type_index == 1
    corner = certify_equilibrium(s_cheap, pandemic_corner_profile(s_cheap))
    assert corner.verdict == "equilibrium_limit"
    assert corner.welfare_loss == pytest.approx(0.0, abs=1e-15)


def test_report_delta_tables_included():
    s = example_3_1()
    report = verify_eps_equilibrium(s, matching_on_own_covariate(s), 0.01)
    assert len(report.delta_tables) == 2
    assert report.delta_tables[0].values[(1,)] == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_dynamics_batch_starts_are_independent():
    # criterion 06's ordered family; this draw mixes early, late and capped starts
    cfg = SearchConfig(
        gamma=0.3,
        t_only_outcome=True,
        simple_types=True,
        p_structure="complete_qt",
        metric="error_probability",
        param_scale=4.0,
        seed=11,
    )
    rng = np.random.default_rng(102)
    cs = eng.compile_scenario(random_scenario(cfg, rng))
    starts = np.concatenate([rng.random((15, 2, n)) for n in np.diff(cs.offsets)], axis=-1)
    out, converged, cycled, iters = _dynamics_batch(cs, starts, 400)
    assert len(set(iters.tolist())) > 2 and converged.any() and not converged.all()
    for b in range(15):
        one, conv1, cyc1, iters1 = _dynamics_batch(cs, starts[b : b + 1], 400)
        assert (conv1[0], cyc1[0], iters1[0]) == (converged[b], cycled[b], iters[b]), b
        assert np.allclose(out[b], one[0], rtol=0.0, atol=1e-12), b


def _feed_back_converged(cs, starts):
    """The converged rows of a 400-iteration batch, and the same rows run
    again for one iteration."""
    out, converged, _, _ = _dynamics_batch(cs, starts, 400)
    assert converged.any()
    return out[converged], _dynamics_batch(cs, out[converged], 1)


# every builtin scenario whose random starts converge (prop4's run to the
# cap); see below for example 4.1 at gamma > c
@pytest.mark.parametrize(
    "scenario",
    [
        example_1_1_confounder(),
        example_1_1_collider(),
        example_3_1(),
        example_4_1(0.3, 0.5),
        prop2_incomplete(),
        prop2_cycle(),
        prop5(),
        pandemic(),
    ],
    ids=[
        "example_1_1_confounder",
        "example_1_1_collider",
        "example_3_1",
        "example_4_1",
        "prop2_incomplete",
        "prop2_cycle",
        "prop5",
        "pandemic",
    ],
)
def test_dynamics_batch_converged_rows_are_rest_points(scenario):
    # a converged row, fed back in, converges on its first iteration and
    # comes back byte for byte
    cs = eng.compile_scenario(scenario)
    starts = np.random.default_rng(7).random((15,) + cs.active.shape)
    rows, (again, converged, _, iters) = _feed_back_converged(cs, starts)
    assert converged.all() and (iters == 1).all()
    assert again.tobytes() == rows.tobytes()


def _criterion_06_draw():
    """The draw of test_dynamics_batch_starts_are_independent."""
    cfg = SearchConfig(
        gamma=0.3,
        t_only_outcome=True,
        simple_types=True,
        p_structure="complete_qt",
        metric="error_probability",
        param_scale=4.0,
        seed=11,
    )
    return random_scenario(cfg, np.random.default_rng(102))


# A start can pass the sup-norm rule where the damped update has stopped
# moving but is not at rest, and the final snap then takes each strict cell
# to the best reply at the last state: on the criterion-06 draw, a mixed
# cell whose score sits just outside the tie band (-1.04e-9 against 1e-9)
# goes to a pure action; on example 4.1 at gamma > c, a taste-0 cell that
# crept up to the all-act corner goes to 0 because its score has just
# crossed zero, and the snapped profile is no equilibrium.
@pytest.mark.xfail(strict=True, reason="sup-norm rows need not be rest points")
@pytest.mark.parametrize(
    "scenario", [_criterion_06_draw(), example_4_1(0.6, 0.2)], ids=["criterion_06", "example_4_1"]
)
def test_sup_norm_converged_rows_are_rest_points(scenario):
    cs = eng.compile_scenario(scenario)
    starts = np.random.default_rng(7).random((15,) + cs.active.shape)
    rows, (again, converged, _, _) = _feed_back_converged(cs, starts)
    assert converged.all() and again.tobytes() == rows.tobytes()


def test_dynamics_stop_at_the_first_self_confirming_snap():
    # the best replies of example 3.1 settle on the first iteration, so the
    # profile snapped there confirms itself on the second
    s = example_3_1()
    cs = eng.compile_scenario(s)
    starts = np.random.default_rng(4).random((6,) + cs.active.shape)
    out, converged, _, iters = _dynamics_batch(cs, starts, 400)
    assert converged.all() and (iters == 2).all()
    assert np.isin(out[:, cs.active], (0.0, 1.0)).all()  # inactive cells hold


def test_capped_starts_test_their_snaps_on_a_doubling_schedule(monkeypatch):
    # every start runs to the cap here; each one's snap is tested 1, 2, 4,
    # ... iterations after its last failed test: at iterations 1, 3, 7, 15,
    # 31, 63, 127 and 255, eight rows on top of one row per iteration
    s = example_4_1(0.8, 0.7)
    cs = eng.compile_scenario(s)
    rows = []
    column_replies = eng.column_replies

    def counted(cs, cols):
        rows.append(cols.shape[1] // 2)  # the pair holds two columns per row
        return column_replies(cs, cols)

    monkeypatch.setattr(eng, "column_replies", counted)
    starts = np.random.default_rng(3).random((4,) + cs.active.shape)
    _, converged, _, iters = _dynamics_batch(cs, starts, 400)
    assert not converged.any() and (iters == 400).all()
    assert len(rows) == 401  # the iterations, then the final snap
    assert sum(rows) == 4 * (401 + 8)


def batch_first_dynamics(cs, stacked, max_iters):
    """A reference for ``_dynamics_batch``: the same damped update, rest-point
    test and final snap, run on stacked (batch, 2, S) rows through a local
    batch-first view of ``column_replies``.  Returns (state, converged, iters)."""

    def floored(rows):
        out = (1.0 - eng.BR_FLOOR) * rows
        np.add(out, eng.BR_FLOOR, out=out, where=rows < 0.5)
        return out

    def codes(rows):
        """The best-reply codes of floored stacked rows, (n, 2, S)."""
        return np.moveaxis(eng.column_replies(cs, kernel_columns(floored(rows)))[3], -1, 0)

    def snap(state, code):
        out = state.copy()
        np.copyto(out, code, where=code >= 0)
        return out

    state, n = stacked, len(stacked)
    steps = np.full(state.shape, equilibrium.DAMPING)
    prev = np.full(state.shape, -1, dtype=np.int8)
    done, iters = np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
    snapped = built = None
    due, wait = np.ones(n, dtype=int), np.full(n, 2)
    for it in range(max_iters):
        test = np.nonzero((due == it) & ~done)[0]
        rows = np.concatenate([state, snapped[test]]) if test.size else state
        code = codes(rows)
        code, test_code = code[:n], code[n:]
        target = snap(state, code)
        np.multiply(steps, 0.5, out=steps, where=(prev ^ code) == 1)
        np.copyto(prev, code, where=code >= 0)
        upd = state + steps * (target - state)
        np.copyto(upd, state, where=done[:, None, None])
        max_change = np.abs(upd - state).max(axis=(1, 2))
        if test.size:
            rest = (test_code == built[test]).all(axis=(1, 2))
            upd[test[rest]] = snapped[test[rest]]
            max_change[test[rest]] = 0.0
            due[test[~rest]] = it + wait[test[~rest]]
            wait[test[~rest]] *= 2
        state, snapped, built = upd, target, code
        iters[~done] = it + 1
        done |= max_change < eng.CONVERGENCE_TOL
        if done.all():
            break
    code = codes(state)
    return np.where(done[:, None, None], snap(state, code), state), done, iters


def test_column_dynamics_equal_the_batch_first_loop_byte_for_byte():
    # criterion 06's family (some batches run every start to the cap) and
    # the builtins: state, convergence and iteration counts agree exactly
    cases, all_capped = [], 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        cfg = SearchConfig(
            gamma=(0.3, 0.5, 0.7)[seed % 3], t_only_outcome=True, simple_types=True,
            p_structure="complete_qt", metric="error_probability",
            param_scale=(2.0, 4.0, 8.0)[seed % 3], seed=seed,
        )
        cs = eng.compile_scenario(random_scenario(cfg, rng))
        cases.append((cs, rng.random((15,) + cs.active.shape)))
    for s in (example_3_1(), example_4_1(0.8, 0.7), prop2_cycle(), prop4(), pandemic()):
        cs = eng.compile_scenario(s)
        cases.append((cs, np.random.default_rng(7).random((6,) + cs.active.shape)))
    for cs, starts in cases:
        state, converged, _, iters = _dynamics_batch(cs, starts, 400)
        want_state, want_converged, want_iters = batch_first_dynamics(cs, starts, 400)
        assert state.tobytes() == want_state.tobytes()
        assert converged.tolist() == want_converged.tolist()
        assert iters.tolist() == want_iters.tolist()
        all_capped += not converged.any()
    assert all_capped >= 3


def test_dynamics_hand_the_rule_c_ordered_pairs(monkeypatch):
    # every call, rest-point tests and the final snap included, and a single
    # start as well as a batch; and on the rung path, every verifier, the
    # enumeration screen and a witness's trembled profile hand the engine
    # C-ordered blocks and get C-ordered rung checks back, with no transpose
    pairs, checks, trembles = [], {}, []
    column_replies, check_rungs = eng.column_replies, eng.check_rungs
    apply_trembles = eng.apply_compiled_trembles

    def spy(cs, cols):
        pairs.append(cols)
        return column_replies(cs, cols)

    def spy_rungs(cs, trembled, eps):
        _, _, bad, replies = out = check_rungs(cs, trembled, eps)
        checks.setdefault(caller, []).append((trembled, bad, *replies))
        return out

    def spy_trembles(cs, sigma, table, eps):
        trembles.append(apply_trembles(cs, sigma, table, eps))
        return trembles[-1]

    monkeypatch.setattr(eng, "column_replies", spy)
    for s, n in ((example_3_1(), 6), (example_4_1(0.8, 0.7), 4), (pandemic(), 1)):
        cs = eng.compile_scenario(s)
        _dynamics_batch(cs, np.random.default_rng(3).random((n,) + cs.active.shape), 40)
    assert len(pairs) > 40 and len({p.shape[1] for p in pairs}) > 3
    monkeypatch.setattr(eng, "check_rungs", spy_rungs)
    monkeypatch.setattr(eng, "apply_compiled_trembles", spy_trembles)
    s = example_4_1(0.6, 0.5)
    corner = example_4_1_corner_profile(s)
    calls = {
        "verify_eps_equilibrium": lambda: verify_eps_equilibrium(s, corner, 0.01),
        "verify_limit": lambda: verify_limit(s, corner),
        "certify_equilibrium": lambda: certify_equilibrium(s, corner),
        "enumerate_pure_equilibria": lambda: enumerate_pure_equilibria(pandemic()),
    }
    for caller, call in calls.items():
        call()
    assert witness_incomplete_hetero().eps_profile is not None
    assert sorted(checks) == sorted(calls) and len(trembles) > len(calls)
    for cols in pairs:
        assert cols.dtype == np.float64 and cols.flags.c_contiguous and cols.shape[1] % 2 == 0
    for caller, arrays in checks.items():
        for trembled, *results in arrays:  # results: bad, delta, defined, scores, code
            assert trembled.flags.c_contiguous, caller
            assert all(a.flags.c_contiguous for a in results), caller  # no transposed views
            assert all(a.shape[-1] == trembled.shape[1] for a in results), caller
    for block in trembles:
        assert block.dtype == np.float64 and block.flags.c_contiguous


def test_eps_and_limit_checks_keep_their_undefined_cell_policies():
    # one pure profile with an undefined active cell and a violation
    s = example_1_1_confounder()
    prof = example_3_1_profile(s)
    undefined = (UndefinedCell(0, 0, (0,)),)
    # the eps check calls any undefined active cell decisive ...
    eps = verify_eps_equilibrium(s, prof, 0.01)
    assert (eps.verdict, eps.witness, eps.undefined_cells) == ("undefined_cells", None, undefined)
    # ... the limit check only when no played action violates the threshold
    lim = verify_limit(s, prof)
    assert (lim.verdict, lim.undefined_cells) == ("not_equilibrium", undefined)
    w = lim.witness
    assert (w.type_index, w.taste, w.cell, w.action, w.played) == (0, 0, (1,), 1, 1.0)
    assert w.score == pytest.approx(-0.5) and w.eps == lim.eps == eng.ladder_rungs()[-1]


def test_a_failing_ladder_is_diagnosed_from_its_deepest_failing_rung():
    # the witness is a bad cell of the deepest failing rung and carries that
    # rung's score, effect and play; the undefined cells are that rung's
    rng = np.random.default_rng(34)
    witnessed = undefined_seen = 0
    for _ in range(80):
        s, prof = random_small_scenario(rng)
        cs = eng.compile_scenario(s)
        for p in (prof, StrategyProfile(tuple(np.round(x) for x in prof.sigmas))):
            sigma = eng.flatten_profile(cs, p).reshape(-1, 1)
            for sched in (np.full((2, s.n_types), np.nan), np.ones((2, s.n_types))):
                report = verify_limit(cs, p, sched)
                if report.passed:
                    continue
                trembled = eng.apply_compiled_trembles(cs, sigma, sched, cs.rungs)
                ok, _, bad, replies = eng.check_rungs(cs, trembled, cs.rungs)
                r = np.nonzero(~ok)[0][-1]  # column r: rung r
                delta, defined, scores, _ = (a[..., r] for a in replies)
                bad, played = bad[..., r], trembled[:, r].reshape(scores.shape)
                assert report.eps == cs.rungs[r]
                want = {
                    (i, taste, cell)
                    for i in range(s.n_types)
                    for taste in (0, 1)
                    for flat, cell in enumerate(np.ndindex(*cs.c_cards[i]))
                    if cs.active[taste, cs.offsets[i] + flat] and not defined[cs.offsets[i] + flat]
                }
                got = {(u.type_index, u.taste, u.cell) for u in report.undefined_cells}
                assert got == want
                undefined_seen += bool(want)
                w = report.witness
                if not bad.any():
                    assert w is None
                    continue
                i = w.type_index
                k = cs.offsets[i] + (np.ravel_multi_index(w.cell, cs.c_cards[i]) if w.cell else 0)
                assert bad[w.taste, k]
                assert w.score == scores[w.taste, k]
                assert abs(w.score) == np.abs(scores)[bad].max()
                assert w.delta == delta[k]
                assert w.action == int(w.score < -cs.tie_tol)
                play = played[w.taste, k]
                assert w.played == (play if w.action == 1 else 1.0 - play)
                assert w.eps == report.eps
                witnessed += 1
    assert witnessed > 200 and undefined_seen > 25


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_eps_verdicts_and_witnesses_match_oracle(seed):
    rng = np.random.default_rng(seed)
    s, prof = random_small_scenario(rng)
    part = StrategyProfile(
        tuple(np.where(rng.random(x.shape) < 0.5, np.round(x), x) for x in prof.sigmas)
    )
    eps, tol = float(rng.uniform(0.01, 0.3)), tie_tolerance()
    for p in (prof, StrategyProfile(tuple(np.round(x) for x in prof.sigmas)), part):
        verdict, undefined, offenders, scores = oracles.brute_eps_check(s, p, eps, tol)
        if any(abs(abs(score) - tol) <= 1e-9 for score in scores):
            continue  # the engine's and the oracle's roundoff may split a tie here
        report = verify_eps_equilibrium(s, p, eps)
        assert report.verdict == verdict
        assert {(u.type_index, u.taste, u.cell) for u in report.undefined_cells} == undefined
        if verdict != "not_equilibrium":
            assert report.witness is None
            continue
        top = sorted((mag for mag, _ in offenders), reverse=True)
        if len(top) > 1 and top[0] - top[1] <= 1e-9:
            continue  # the worst violation is not unique
        w = report.witness
        assert (w.type_index, w.taste, w.cell, w.action) == max(offenders)[1]


@pytest.mark.parametrize(
    "build, make_profile, expected",
    [
        (prop4, StrategyProfile.matching, (0, 0, (0,), 0)),
        (prop5, StrategyProfile.matching, (1, 0, (0,), 0)),
        (pandemic, StrategyProfile.matching, (0, 0, (0,), 0)),
        (example_1_1_collider, matching_on_own_covariate, (0, 0, (1,), 1)),  # across types
    ],
)
def test_tied_worst_violations_go_to_the_first_in_type_taste_cell_order(
    build, make_profile, expected
):
    s = build()
    prof = make_profile(s)
    w = verify_limit(s, prof).witness
    # the oracle lists offenders in (type, taste, cell, action 1 before 0) order
    _, _, offenders, _ = oracles.brute_eps_check(s, prof, w.eps, 1e-9)
    worst = max(mag for mag, _ in offenders)
    tied = [key for mag, key in offenders if mag >= worst - 1e-9]
    assert len(tied) > 1 and tied[0] == expected
    assert (w.type_index, w.taste, w.cell, w.action) == expected
