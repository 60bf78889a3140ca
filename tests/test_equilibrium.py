import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci import _engine as eng, equilibrium
from bci.equilibrium import (
    ENUMERATION_CAP,
    EquilibriumError,
    UndefinedCell,
    _dynamics_batch,
    _try_list,
    best_response_dynamics,
    certify_equilibrium,
    enumerate_pure_equilibria,
    verify_eps_equilibrium,
    verify_limit,
)
from bci.causal import tie_tolerance
from bci.model import DataTypeSpec, Scenario, StrategyProfile, TrembleSchedule, TrembleSpec
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
    prop2_incomplete,
    prop4,
    prop5,
)
from bci.worstcase import SearchConfig, random_scenario, verified_equilibria, witness_incomplete

from test_causal import random_small_scenario


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
    assert report.schedule is not None and report.schedule.is_empty
    assert len(report.ladder_trace) == 17
    assert all(r.passed for r in report.ladder_trace)


def test_limit_certification_corner_needs_uneven_schedule():
    s = example_4_1(0.6, 0.5)
    corner = example_4_1_corner_profile(s)
    # the taste-0 pool must tremble harder (lower exponent) than the taste-1
    # pool for the a=0 observations to keep reading as taste-0 people, which
    # is what props the perceived effect above c; the opposite orientation fails
    good = TrembleSchedule.of({(0, 0): TrembleSpec(1.0, "flip"), (0, 1): TrembleSpec(2.0, "flip")})
    report = verify_limit(s, corner, good)
    assert report.verdict == "equilibrium_limit"
    assert report.welfare_loss == pytest.approx(0.5 * (1 - 0.6), abs=1e-12)
    flipped = TrembleSchedule.of({(0, 0): TrembleSpec(2.0, "flip"), (0, 1): TrembleSpec(1.0, "flip")})
    assert verify_limit(s, corner, flipped).verdict == "not_equilibrium"
    # the built-in certification search finds a working schedule on its own
    auto = certify_equilibrium(s, corner)
    assert auto.verdict == "equilibrium_limit"


def test_tail_rule_rejects_transient_passes():
    s = prop2_incomplete()
    prof = witness_incomplete().profile
    # a schedule that trembles far too hard at small eps ruins the tail
    bad = TrembleSchedule.of({(0, 0): TrembleSpec(0.05, "uniform"), (1, 0): TrembleSpec(0.05, "uniform")})
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
        for p in (rest, prof.rounded(), pure):
            stacked = eng.flatten_profile(cs, p)
            reports = [
                verify_limit(s, p, make(stacked).to_schedule(cs.offsets)) for make in _try_list(cs)
            ]
            passing = [r for r in reports if r.passed]
            passes = [np.array([r.passed for r in rep.ladder_trace]) for rep in reports]
            most = [int(ok.sum()) for ok in passes]
            suffix = [int(eng.tail_lengths(ok)) for ok in passes]
            expected = passing[0] if passing else reports[most.index(max(most))]
            got = certify_equilibrium(s, p)
            for f in fields:
                assert getattr(got, f) == getattr(expected, f), f
            picked["pass" if passing else "fail"] += 1
            picked["later"] += not passing and most.index(max(most)) > 0
            picked["not_longest_suffix"] += not passing and (
                most.index(max(most)) != suffix.index(max(suffix))
            )
    # the corpus reaches both outcomes, a fallback past the first schedule,
    # and fallbacks that a longest-passing-suffix rule would choose differently
    assert min(picked.values()) > 0, picked


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


def test_enumeration_returns_exactly_the_certified_pure_profiles():
    # the floor-rung screen must drop no profile that certification passes
    fields = (
        "verdict", "eps", "witness", "undefined_cells", "ladder_trace",
        "welfare_loss", "error_probability", "schedule", "sup_gap",
    )
    found = 0
    for s in enumeration_cases(9, 4, 8, seed=8):
        expected = [
            (p, r) for p in pure_profiles_in_index_order(s)
            if (r := certify_equilibrium(s, p)).passed
        ]
        got = enumerate_pure_equilibria(s)
        assert len(got) == len(expected)
        for (got_p, got_r), (want_p, want_r) in zip(got, expected):
            assert all(np.array_equal(a, b) for a, b in zip(got_p.sigmas, want_p.sigmas))
            for f in fields:
                assert getattr(got_r, f) == getattr(want_r, f), f
        found += len(got)
    assert found


@pytest.mark.parametrize("budget", [1, 3000])
def test_enumeration_does_not_depend_on_chunk_boundaries(monkeypatch, budget):
    # budget 1 screens one profile per chunk; 3000 bytes makes chunks of
    # 11 to 23 profiles, most scenarios ending in a short one
    def run(cases):
        return [
            [
                (tuple(sig.tobytes() for sig in p.sigmas), r.verdict, r.schedule, r.welfare_loss)
                for p, r in enumerate_pure_equilibria(s)
            ]
            for s in cases
        ]

    cases = enumeration_cases(5, 6, 8, seed=1)
    monkeypatch.setattr(equilibrium, "_CHUNK_BYTES", 1 << 40)
    whole = run(cases)
    monkeypatch.setattr(equilibrium, "_CHUNK_BYTES", budget)
    assert run(cases) == whole
    assert all(whole)


def test_returned_profiles_own_their_arrays():
    # a profile holding a view of an engine batch would keep the whole batch alive
    s = prop4()
    cs = eng.compile_scenario(s)
    batch = np.full((4,) + cs.active.shape, 0.25)
    profiles = [eng.unflatten_profile(cs, batch[2])]
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_eps_verdicts_and_witnesses_match_oracle(seed):
    rng = np.random.default_rng(seed)
    s, prof = random_small_scenario(rng)
    part = StrategyProfile(
        tuple(np.where(rng.random(x.shape) < 0.5, np.round(x), x) for x in prof.sigmas)
    )
    eps, tol = float(rng.uniform(0.01, 0.3)), tie_tolerance()
    for p in (prof, prof.rounded(), part):
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
