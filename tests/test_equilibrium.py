import numpy as np
import pytest

from bci import _engine as eng
from bci.equilibrium import (
    EquilibriumError,
    _dynamics_batch,
    best_response_dynamics,
    certify_equilibrium,
    enumerate_pure_equilibria,
    verify_eps_equilibrium,
    verify_limit,
)
from bci.model import StrategyProfile, TrembleSchedule, TrembleSpec
from bci.scenarios import (
    example_3_1,
    example_4_1,
    example_4_1_corner_profile,
    example_4_1_interior_profile,
    matching_on_own_covariate,
    pandemic,
    pandemic_corner_profile,
    pandemic_profile,
    prop2_incomplete,
)
from bci.worstcase import SearchConfig, random_scenario, witness_incomplete


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
    assert result.status in ("max_iters", "cycle_detected")
    assert result.report is None


def test_enumerate_pure_finds_both_31_equilibria():
    s = example_3_1()
    found = enumerate_pure_equilibria(s)
    losses = sorted(round(rep.welfare_loss, 9) for _, rep in found)
    assert losses == [0.0, 0.4]
    for prof, rep in found:
        assert rep.verdict == "equilibrium_limit"
        assert prof.is_pure()


def test_enumerate_cap_guards_blowup():
    s = prop2_incomplete()
    with pytest.raises(EquilibriumError):
        enumerate_pure_equilibria(s, cap=2)


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
    flats = [rng.random((15, 2, ct.nc)) for ct in cs.types]
    out, converged, cycled, iters = _dynamics_batch(cs, flats, 0.5, 400, 1e-9)
    assert len(set(iters.tolist())) > 2 and converged.any() and not converged.all()
    for b in range(15):
        one, conv1, cyc1, iters1 = _dynamics_batch(cs, [f[b : b + 1] for f in flats], 0.5, 400, 1e-9)
        assert (conv1[0], cyc1[0], iters1[0]) == (converged[b], cycled[b], iters[b]), b
        for got, alone in zip(out, one):
            assert np.allclose(got[b], alone[0], rtol=0.0, atol=1e-12), b
