"""The vectorized kernel against brute-force references and written-out values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci import _engine as eng
from bci.causal import delta_table
from bci.model import ModelError, Scenario, StrategyProfile, TrembleSchedule, TrembleSpec
from bci.scenarios import example_3_1, prop2_cycle, prop4

from test_causal import random_small_scenario


def test_flatten_round_trip(rng):
    s, prof = random_small_scenario(rng, max_covariates=3)
    cs = eng.compile_scenario(s)
    stacked = eng.flatten_profile(cs, prof)
    assert stacked.shape == (2, cs.offsets[-1])
    back = eng.unflatten_profile(cs, stacked)
    for a, b in zip(back.sigmas, prof.sigmas):
        assert np.array_equal(a, b)


def assert_effects_match_oracle(s, prof):
    """Engine effects and beliefs, and the causal tables over them, against the oracle."""
    cs = eng.compile_scenario(s)
    stacked = eng.flatten_profile(cs, prof)
    effects = eng.profile_effects(cs, eng.split_cells(cs, stacked))
    belief, belief_ok = (eng.split_cells(cs, arr) for arr in eng.profile_beliefs(cs, stacked))
    for i, ((d, ok), tab) in enumerate(zip(effects, delta_table(s, prof))):
        for cell, expected in oracles.brute_delta(s, prof, i).items():
            flat = np.ravel_multi_index(cell, tab.defined.shape) if cell else 0
            assert bool(ok[flat]) == bool(tab.defined[cell]) == (expected is not None), (i, cell)
            if expected is not None:
                assert abs(float(d[flat]) - expected) <= 1e-12, (i, cell)
                assert float(tab.values[cell]) == float(d[flat]), (i, cell)
        for (cell, a), expected in oracles.brute_beliefs(s, prof, i).items():
            flat = np.ravel_multi_index(cell, tab.defined.shape) if cell else 0
            assert bool(belief_ok[i][a, flat]) == (expected is not None), (i, cell, a)
            if expected is not None:
                assert abs(float(belief[i][a, flat]) - expected) <= 1e-12, (i, cell, a)


def test_profile_effects_match_delta_table(rng):
    for _ in range(20):
        s, prof = random_small_scenario(rng, max_covariates=2)
        assert_effects_match_oracle(s, prof)


def test_compiled_trembles_match_object_level():
    # entries for three (type, taste) slices override the default, which
    # only type 1's taste 1 falls back to
    sched = TrembleSchedule.of(
        {
            (0, 0): TrembleSpec(2.0, "flip"),
            (0, 1): TrembleSpec(1.0, 1),
            (1, 0): TrembleSpec(1.0, 0),
        },
        default=TrembleSpec(1.0, "uniform"),
    )
    # type 0 owns stacked cells 0-2, type 1 cell 3
    compiled = eng.CompiledSchedule.from_schedule(sched, (0, 3, 4))
    stacked = np.array([[0.0, 1.0, 0.4, 1.0], [0.0, 1.0, 0.4, 0.2]])
    out = eng.apply_compiled_trembles(stacked, compiled, np.array([0.1, 1.0]))
    assert out.shape == (2, 2, 4)
    # eps = 0.1: flip at weight 0.01, toward 1, 0 and 1/2 at weight 0.1
    assert np.allclose(out[0][:, :3], [[0.01, 0.99, 0.406], [0.1, 1.0, 0.46]], atol=1e-15)
    assert np.allclose(out[0][:, 3:], [[0.9], [0.23]], atol=1e-15)
    # eps = 1: every slice lands on its target
    assert np.array_equal(out[1][:, :3], [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(out[1][:, 3:], [[0.0], [0.5]])


def test_rung_ladder_geometry():
    rungs = eng.ladder_rungs()
    assert rungs[0] == pytest.approx(0.1)
    assert len(rungs) == 17
    assert all(a / b == pytest.approx(2.0) for a, b in zip(rungs, rungs[1:]))
    # the ladder stops at the last rung still >= the floor
    assert rungs[-1] >= 1e-6 > rungs[-1] * 0.5


def test_ladder_floor_env_override(monkeypatch):
    monkeypatch.setenv("BCI_LADDER_FLOOR", "1e-3")
    rungs = eng.ladder_rungs()
    assert rungs[-1] >= 1e-3 > rungs[-1] * 0.5
    assert len(rungs) == 7
    for bad in ("0", "-1e-3", "0.5", "abc"):  # 0.5 lies above the first rung
        monkeypatch.setenv("BCI_LADDER_FLOOR", bad)
        with pytest.raises(ModelError, match="BCI_LADDER_FLOOR"):
            eng.ladder_rungs()


def test_tail_lengths_counts_passing_suffix_on_rung_axis():
    passes = np.array(
        [
            [True, True, False, False],
            [True, False, False, True],
            [True, True, False, True],
        ]
    )
    assert eng.tail_lengths(passes).tolist() == [3, 1, 0, 2]


def test_taste_weighted_schedule_orients_exponents():
    s = prop4()
    cs = eng.compile_scenario(s)
    sched = eng.taste_weighted_schedule(cs, eng.flatten_profile(cs, StrategyProfile.matching(s)))
    assert sched.exponents.shape == (2, cs.offsets[-1])
    assert np.all((sched.exponents == 1.0) | (sched.exponents == 2.0))


def test_flip_floor_gives_full_support():
    stacked = np.array([[0.0, 1.0], [1.0, 0.0]])
    floored = eng.flip_floor(stacked)
    assert np.all(floored > 0.0) and np.all(floored < 1.0)
    assert np.allclose(np.abs(floored - stacked).max(), eng.BR_FLOOR)


def test_compiled_activity_masks_zero_mass_rows():
    s = example_3_1()  # no mass at t = 1
    cs = eng.compile_scenario(s)
    assert cs.reachable.all()  # every condition cell has covariate mass
    assert cs.active[0].all() and not cs.active[1].any()  # but only at t = 0
    for tcm in eng.split_cells(cs, cs.tcm):
        assert np.allclose(tcm.sum(), 1.0)


def test_batch_axis_broadcasts(rng):
    s = prop2_cycle()
    cs = eng.compile_scenario(s)
    profs = [
        StrategyProfile(tuple(rng.random(s.sigma_shape(i)) for i in range(s.n_types)))
        for _ in range(5)
    ]
    stacked = np.stack([eng.flatten_profile(cs, p) for p in profs])
    batch = eng.profile_effects(cs, eng.split_cells(cs, stacked))
    for b, p in enumerate(profs):
        single = eng.profile_effects(cs, eng.split_cells(cs, eng.flatten_profile(cs, p)))
        for (d_batch, ok_batch), (d_one, ok_one) in zip(batch, single):
            assert np.array_equal(ok_batch[b], ok_one)
            assert np.allclose(d_batch[b], d_one, atol=1e-15)


ONE_ULP_SHORT = -1.1102230246251565e-16  # sum(lam) - 1 one ulp below 1


def _lam_one_ulp_short(lam):
    """Nudge the last weight until the weights sum to one ulp below 1."""
    lam = [float(w) for w in lam]
    lam[-1] = (1.0 + ONE_ULP_SHORT) - sum(lam[:-1])
    for _ in range(8):
        gap = sum(lam) - 1.0
        if gap == ONE_ULP_SHORT:
            return tuple(lam)
        lam[-1] = float(np.nextafter(lam[-1], np.inf if gap < ONE_ULP_SHORT else -np.inf))
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_pure_profiles_under_inexact_weights_agree_with_oracle(seed):
    # With weights summing to 1 - 1.1e-16, an exactly pure profile must still
    # leave exactly zero mass on the action nobody plays.
    rng = np.random.default_rng(seed)
    s, _ = random_small_scenario(rng)
    lam = _lam_one_ulp_short(s.lam)
    if lam is None:
        return
    s = Scenario(s.x_names, s.x_cards, s.ptx, s.kernel, s.types, lam, s.c)
    assert sum(s.lam) - 1.0 == ONE_ULP_SHORT
    prof = StrategyProfile(
        tuple(rng.integers(0, 2, s.sigma_shape(i)).astype(float) for i in range(s.n_types))
    )
    assert_effects_match_oracle(s, prof)
