"""The vectorized kernel must agree with the object-level implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci import _engine as eng
from bci.causal import delta_table
from bci.model import Scenario, StrategyProfile, TrembleSchedule, TrembleSpec, apply_trembles
from bci.scenarios import example_3_1, prop2_cycle, prop4

from test_causal import random_small_scenario


def test_flatten_round_trip(rng):
    s, prof = random_small_scenario(rng, max_covariates=3)
    cs = eng.compile_scenario(s)
    flats = eng.flatten_profile(cs, prof)
    back = eng.unflatten_profile(cs, flats)
    for a, b in zip(back.sigmas, prof.sigmas):
        assert np.array_equal(a, b)


def test_profile_effects_match_delta_table(rng):
    for _ in range(20):
        s, prof = random_small_scenario(rng, max_covariates=2)
        cs = eng.compile_scenario(s)
        flats = eng.flatten_profile(cs, prof)
        per_type = eng.profile_effects(cs, flats)
        tables = delta_table(s, prof)
        for ct, (d, ok), tab in zip(cs.types, per_type, tables):
            flat_vals = tab.values.reshape(-1)
            flat_def = tab.defined.reshape(-1)
            # the engine folds the reachability mask into "defined"
            assert np.array_equal(ok, flat_def & ct.reachable)
            assert np.allclose(d[ok], flat_vals[ok], atol=1e-13)


def test_compiled_trembles_match_object_level(rng):
    s, prof = random_small_scenario(rng, max_covariates=2)
    sched = TrembleSchedule.of(
        {(0, 0): TrembleSpec(2.0, "flip"), (0, 1): TrembleSpec(1.0, 1)},
        default=TrembleSpec(1.5, "uniform"),
    )
    cs = eng.compile_scenario(s)
    compiled = eng.CompiledSchedule.from_schedule(cs, sched)
    for eps in (0.0, 0.01, 0.3, 1.0):
        slow = apply_trembles(prof, sched, eps)
        fast = eng.unflatten_profile(
            cs, eng.apply_compiled_trembles(eng.flatten_profile(cs, prof), compiled, np.float64(eps))
        )
        for a, b in zip(slow.sigmas, fast.sigmas):
            assert np.allclose(a, b, atol=1e-15)


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
    with pytest.raises(ValueError):
        eng.ladder_rungs(floor=0.5)  # floor above the start


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
    flats = eng.flatten_profile(cs, StrategyProfile.matching(s))
    sched = eng.taste_weighted_schedule(cs, flats)
    for exp in sched.exponents:
        assert exp.shape[-2:] == (2, 1) or exp.shape[-1] >= 1
        assert np.all((exp == 1.0) | (exp == 2.0))


def test_flip_floor_gives_full_support():
    flats = [np.array([[0.0, 1.0], [1.0, 0.0]])]
    floored = eng.flip_floor(flats)
    assert np.all(floored[0] > 0.0) and np.all(floored[0] < 1.0)
    assert np.allclose(np.abs(floored[0] - flats[0]).max(), eng.BR_FLOOR)


def test_compiled_activity_masks_zero_mass_rows():
    s = example_3_1()  # no mass at t = 1
    cs = eng.compile_scenario(s)
    for ct in cs.types:
        assert ct.reachable.all()  # every condition cell has covariate mass
        assert ct.active[0].all() and not ct.active[1].any()  # but only at t = 0
        assert np.allclose(ct.tcm.sum(), 1.0)


def test_batch_axis_broadcasts(rng):
    s = prop2_cycle()
    cs = eng.compile_scenario(s)
    profs = [
        StrategyProfile(tuple(rng.random(s.sigma_shape(i)) for i in range(s.n_types)))
        for _ in range(5)
    ]
    flats_batch = [
        np.stack([eng.flatten_profile(cs, p)[i] for p in profs]) for i in range(s.n_types)
    ]
    batch = eng.profile_effects(cs, flats_batch)
    for b, p in enumerate(profs):
        single = eng.profile_effects(cs, eng.flatten_profile(cs, p))
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
    cs = eng.compile_scenario(s)
    effects = eng.profile_effects(cs, eng.flatten_profile(cs, prof))
    for i, ((d, ok), tab) in enumerate(zip(effects, delta_table(s, prof))):
        ref = oracles.brute_delta(s, prof, i)
        for cell, expected in ref.items():
            flat = np.ravel_multi_index(cell, tab.defined.shape) if cell else 0
            assert bool(ok[flat]) == bool(tab.defined[cell]) == (expected is not None), (i, cell)
            if expected is not None:
                assert abs(float(d[flat]) - expected) <= 1e-12, (i, cell)
                assert abs(float(tab.values[cell]) - expected) <= 1e-12, (i, cell)
