"""The vectorized kernel against brute-force references and written-out values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci import _engine as eng
from bci.causal import delta_table
from bci.model import (
    DataTypeSpec,
    ModelError,
    Scenario,
    StrategyProfile,
    TrembleSchedule,
    apply_trembles,
)
from bci.equilibrium import _try_list
from bci.scenarios import as_consequential, example_3_1, prop2_cycle, prop4
from bci.worstcase import SearchConfig, WorstCaseError, random_scenario

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
    # the belief kernel takes profiles as columns, [1 - sigma | sigma], and
    # returns (cell, action) arrays
    kernel = eng._beliefs(cs, kernel_columns(stacked[None]))[1:]
    belief, belief_ok = (eng.split_cells(cs, arr.T) for arr in kernel)
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
    # type 0 owns stacked cells 0-2, type 1 cell 3
    offsets = (0, 3, 4)
    stacked = np.array([[0.0, 1.0, 0.4, 1.0], [0.0, 1.0, 0.4, 0.2]])
    prof = StrategyProfile((stacked[:, :3], stacked[:, 3:]))
    # entries for three (type, taste) slices override the default, which
    # only type 1's taste 1 falls back to
    sched = TrembleSchedule.of({(0, 0): 2.0, (0, 1): 1.0, (1, 0): 3.0}, default=0.5)
    exponents = eng.cell_exponents(sched.exponents(2), offsets)
    out = eng.apply_compiled_trembles(stacked, exponents, np.array([0.01, 1.0]))
    assert out.shape == (2, 2, 4)
    assert np.array_equal(out[0], np.concatenate(apply_trembles(prof, sched, 0.01).sigmas, axis=-1))
    # eps = 0.01: each slice mixes in eps**exponent of its opposite action
    want = [[1e-4, 1.0 - 1e-4, 0.40006, 1.0 - 1e-6], [0.01, 0.99, 0.406, 0.28]]
    assert np.allclose(out[0], want, atol=1e-15)
    # eps = 1: every slice lands on the opposite pure action
    assert np.array_equal(out[1], [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
    # slices without a rule (NaN) are bit-unchanged, and the rules read back
    partial = TrembleSchedule.of({(0, 0): 2.0, (1, 1): 1.0})
    table = partial.exponents(2)
    exponents = eng.cell_exponents(table, offsets)
    still = np.isnan(exponents)
    assert still.tolist() == [[False] * 3 + [True], [True] * 3 + [False]]
    assert TrembleSchedule.from_exponents(table) == partial
    out = eng.apply_compiled_trembles(stacked, exponents, np.array([0.01, 1.0]))
    assert np.array_equal(out[:, still], np.tile(stacked[still], (2, 1)))
    assert np.array_equal(out[1][~still], 1.0 - stacked[~still].round())


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
    table = eng.taste_weighted_schedule(cs, eng.flatten_profile(cs, StrategyProfile.matching(s)))
    assert table.shape == (2, s.n_types)
    assert np.all((table == 1.0) | (table == 2.0))


def test_taste_weighted_majority_at_exactly_one_half_plays_action_one():
    # one type on one binary covariate, two active cells of equal mass in
    # each taste slice, and one of the two plays a = 1
    s = Scenario(
        ("x1",), (2,), np.full((2, 2), 0.25), np.full((2, 2), 0.5),
        (DataTypeSpec(("x1",), ("x1",)),), (1.0,), 0.5,
    )
    cs = eng.compile_scenario(s)
    half = eng.flatten_profile(cs, StrategyProfile((np.array([[1.0, 0.0], [1.0, 0.0]]),)))
    table = eng.taste_weighted_schedule(cs, half)
    # a share of 1/2 is a majority for a = 1: it matches taste 1 (second-order
    # noise there) and not taste 0
    assert table.tolist() == [[1.0], [2.0]]
    assert cs.total.tolist() == [[0.5], [0.5]]


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


def random_family_scenarios(rng, n):
    """``random_scenario`` draws of both dominance structures at parameter
    scales 1 to 8; every third one made consequential, so that the effect
    weight 1 - beta is below 1."""
    out = []
    while len(out) < n:
        try:
            cfg = SearchConfig(
                p_structure=("complete_qt", "free")[len(out) % 2],
                n_covariates=int(rng.integers(1, 4)),
                n_types=int(rng.integers(1, 4)),
                param_scale=float(rng.uniform(1, 8)),
            )
            s = random_scenario(cfg, rng)
        except WorstCaseError:  # the draw asks for more distinct types than fit
            continue
        out.append(as_consequential(s, float(rng.uniform(0.1, 0.9))) if len(out) % 3 == 2 else s)
    return out


def random_pure_batch(rng, cs, n):
    return rng.integers(0, 2, size=(n,) + cs.active.shape).astype(np.float64)


def kernel_columns(stacked):
    """The belief kernel's input for a stacked batch (n, 2, S): the column
    pair [1 - sigma | sigma], sigma's column j profile j's (taste, cell)
    strategy."""
    sigma = stacked.reshape(len(stacked), -1).T
    return np.concatenate([1.0 - sigma, sigma], axis=1)


def complements(cs, pure):
    """A stacked pure batch with every active cell flipped, the rest held."""
    return np.where(cs.active, 1.0 - pure, pure)


@pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.05, 0.2])
def test_score_margin_bounds_every_tremble_of_at_most_eps(eps):
    # the filter's soundness: a per-cell tremble m in [0, eps] moves the score
    # of every active cell whose effect the pure profile defines by at most
    # the margin
    rng = np.random.default_rng(17)
    checked = 0
    for s in random_family_scenarios(rng, 60):
        cs = eng.compile_scenario(s)
        pure = random_pure_batch(rng, cs, 256)
        m = rng.uniform(0.0, eps, size=pure.shape)
        pick = rng.random(pure.shape)
        m[pick < 0.3] = eps  # the largest tremble, exactly
        m[pick > 0.9] = 0.0
        trembled = (1.0 - m) * pure + m * (1.0 - pure)
        _, defined, before, _ = eng.best_replies(cs, pure)
        _, _, after, _ = eng.best_replies(cs, trembled)
        margin = eng._pure_scores(cs, kernel_columns(pure), eps)[1].T
        assert margin.shape == defined.shape
        on = cs.active & defined[:, None, :]
        bound = np.broadcast_to(margin[:, None, :], on.shape)
        assert (np.abs(after - before)[on] <= bound[on]).all()
        checked += int(on.sum())
    assert checked > 100_000


@pytest.mark.parametrize("floor", [None, "0.1", "1e-3"])
def test_every_try_list_schedule_trembles_pure_cells_by_at_most_the_floor(monkeypatch, floor):
    # the filter's premise: at the floor rung no schedule of the try-list
    # moves a cell of a pure profile by more than the floor, up to one ulp
    # of 1, the roundoff of 1 - (1 - m)
    if floor is not None:
        monkeypatch.setenv("BCI_LADDER_FLOOR", floor)
    rng = np.random.default_rng(5)
    for s in random_family_scenarios(rng, 12) + [example_3_1(), prop4()]:
        cs = eng.compile_scenario(s)
        pure = random_pure_batch(rng, cs, 64)
        eps = cs.rungs[-1:]
        for table in _try_list(cs, pure):
            exponents = eng.cell_exponents(table, cs.offsets)
            trembled = eng.apply_compiled_trembles(pure, exponents, eps)[0]
            assert (np.abs(trembled - pure) <= eps[0] + np.finfo(float).eps).all()


def test_filter_reads_the_best_reply_scores_bit_for_bit():
    # the misfit filter and the verdicts read one belief kernel: on every
    # active cell whose effect is defined the filter's score is the score
    # ``best_replies`` decides from, to the bit, and the two agree on which
    # effects are defined
    rng = np.random.default_rng(34)
    for s in random_family_scenarios(rng, 200):
        cs = eng.compile_scenario(s)
        pure = random_pure_batch(rng, cs, 64)
        scores, _, defined = eng._pure_scores(cs, kernel_columns(pure), cs.rungs[-1])
        # the profiles' scores, then their complements', which share the
        # profiles' definedness
        for got, batch in zip(np.split(scores, 2, axis=-1), (pure, complements(cs, pure))):
            _, want_defined, want, _ = eng.best_replies(cs, batch)
            assert np.array_equal(defined.T, want_defined)
            on = cs.active & want_defined[:, None, :]
            assert np.array_equal(got.transpose(2, 0, 1)[on], want[on])


def test_pure_misfits_flag_only_strict_misplays_beyond_the_margin():
    # example 3.1 has all its mass at t = 0; the taste-0 score is -c plus the
    # effect, so where a cell's effect is defined and far from c, playing
    # a = 1 there is a misfit at any small eps
    s = example_3_1()
    cs = eng.compile_scenario(s)
    pure = random_pure_batch(np.random.default_rng(2), cs, 256)
    pure[:, 1] = 1.0  # a = t on the inactive taste
    misfits = eng.pure_misfits(cs, kernel_columns(pure), 1e-6)
    margin = eng._pure_scores(cs, kernel_columns(pure), 1e-6)[1].T
    # row 0 flags the profiles, row 1 their complements
    for flagged, batch in zip(misfits, (pure, complements(cs, pure))):
        _, defined, scores, code = eng.best_replies(cs, batch)
        against = ((batch == 1) & (code == 0)) | ((batch == 0) & (code == 1))
        far = np.abs(scores) > margin[:, None, :] + cs.tie_tol + 1e-12
        assert flagged.tolist() == (against & far & cs.active & defined[:, None, :]).any(axis=(1, 2)).tolist()
        assert flagged.any() and not flagged.all()


def test_zero_taste_mass_cells_have_zero_mass_map_rows():
    # a complement's column pair differs from [sigma | 1 - sigma] only on
    # cells with no taste mass, which the kernel must weigh by exactly 0
    rng = np.random.default_rng(36)
    cases = random_family_scenarios(rng, 60) + [example_3_1(), prop4()]
    cases += [Scenario(("x",), (2,), ptx, np.full((2, 2), 0.5), (DataTypeSpec(("x",), ("x",)),), (1.0,), 0.5)
              for ptx in ([[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.3, 0.7]], [[0.4, 0.0], [0.6, 0.0]])]
    pinned = unreachable = 0
    for s in cases:
        cs = eng.compile_scenario(s)
        rows = cs.mass_map.reshape(cs.active.shape + (-1,))[~cs.active]
        assert (rows == 0).all()
        pinned += len(rows)
        unreachable += int((~cs.reachable).sum())
    assert pinned and unreachable
