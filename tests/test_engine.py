"""The vectorized kernel against brute-force references and written-out values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci import _engine as eng
from bci.causal import delta_table
from bci.model import DataTypeSpec, ModelError, Scenario, StrategyProfile
from bci.equilibrium import _reaches_floor, _try_list
from bci.scenarios import as_consequential, example_3_1, pandemic, prop2_cycle, prop4, prop5
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
    effects = zip(*(eng.split_cells(cs, a) for a in eng.profile_effects(cs, stacked)))
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


def three_and_one_cells():
    """A compiled scenario whose type 0 owns stacked cells 0-2 and type 1 cell 3."""
    types = (DataTypeSpec(("x1",), ("x1",)), DataTypeSpec((), ("x1",)))
    ptx, kernel = np.full((2, 3), 1 / 6), np.full((2, 3), 0.5)
    cs = eng.compile_scenario(Scenario(("x1",), (3,), ptx, kernel, types, (0.5, 0.5), 0.5))
    assert cs.offsets == (0, 3, 4)
    return cs


def test_compiled_trembles_match_object_level():
    # a schedule's (taste, type) exponents tremble each stacked cell by its
    # own slice's exponent
    cs = three_and_one_cells()
    stacked = np.array([[0.0, 1.0, 0.4, 1.0], [0.0, 1.0, 0.4, 0.2]])
    sigma = stacked.reshape(-1, 1)  # the profile as a column
    table = np.array([[2.0, 3.0], [1.0, 0.5]])  # rows tastes, columns types
    out = eng.apply_compiled_trembles(cs, sigma, table, np.array([0.01, 1.0]))
    assert out.shape == (8, 2) and out.flags.c_contiguous  # column r: rung r
    # eps = 0.01: each slice mixes in eps**exponent of its opposite action
    want = [[1e-4, 1.0 - 1e-4, 0.40006, 1.0 - 1e-6], [0.01, 0.99, 0.406, 0.28]]
    assert np.allclose(out[:, 0].reshape(2, 4), want, atol=1e-15)
    # eps = 1: every slice lands on the opposite pure action
    assert np.array_equal(out[:, 1].reshape(2, 4), [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
    # slices without an exponent (NaN) are bit-unchanged
    partial = np.array([[2.0, np.nan], [np.nan, 1.0]])
    still = np.array([[False] * 3 + [True], [True] * 3 + [False]]).reshape(-1)
    out = eng.apply_compiled_trembles(cs, sigma, partial, np.array([0.01, 1.0]))
    assert np.array_equal(out[still], np.tile(sigma[still], (1, 2)))
    assert np.array_equal(out[~still, 1], 1.0 - sigma[~still, 0].round())


def test_trembled_rungs_are_rung_major_columns_of_the_batch():
    # column r n + j is rung r of profile j, under profile j's own table
    cs = three_and_one_cells()
    rng = np.random.default_rng(8)
    sigma = rng.random((8, 4))
    tables = rng.uniform(0.5, 3.0, (2, 2, 4))
    tables[rng.random(tables.shape) < 0.3] = np.nan
    eps = np.array([0.2, 0.01, 1e-5])
    out = eng.apply_compiled_trembles(cs, sigma, tables, eps)
    assert out.shape == (8, 12) and out.flags.c_contiguous
    for r, e in enumerate(eps):
        for j in range(4):
            one = eng.apply_compiled_trembles(cs, sigma[:, j : j + 1], tables[..., j], e)
            assert out[:, r * 4 + j].tobytes() == one[:, 0].tobytes()


def test_schedule_table_checks_a_callers_table():
    cs = eng.compile_scenario(example_3_1())  # two types
    bad = (
        np.ones((2, 3)), np.ones((3, 2)), np.ones(2), np.ones((1, 2, 2)),  # shapes
        [[1.0, 0.0], [1.0, 1.0]], np.full((2, 2), -1.0),  # exponents
        [["1", "1"], ["1", "1"]], [[1.0, None], [1.0, 1.0]], "1",  # not numbers
    )
    for table in bad:
        with pytest.raises(ModelError):
            eng.schedule_table(cs, table)
    # NaN leaves a slice exact; an infinite exponent is a valid, if idle, one
    caller = [[np.nan, np.inf], [1, 2.5]]
    table = eng.schedule_table(cs, caller)
    assert table.dtype == np.float64 and not table.flags.writeable
    assert np.array_equal(table, [[np.nan, np.inf], [1.0, 2.5]], equal_nan=True)
    # no schedule is the all-NaN table
    none = eng.schedule_table(cs, None)
    assert none.shape == (2, 2) and np.isnan(none).all() and not none.flags.writeable
    # the checked table is a copy, never the caller's array
    mine = np.ones((2, 2))
    assert not np.shares_memory(eng.schedule_table(cs, mine), mine)


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
    # rungs run down axis 0; the suffixes pass 3, 1, 0 and 2 rungs, and only
    # the passing suffix counts: passes above a failing rung do not
    passes = np.array(
        [
            [True, True, False, False],
            [True, False, False, True],
            [True, True, False, True],
        ]
    )
    assert _reaches_floor(passes).tolist() == [True, False, False, False]
    # DEFAULT_TAIL_MIN - 2 more passing rungs bring suffixes of 3 and 2 to the floor
    passes = np.vstack([passes, np.ones((eng.DEFAULT_TAIL_MIN - 2, 4), dtype=bool)])
    assert _reaches_floor(passes).tolist() == [True, False, False, True]


def test_taste_weighted_schedule_orients_exponents():
    s = prop4()
    cs = eng.compile_scenario(s)
    sigma = eng.flatten_profile(cs, StrategyProfile.matching(s)).reshape(-1, 1)
    table = eng.taste_weighted_schedule(cs, sigma)
    assert table.shape == (2, s.n_types, 1)
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
    table = eng.taste_weighted_schedule(cs, half.reshape(-1, 1))[..., 0]
    # a share of 1/2 is a majority for a = 1: it matches taste 1 (second-order
    # noise there) and not taste 0
    assert table.tolist() == [[1.0], [2.0]]
    assert cs.total.tolist() == [[0.5], [0.5]]


def test_taste_weighted_shares_sum_each_slice_along_its_own_row():
    # the column block's tables are those of per-profile row sums, each
    # slice added along its own contiguous row: on equal-mass cell pairs, one
    # of each pair playing 1, a share sits at 1/2 up to roundoff, so a sum
    # down the block's cell axis, which rounds differently, moves majorities
    rng = np.random.default_rng(1)
    at_half = 0
    for _ in range(40):
        k = 2 * int(rng.integers(4, 20))
        ptx = np.tile(rng.random((2, k // 2)), 2)
        s = Scenario(("x",), (k,), ptx / ptx.sum(), np.full((2, k), 0.5),
                     (DataTypeSpec(("x",), ("x",)),), (1.0,), 0.5)
        cs = eng.compile_scenario(s)
        pick = rng.integers(0, 2, (64, 2, k // 2)).astype(float)
        stacked = np.concatenate([pick, 1.0 - pick], axis=-1)
        table = eng.taste_weighted_schedule(cs, as_columns(stacked))
        for j, row in enumerate(stacked):
            share = [(row[t] * cs.tcm[t]).sum() / cs.total[t, 0] for t in (0, 1)]
            want = [2.0 if (share[t] >= 0.5) == (t == 1) else 1.0 for t in (0, 1)]
            assert table[:, 0, j].tolist() == want
            at_half += share.count(0.5)
    assert at_half > 1000


def test_flip_floor_gives_full_support():
    # the floored copy comes as the kernel's C-ordered column pair [1 - f | f]
    stacked = np.array([[0.0, 1.0], [1.0, 0.0]])
    pair = eng.flip_floor(stacked.reshape(-1, 1))
    assert pair.shape == (4, 2) and pair.flags.c_contiguous
    floored = pair[:, 1].reshape(stacked.shape)
    assert pair[:, 0].tolist() == (1.0 - pair[:, 1]).tolist()
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
    # one profile's effects are its column of the batch's effects
    stacked = np.stack([eng.flatten_profile(cs, p) for p in profs])
    d_batch, ok_batch = eng.column_effects(cs, eng.column_pair(as_columns(stacked)))
    for b, p in enumerate(profs):
        d_one, ok_one = eng.profile_effects(cs, eng.flatten_profile(cs, p))
        assert np.array_equal(ok_batch[:, b], ok_one)
        assert np.allclose(d_batch[:, b], d_one, atol=1e-15)


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


def as_columns(stacked):
    """A stacked batch (n, 2, S) as the engine's C-ordered column block
    (2S, n), column j profile j's (taste, cell) strategy."""
    return np.ascontiguousarray(stacked.reshape(len(stacked), -1).T)


def kernel_columns(stacked, order="C"):
    """The belief kernel's input for a stacked batch (n, 2, S): the column
    pair [1 - sigma | sigma] of its ``as_columns`` block, in C (the engine's
    layout) or Fortran order."""
    sigma = as_columns(stacked)
    return np.asarray(np.concatenate([1.0 - sigma, sigma], axis=1), order=order)


def test_the_belief_kernel_gives_equal_bits_in_either_memory_order():
    # a C-ordered pair (the engine's layout) and a Fortran-ordered one give
    # the same moments, beliefs and definedness to the bit, on pure and
    # interior profiles, 1 to 512 at a time
    rng = np.random.default_rng(19)
    widths = set()
    for s in random_family_scenarios(rng, 40):
        cs = eng.compile_scenario(s)
        n = int(rng.choice([1, 2, 3, 15, 16, 17, 64, 200, 511, 512]))
        widths.add(n)
        pure = random_pure_batch(rng, cs, n)
        for batch in (pure, rng.random(pure.shape), np.where(rng.random(pure.shape) < 0.5, pure, 0.3)):
            c_pair, f_pair = kernel_columns(batch, "C"), kernel_columns(batch, "F")
            assert c_pair.flags.c_contiguous and f_pair.flags.f_contiguous
            for c, f in zip(eng._beliefs(cs, c_pair), eng._beliefs(cs, f_pair)):
                assert c.tobytes() == f.tobytes()
    assert {1, 512} <= widths


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
        _, defined, before, _ = eng.column_replies(cs, kernel_columns(pure))
        _, _, after, _ = eng.column_replies(cs, kernel_columns(trembled))
        margin = eng._pure_scores(cs, kernel_columns(pure), eps)[1]
        assert margin.shape == defined.shape
        on = cs.active[..., None] & defined
        bound = np.broadcast_to(margin, on.shape)
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
        pure = as_columns(random_pure_batch(rng, cs, 64))
        eps = cs.rungs[-1:]
        tables = _try_list(cs, pure)
        for k in range(tables.shape[2]):
            trembled = eng.apply_compiled_trembles(cs, pure, tables[:, :, k], eps)
            assert (np.abs(trembled - pure) <= eps[0] + np.finfo(float).eps).all()


def test_filter_reads_the_best_reply_scores_bit_for_bit():
    # the misfit filter and the verdicts read one belief kernel: on every
    # active cell whose effect is defined the filter's score is the score
    # ``column_replies`` decides from, to the bit, and the two agree on which
    # effects are defined
    rng = np.random.default_rng(34)
    for s in random_family_scenarios(rng, 200):
        cs = eng.compile_scenario(s)
        pure = random_pure_batch(rng, cs, 64)
        got, _, defined = eng._pure_scores(cs, kernel_columns(pure), cs.rungs[-1])
        _, want_defined, want, _ = eng.column_replies(cs, kernel_columns(pure))
        assert np.array_equal(defined, want_defined)
        on = cs.active[..., None] & want_defined
        assert np.array_equal(got[on], want[on])


def test_pure_misfits_flag_only_strict_misplays_beyond_the_margin():
    # example 3.1 has all its mass at t = 0; the taste-0 score is -c plus the
    # effect, so where a cell's effect is defined and far from c, playing
    # a = 1 there is a misfit at any small eps
    s = example_3_1()
    cs = eng.compile_scenario(s)
    pure = random_pure_batch(np.random.default_rng(2), cs, 256)
    pure[:, 1] = 1.0  # a = t on the inactive taste
    flagged = eng.pure_misfits(cs, as_columns(pure), 1e-6)
    margin = eng._pure_scores(cs, kernel_columns(pure), 1e-6)[1]
    _, defined, scores, code = eng.column_replies(cs, kernel_columns(pure))
    sigma = as_columns(pure).reshape(code.shape)
    against = ((sigma == 1) & (code == 0)) | ((sigma == 0) & (code == 1))
    far = np.abs(scores) > margin + cs.tie_tol + 1e-12
    assert flagged.shape == (len(pure),)
    assert flagged.tolist() == (against & far & cs.active[..., None] & defined).any(axis=(0, 1)).tolist()
    assert flagged.any() and not flagged.all()


def test_forced_codes_are_every_profiles_strict_best_reply():
    # an outcome rate averages the outcome ratios of the mass_map rows that
    # feed its data cell, so a forced cell's strict best reply is its forced
    # code under every profile that defines its effect: pure, mixed and
    # partly pure ones, exact and trembled at every rung under each schedule
    # of the try-list
    rng = np.random.default_rng(43)
    cases = [example_3_1(), pandemic(), prop2_cycle(), prop4(), prop5(), as_consequential(prop4(), 0.4)]
    cases += [random_small_scenario(rng)[0] for _ in range(30)] + random_family_scenarios(rng, 30)
    checked = free = 0
    for s in cases:
        cs = eng.compile_scenario(s)
        forced = eng.forced_codes(cs)
        assert forced.dtype == np.int8 and (forced[~cs.active] == -1).all()
        free += int((forced[cs.active] == -1).sum())
        pure = as_columns(random_pure_batch(rng, cs, 24))
        mixed = rng.random(pure.shape)
        for sigma in (pure, mixed, np.where(rng.random(pure.shape) < 0.5, pure, mixed)):
            tables = _try_list(cs, sigma)
            batches = [sigma] + [
                eng.apply_compiled_trembles(cs, sigma, tables[:, :, k], cs.rungs)
                for k in range(tables.shape[2])
            ]
            for cols in batches:
                _, defined, _, code = eng.column_replies(cs, eng.column_pair(cols))
                on = (forced >= 0)[..., None] & defined
                assert (code == forced[..., None])[on].all()
                checked += int(on.sum())
    assert checked > 100_000 and free


def test_zero_taste_mass_cells_have_zero_mass_map_rows():
    # what a cell with no taste mass plays moves no data moment: the kernel
    # weighs it by exactly 0, so enumeration can hold such a cell at a = t
    # and every belief is the one any other action there would give
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
