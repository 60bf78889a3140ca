import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci import _engine as eng
from bci.causal import (
    best_reply_at,
    best_reply_set,
    delta,
    delta_table,
    score_from_delta,
    tie_tolerance,
)
from bci.model import DataTypeSpec, ModelError, Scenario, StrategyProfile
from bci.scenarios import (
    as_consequential,
    example_1_1_collider,
    example_1_1_confounder,
    example_3_1,
    example_3_1_profile,
    example_4_1,
    matching_on_own_covariate,
    pandemic,
    prop2_cycle,
    prop2_incomplete,
    prop4,
    prop5,
)
from bci.worstcase import SearchConfig, WorstCaseError, random_scenario


def compare_with_oracle(scenario, profile, atol=1e-12):
    tables = delta_table(scenario, profile)
    for i, tab in enumerate(tables):
        ref = oracles.brute_delta(scenario, profile, i)
        for cell, expected in ref.items():
            if expected is None:
                assert not tab.defined[cell], (i, cell)
            else:
                assert tab.defined[cell], (i, cell)
                assert abs(float(tab.values[cell]) - expected) <= atol, (i, cell)


def test_golden_two_covariate_overlap():
    s = example_3_1()  # beta=0.8, q=0.8
    prof = matching_on_own_covariate(s)
    tab = delta_table(s, prof)[0]
    assert abs(float(tab.values[(1,)]) - 8.0 / 9.0) <= 1e-12
    assert float(tab.values[(0,)]) == 0.0
    compare_with_oracle(s, prof)
    # the exact-rational route agrees too
    assert abs(float(tab.values[(1,)]) - float(oracles.frac_delta_example_3_1(0.8, 0.8))) <= 1e-15


def test_confounder_inflates_blind_type():
    s = example_1_1_confounder()
    prof = example_3_1_profile(s)  # seeing type tracks x, blind type sits out
    compare_with_oracle(s, prof)
    tabs = delta_table(s, prof)
    # conditioning on the confounder reads the null effect correctly
    assert np.allclose(tabs[0].values[tabs[0].defined], 0.0, atol=1e-12)


def test_collider_conditioning_creates_bias():
    s = example_1_1_collider()
    prof = example_3_1_profile(s)
    compare_with_oracle(s, prof)
    tab2 = delta_table(s, prof)[1]  # conditions on the collider x2
    assert np.any(np.abs(tab2.values[tab2.defined]) > 0.5)


def test_do_belief_marginalizes_taste_out():
    # two types with opposite taste-dependent play; belief must not condition on t
    ptx = np.array([[0.25, 0.25], [0.25, 0.25]])
    kernel = np.array([[0.2, 0.7], [0.2, 0.7]])
    types = (DataTypeSpec(("x1",), ("x1",)),)
    s = Scenario(("x1",), (2,), ptx, kernel, types, (1.0,), 0.5)
    prof = StrategyProfile((np.array([[0.3, 0.6], [0.9, 0.1]]),))
    joint = oracles.full_joint(s, prof)
    cs = eng.compile_scenario(s)
    column = eng.flatten_profile(cs, prof).reshape(-1, 1)
    cols = np.concatenate([1.0 - column, column], axis=1)  # the kernel's [1 - sigma | sigma]
    belief, defined = (arr.T for arr in eng._beliefs(cs, cols)[1:])  # (action, x1)
    assert defined.all()
    for xv in (0, 1):
        for a in (0, 1):
            num = sum(p for k, p in joint.items() if k[1] == xv and k[2] == a and k[3] == 1)
            den = sum(p for k, p in joint.items() if k[1] == xv and k[2] == a)
            want = num / den
            assert abs(float(belief[a, xv]) - want) <= 1e-12


def test_undefined_when_conditioning_cell_unreached():
    s = example_3_1()
    prof = StrategyProfile.constant(s, 0.0)  # nobody acts: p(a=1, x_D) = 0
    tabs = delta_table(s, prof)
    assert not tabs[0].defined.any()
    assert delta(s, prof, 0, (1,)) is None
    assert best_reply_at(s, prof, 0, 0, (1,)) is None
    # reachable mask still marks the cells as visited
    assert tabs[0].reachable.all()


def test_nonsimple_type_averages_over_unconditioned_data():
    # C = {}, D = {x1}: belief is a p(x1)-weighted average of per-x1 rates
    ptx = np.array([[0.18, 0.42], [0.12, 0.28]])
    kernel = np.array([[0.25, 0.75], [0.25, 0.75]])
    types = (DataTypeSpec((), ("x1",)), DataTypeSpec(("x1",), ("x1",)))
    s = Scenario(("x1",), (2,), ptx, kernel, types, (0.5, 0.5), 0.4)
    prof = StrategyProfile((np.array([0.5, 0.5]), np.array([[0.2, 0.9], [0.2, 0.9]])))
    compare_with_oracle(s, prof)


def test_score_and_best_reply_thresholds():
    s = example_3_1(c=0.5)
    assert score_from_delta(s, 0.6, 0) == pytest.approx(0.1)
    assert score_from_delta(s, 0.6, 1) == pytest.approx(1.1)
    assert best_reply_set(s, 0.6, 0) == frozenset((1,))
    assert best_reply_set(s, 0.4, 0) == frozenset((0,))
    assert best_reply_set(s, 0.5, 0) == frozenset((0, 1))  # exact tie
    with pytest.raises(ModelError):
        best_reply_set(s, 0.5, 2)


def test_scalar_scores_equal_the_engine_scores(rng):
    # best_reply_set must split ties exactly where the verdicts do
    for _ in range(40):
        base, prof = random_small_scenario(rng)
        s = Scenario(
            base.x_names, base.x_cards, base.ptx, base.kernel, base.types, base.lam, base.c,
            outcome_kind="consequential", beta=float(rng.uniform(0.05, 0.95)),
        )
        cs = eng.compile_scenario(s)
        _, _, scores, _ = eng.best_replies(cs, eng.flatten_profile(cs, prof))
        for i, tab in enumerate(delta_table(s, prof)):
            for cell in np.ndindex(tab.defined.shape):
                if not tab.defined[cell]:
                    continue
                at = cs.offsets[i] + (np.ravel_multi_index(cell, tab.defined.shape) if cell else 0)
                for taste in (0, 1):
                    assert score_from_delta(s, float(tab.values[cell]), taste) == scores[taste, at]


def test_tie_tolerance_env_override(monkeypatch):
    assert tie_tolerance() == 1e-9
    monkeypatch.setenv("BCI_TIE_TOL", "1e-3")
    assert tie_tolerance() == 1e-3
    monkeypatch.setenv("BCI_TIE_TOL", "1e-4")
    assert tie_tolerance() == 1e-4
    s = example_3_1(c=0.5)
    # 0.50005 is a tie only under the loosened env tolerance
    assert best_reply_set(s, 0.50005, 0) == frozenset((0, 1))
    monkeypatch.delenv("BCI_TIE_TOL")
    assert best_reply_set(s, 0.50005, 0) == frozenset((1,))
    # zero is a valid band; negative, non-finite and unparsable ones are not
    monkeypatch.setenv("BCI_TIE_TOL", "0")
    assert tie_tolerance() == 0.0
    for bad in ("-0.5", "-1e-3", "nan", "inf", "abc"):
        monkeypatch.setenv("BCI_TIE_TOL", bad)
        with pytest.raises(ModelError, match="BCI_TIE_TOL"):
            tie_tolerance()


def random_small_scenario(rng, max_covariates=2, allow_nonsimple=True):
    K = int(rng.integers(1, max_covariates + 1))
    names = tuple(f"x{k+1}" for k in range(K))
    cards = tuple(int(rng.integers(2, 4)) for _ in range(K))
    shape = (2,) + cards
    ptx = rng.random(shape) ** 2
    # sprinkle structural zeros so undefined cells actually occur
    ptx[rng.random(shape) < 0.25] = 0.0
    if ptx.sum() == 0.0:
        ptx[0] = 1.0
    ptx = ptx / ptx.sum()
    kernel = rng.random(shape)
    n_types = int(rng.integers(1, 4))
    types = []
    for _ in range(n_types):
        d = tuple(n for n in names if rng.random() < 0.6)
        if allow_nonsimple:
            c = tuple(n for n in d if rng.random() < 0.7)
        else:
            c = d
        types.append(DataTypeSpec(c, d))
    lam = rng.dirichlet(np.ones(n_types))
    s = Scenario(names, cards, ptx, kernel, tuple(types), tuple(lam), float(rng.uniform(0.05, 0.95)))
    prof = StrategyProfile(tuple(rng.random(s.sigma_shape(i)) for i in range(n_types)))
    return s, prof


def test_oracle_agreement_randomized(rng):
    for _ in range(40):
        s, prof = random_small_scenario(rng)
        compare_with_oracle(s, prof)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    s, prof = random_small_scenario(rng)
    compare_with_oracle(s, prof)


# -- a compiled scenario in place of the scenario --------------------------------


def compiled_path_cases():
    """The builtins and 20 ``random_scenario`` draws, every third draw made
    consequential, each with its taste-matching profile, a random mixed
    profile and a random pure one."""
    rng = np.random.default_rng(18)
    scenarios = [
        example_1_1_confounder(), example_1_1_collider(), example_3_1(), example_4_1(),
        prop2_incomplete(), prop2_cycle(), prop4(), prop5(), pandemic(),
    ]
    draws = []
    while len(draws) < 20:
        try:
            cfg = SearchConfig(
                p_structure=("complete_qt", "free")[len(draws) % 2],
                n_covariates=int(rng.integers(1, 3)),
                n_types=int(rng.integers(1, 4)),
            )
            s = random_scenario(cfg, rng)
        except WorstCaseError:  # the draw asks for more distinct types than fit
            continue
        draws.append(as_consequential(s, float(rng.uniform(0.1, 0.9))) if len(draws) % 3 == 2 else s)
    cases = []
    for s in scenarios + draws:
        shapes = [s.sigma_shape(i) for i in range(s.n_types)]
        mixed = StrategyProfile(tuple(rng.random(shape) for shape in shapes))
        pure = StrategyProfile(tuple(np.floor(2 * rng.random(shape)) for shape in shapes))
        cases.append((s, (StrategyProfile.matching(s), mixed, pure)))
    return cases


def assert_same(got, want, where=()):
    """``got`` equals ``want`` in every field, recursively; arrays must have
    the same dtype and equal entries, nan equal to nan."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), where + (f.name,))
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), where
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, where + (k,))
    else:
        assert got == want or (got != got and want != want), where


def test_compiled_scenario_gives_the_same_delta_tables():
    undefined = 0
    for s, profiles in compiled_path_cases():
        cs = eng.compile_scenario(s)
        for p in profiles:
            assert_same(delta_table(cs, p), delta_table(s, p))
            for i in range(s.n_types):
                assert_same(delta_table(cs, p, i), delta_table(s, p, i))
                for cell in np.ndindex(s.sigma_shape(i)[1:]):
                    got = delta(cs, p, i, cell)
                    assert got == delta(s, p, i, cell)
                    undefined += got is None
    assert undefined  # the corpus reaches undefined cells
    with pytest.raises(ModelError):
        delta_table(cs, profiles[0], s.n_types)
