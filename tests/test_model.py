import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci._engine import compile_scenario, flatten_profile, population_rates
from bci.model import (
    DataTypeSpec,
    JointTable,
    ModelError,
    Scenario,
    StrategyProfile,
    TrembleSchedule,
    apply_trembles,
    error_probability,
    induced_joint,
    scenario_violations,
    welfare_loss,
)
from bci.scenarios import as_consequential, example_3_1, example_4_1, pandemic, pandemic_profile


def tiny_scenario(c=0.5):
    """One binary covariate, two types (seeing / blind), gamma-free taste."""
    ptx = np.array([[0.3, 0.3], [0.2, 0.2]])
    kernel = np.array([[0.1, 0.9], [0.2, 0.8]])
    types = (DataTypeSpec(("x1",), ("x1",)), DataTypeSpec((), ()))
    return Scenario(("x1",), (2,), ptx, kernel, types, (0.6, 0.4), c)


# -- construction and validation -----------------------------------------------


def test_type_spec_rejects_bad_sets():
    with pytest.raises(ModelError):
        DataTypeSpec(("x1", "x1"), ("x1",))
    with pytest.raises(ModelError):
        DataTypeSpec(("x1",), ())  # conditions outside the data
    with pytest.raises(ModelError):
        DataTypeSpec(("t",), ("t",))  # reserved name
    assert DataTypeSpec(("x1",), ("x1", "x2")).simple is False
    assert DataTypeSpec(("x1",), ("x1",)).simple is True


@pytest.mark.parametrize(
    "mutate",
    [
        dict(c=0.0),
        dict(c=1.0),
        dict(lam=(0.5, 0.6)),
        dict(x_names=("x1", "x1"), x_cards=(2, 2)),
        dict(outcome_kind="mystery"),
        dict(outcome_kind="consequential", beta=0.0),
        dict(beta=0.1),  # beta without the consequential kind
    ],
)
def test_scenario_validation_rejects(mutate):
    base = dict(
        x_names=("x1",),
        x_cards=(2,),
        ptx=np.array([[0.3, 0.3], [0.2, 0.2]]),
        kernel=np.array([[0.1, 0.9], [0.2, 0.8]]),
        types=(DataTypeSpec(("x1",), ("x1",)),),
        lam=(1.0,),
        c=0.5,
    )
    base.update(mutate)
    if "lam" in mutate and len(mutate["lam"]) == 2:
        base["types"] = base["types"] * 2
    with pytest.raises(ModelError):
        Scenario(**base)


def test_scenario_rejects_unnormalized_ptx_and_bad_kernel():
    ok = tiny_scenario()
    with pytest.raises(ModelError):
        Scenario(ok.x_names, ok.x_cards, ok.ptx * 2, ok.kernel, ok.types, ok.lam, ok.c)
    with pytest.raises(ModelError):
        Scenario(ok.x_names, ok.x_cards, ok.ptx, ok.kernel + 1.0, ok.types, ok.lam, ok.c)


@pytest.mark.parametrize("field", ["ptx", "kernel", "lam"])
def test_scenario_rejects_nan_probabilities(field):
    # every comparison with nan is false, so a check written as "reject when
    # v < 0" would let a nan through
    ok = tiny_scenario()
    args = dict(ptx=ok.ptx.copy(), kernel=ok.kernel.copy(), lam=np.array(ok.lam))
    args[field].flat[0] = np.nan
    with pytest.raises(ModelError):
        Scenario(ok.x_names, ok.x_cards, args["ptx"], args["kernel"], ok.types, tuple(args["lam"]), ok.c)


def test_scenario_keeps_its_own_read_only_arrays():
    # a frozen scenario that shared the caller's arrays would change, and
    # fail its own validation, when the caller wrote to them
    ptx = np.array([[0.3, 0.3], [0.2, 0.2]])
    kernel = np.array([[0.1, 0.9], [0.2, 0.8]])
    s = Scenario(("x1",), (2,), ptx, kernel, (DataTypeSpec(("x1",), ("x1",)),), (1.0,), 0.5)
    ptx[...] = 5.0
    kernel[...] = 2.0
    assert s.ptx.sum() == pytest.approx(1.0) and s.kernel.max() == 0.9
    types = [(spec.condition_set, spec.data_set) for spec in s.types]
    assert scenario_violations(s.x_names, s.x_cards, s.ptx, s.kernel, types, s.lam, s.c,
                               s.outcome_kind, s.beta) == []
    for a in (s.ptx, s.kernel):
        with pytest.raises(ValueError):
            a[0, 0] = 0.5


def test_profile_shapes_checked():
    s = tiny_scenario()
    good = StrategyProfile.constant(s, 0.5)
    good.conforms(s)
    assert good.sigmas[0].shape == (2, 2)
    assert good.sigmas[1].shape == (2,)
    with pytest.raises(ModelError):
        StrategyProfile((np.zeros((2, 2)),)).conforms(s)  # missing a type
    with pytest.raises(ModelError):
        StrategyProfile((np.zeros((2, 3)), np.zeros(2))).conforms(s)
    with pytest.raises(ModelError):
        StrategyProfile((np.full((2, 2), 1.5), np.zeros(2))).conforms(s)


def test_profile_rejects_nan_entries():
    # every comparison with nan is false, so a range check written as "reject
    # when s < 0 or s > 1" let a NaN through, and verify reported NaN loss
    s = tiny_scenario()
    for i in range(s.n_types):
        sigmas = [np.zeros(s.sigma_shape(k)) for k in range(s.n_types)]
        sigmas[i].flat[-1] = np.nan
        with pytest.raises(ModelError, match=f"strategy {i} has entries not in"):
            StrategyProfile(tuple(sigmas))


def test_matching_profile_follows_taste():
    s = tiny_scenario()
    prof = StrategyProfile.matching(s)
    for sig in prof.sigmas:
        assert np.all(sig[0] == 0.0) and np.all(sig[1] == 1.0)
    assert prof.is_pure()
    assert error_probability(s, prof) == 0.0
    assert welfare_loss(s, prof) == 0.0


# -- induced behavior -----------------------------------------------------------


def test_aggregate_behavior_mixes_types_by_weight():
    s = tiny_scenario()
    prof = StrategyProfile((np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([1.0, 1.0])))
    agg = induced_joint(s, prof).marginalize(("t", "x1", "a")).probs[..., 1] / s.ptx
    # type 1 (weight .6) plays x1, type 2 (weight .4) always 1
    assert np.allclose(agg, [[0.4, 1.0], [0.4, 1.0]])


def test_error_probability_matches_brute_force():
    s = tiny_scenario()
    rng = np.random.default_rng(7)
    for _ in range(5):
        prof = StrategyProfile(tuple(rng.random(s.sigma_shape(i)) for i in range(2)))
        fast = error_probability(s, prof)
        slow = oracles.brute_error_probability(s, prof)
        assert abs(fast - slow) < 1e-12


def test_induced_joint_masses_and_names():
    s = tiny_scenario()
    jt = induced_joint(s, StrategyProfile.matching(s))
    assert jt.names == ("t", "x1", "a", "y")
    assert abs(float(jt.probs.sum()) - 1.0) < 1e-12
    # taste-matching makes a track t exactly
    assert jt.marginalize(["t", "a"]).probs[0, 1] == 0.0


def test_marginalize_against_hand_sums():
    probs = np.array([[0.1, 0.2, 0.3], [0.15, 0.05, 0.2]])
    jt = JointTable(("u", "v"), probs)
    mu = jt.marginalize(["u"])
    assert mu.names == ("u",)
    assert np.allclose(mu.probs, [0.6, 0.4])
    mv = jt.marginalize(["v"])
    assert np.allclose(mv.probs, [0.25, 0.25, 0.5])
    with pytest.raises(ModelError):
        jt.marginalize(["w"])


def test_marginalize_scalar_table():
    jt = JointTable((), np.array(1.0))
    assert jt.probs.shape == ()
    assert float(jt.marginalize([]).probs) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_marginalization_commutes(seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((2, 2, 3))
    jt = JointTable(("p", "q", "r"), raw / raw.sum())
    one_step = jt.marginalize(["p"])
    two_step = jt.marginalize(["p", "r"]).marginalize(["p"])
    assert np.allclose(one_step.probs, two_step.probs, atol=1e-12)


def test_welfare_loss_is_cost_times_error_in_baseline():
    s = tiny_scenario(c=0.37)
    rng = np.random.default_rng(21)
    for _ in range(5):
        prof = StrategyProfile(tuple(rng.random(s.sigma_shape(i)) for i in range(2)))
        assert np.isclose(welfare_loss(s, prof), 0.37 * error_probability(s, prof), atol=1e-12)


def test_taste_matching_is_exact_under_inexact_weights():
    # weights summing to 1 - 1.1e-16: the a=0 rate must be summed type by
    # type, or a = t leaves roundoff mass on the mismatched action
    base = tiny_scenario()
    types = base.types + (DataTypeSpec((), ("x1",)),)
    s = Scenario(base.x_names, base.x_cards, base.ptx, base.kernel, types,
                 (0.3, 0.3, 0.3999999999999999), base.c)
    assert sum(s.lam) - 1.0 < 0
    prof = StrategyProfile.matching(s)
    assert error_probability(s, prof) == 0.0
    assert welfare_loss(s, prof) == 0.0
    ta = induced_joint(s, prof).marginalize(["t", "a"]).probs
    assert ta[0, 1] == 0.0 and ta[1, 0] == 0.0


# -- report statistics on the stacked layout -------------------------------------


def reference_rate(s, prof, action):
    """Population rule p(a = action | t, x), shaped (2, *x_cards): each type's
    strategy broadcast onto the full (t, x) grid, then lam-weighted and summed
    in type order, skipping weight 0."""
    out = np.zeros((2,) + tuple(s.x_cards))
    for i, w in enumerate(s.lam):
        if w:
            keep = set(s.c_axes(i))
            shape = (2,) + tuple(card if k in keep else 1 for k, card in enumerate(s.x_cards))
            sig = prof.sigmas[i].reshape(shape)
            out += w * (sig if action == 1 else 1.0 - sig)
    return out


def reference_stats(s, prof):
    """(welfare loss, error probability) reduced from ``reference_rate``."""
    pa0, pa1 = (reference_rate(s, prof, a) for a in (0, 1))
    errp = float((s.ptx * np.stack([pa1[0], pa0[1]])).sum())
    beta, c = s.beta, s.c
    per_cell = np.stack(
        [pa1[0] * max(c - beta, 0.0) + pa0[0] * max(beta - c, 0.0), pa0[1] * (beta + c)]
    )
    return float((s.ptx * per_cell).sum()), errp


OUTCOMES = ("baseline", "beta_below_c", "beta_above_c")


def random_report_case(rng, outcome, pure):
    """A scenario of one to three covariates (cardinality 1 to 3, some zero
    masses) and one to three types, one of them at weight 0 now and then,
    under the given outcome convention, with a pure or a mixed profile."""
    K = int(rng.integers(1, 4))
    names = tuple(f"x{k + 1}" for k in range(K))
    cards = tuple(int(rng.integers(1, 4)) for _ in range(K))
    shape = (2,) + cards
    ptx = rng.random(shape) ** 2
    ptx[rng.random(shape) < 0.25] = 0.0
    if ptx.sum() == 0.0:
        ptx.flat[0] = 1.0
    ptx /= ptx.sum()
    types = []
    for _ in range(int(rng.integers(1, 4))):
        d = tuple(n for n in names if rng.random() < 0.6)
        types.append(DataTypeSpec(tuple(n for n in d if rng.random() < 0.7), d))
    lam = rng.dirichlet(np.ones(len(types)))
    if len(types) > 1 and rng.random() < 0.3:
        lam[0] = 0.0
        lam /= lam.sum()
    c = float(rng.uniform(0.05, 0.95))
    beta = {
        "baseline": 0.0,
        "beta_below_c": float(rng.uniform(0.01, c)),
        "beta_above_c": float(rng.uniform(c, 0.99)),
    }[outcome]
    kind = "baseline" if outcome == "baseline" else "consequential"
    s = Scenario(names, cards, ptx, rng.random(shape), tuple(types), tuple(lam), c, kind, beta)
    draw = (lambda sh: rng.integers(0, 2, sh).astype(float)) if pure else rng.random
    return s, StrategyProfile(tuple(draw(s.sigma_shape(i)) for i in range(s.n_types)))


def assert_report_stats(s, prof):
    """The statistics and the induced joint, given the scenario or its
    compiled form, are bit-equal to the reference formula, and the statistics
    agree with the raw-joint oracles."""
    loss, errp = reference_stats(s, prof)
    cs = compile_scenario(s)
    pa0, pa1 = population_rates(cs, flatten_profile(cs, prof))
    assert np.array_equal(pa0, reference_rate(s, prof, 0))
    assert np.array_equal(pa1, reference_rate(s, prof, 1))
    outcome = np.stack([1.0 - s.kernel, s.kernel], axis=-1)
    joint = s.ptx[..., None, None] * np.stack([pa0, pa1], -1)[..., None] * outcome[..., None, :]
    for source in (s, cs):
        assert welfare_loss(source, prof) == loss
        assert error_probability(source, prof) == errp
        assert np.array_equal(induced_joint(source, prof).probs, joint)
    assert loss == pytest.approx(oracles.brute_welfare_loss(s, prof), abs=1e-12)
    assert errp == pytest.approx(oracles.brute_error_probability(s, prof), abs=1e-12)


def test_report_stats_on_the_builtins():
    # pandemic has beta = 1/2 > c = 0.3; its consequential copy of example
    # 3.1 has beta < c
    for s, prof in [
        (pandemic(), pandemic_profile(pandemic())),
        (example_3_1(), StrategyProfile.matching(example_3_1())),
        (as_consequential(example_3_1(), 0.3), StrategyProfile.constant(example_3_1(), 0.4)),
        (example_4_1(0.3, 0.5), StrategyProfile.constant(example_4_1(0.3, 0.5), 0.7)),
    ]:
        assert_report_stats(s, prof)


def test_report_stats_on_random_scenarios():
    rng = np.random.default_rng(19)
    for k in range(120):
        assert_report_stats(*random_report_case(rng, OUTCOMES[k % 3], pure=k % 2 == 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(OUTCOMES), st.booleans())
def test_report_stats_property(seed, outcome, pure):
    assert_report_stats(*random_report_case(np.random.default_rng(seed), outcome, pure))


# -- trembles -------------------------------------------------------------------


def test_flip_tremble_rules():
    s = tiny_scenario()
    prof = StrategyProfile((np.array([[0.0, 1.0], [0.4, 0.6]]), np.array([0.0, 1.0])))
    # at eps = 0.25: 3/4 of the strategy plus 1/4 of the action it plays
    # with probability < 1/2
    flipped = ([[0.25, 0.75], [0.55, 0.45]], [0.25, 0.75])
    out = apply_trembles(prof, TrembleSchedule.uniform_flip(), 0.25)
    assert np.allclose(out.sigmas[0], flipped[0], atol=1e-15)
    assert np.allclose(out.sigmas[1], flipped[1], atol=1e-15)
    # an entry overrides the default for its (type, taste) slice only
    sched = TrembleSchedule.of({(1, 1): 2.0}, 1.0)
    out = apply_trembles(prof, sched, 0.25)
    assert np.allclose(out.sigmas[1], [0.25, 0.9375], atol=1e-15)
    assert np.allclose(out.sigmas[0], flipped[0], atol=1e-15)
    # eps = 1 lands exactly on the opposite pure action
    out = apply_trembles(prof, TrembleSchedule.uniform_flip(), 1.0)
    assert np.array_equal(out.sigmas[0], [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(out.sigmas[1], [1.0, 0.0])
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ModelError):
            TrembleSchedule.uniform_flip(bad)
        with pytest.raises(ModelError):
            TrembleSchedule.of({(0, 1): bad}, 1.0)


def test_apply_trembles_identity_cases():
    s = tiny_scenario()
    prof = StrategyProfile.matching(s)
    assert apply_trembles(prof, TrembleSchedule.none(), 0.5) is prof
    assert apply_trembles(prof, TrembleSchedule.uniform_flip(), 0.0) is prof


def test_apply_trembles_exponent_and_selectivity():
    s = tiny_scenario()
    prof = StrategyProfile.matching(s)
    sched = TrembleSchedule.of({(0, 0): 2.0})
    out = apply_trembles(prof, sched, 0.1)
    assert np.allclose(out.sigmas[0][0], 0.01)  # eps^2 toward the flip
    assert np.all(out.sigmas[0][1] == 1.0)  # no rule: untouched
    assert np.all(out.sigmas[1] == prof.sigmas[1])


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
def test_trembled_profile_stays_feasible(eps, seed):
    s = tiny_scenario()
    rng = np.random.default_rng(seed)
    prof = StrategyProfile(tuple(rng.random(s.sigma_shape(i)) for i in range(2)))
    out = apply_trembles(prof, TrembleSchedule.uniform_flip(1.5), eps)
    out.conforms(s)
    for sig in out.sigmas:
        assert np.all(sig >= 0.0) and np.all(sig <= 1.0)


# -- consequential conversion ----------------------------------------------------


def test_as_consequential_rescales_cost_and_tags_kind():
    s = example_3_1()
    conv = as_consequential(s, 0.25)
    assert conv.outcome_kind == "consequential"
    assert np.isclose(conv.c, 0.25 + 0.75 * 0.5)
    with pytest.raises(ModelError):
        as_consequential(conv, 0.5)  # double conversion
    with pytest.raises(ModelError):
        as_consequential(s, 0.0)


def test_as_consequential_leaves_beta_to_the_model():
    # beta = 1.5 also rescales c to 1.25; the model reports both at once
    with pytest.raises(ModelError) as info:
        as_consequential(example_3_1(), 1.5)
    assert "consequential beta must lie in (0, 1)" in str(info.value)
    assert "c must lie in (0, 1)" in str(info.value)


def test_scenario_reports_every_violation():
    ok = tiny_scenario()
    with pytest.raises(ModelError) as info:
        Scenario(("x1",), (2,), ok.ptx * 2, ok.kernel + 1.0, ok.types, (0.5, 0.6), 1.5)
    for message in (
        "p_tx must sum to 1 (got 2.0)",
        "kernel entries must lie in [0, 1]",
        "lambda not on simplex",
        "taste-mismatch cost c must lie in (0, 1)",
    ):
        assert message in str(info.value)
    with pytest.raises(ModelError, match=r"repeated names in C .*; C ⊄ D: .*; reserved names \['t'\]"):
        DataTypeSpec(("x1", "x1", "t"), ("x1",))


def test_consequential_loss_charges_beta_plus_c_for_waiting_at_taste_one():
    # pandemic: beta = 1/2 > c = 0.3, so the rational rule acts at both
    # tastes; every (t, x) cell here plays a = 0 with some probability
    s = pandemic()
    beta, c, lam = s.beta, s.c, s.lam
    seeing = np.array([[0.2, 0.7], [0.4, 0.1]])  # sigma(t, x)
    blind = np.array([0.3, 0.6])  # sigma(t)
    acts = lam[0] * seeing + lam[1] * blind[:, None]  # p(a = 1 | t, x)
    gap = np.array([[beta - c], [beta + c]])  # a = 0 at t = 0, at t = 1
    expected = float((s.ptx * (1.0 - acts) * gap).sum())
    assert (s.ptx[1] * (1.0 - acts[1])).sum() > 0.2  # real mass on (t = 1, a = 0)
    loss = welfare_loss(s, StrategyProfile((seeing, blind)))
    assert loss == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("beta", [0.1, 0.4, 0.7])
def test_conversion_scales_taste0_losses(beta):
    from bci.scenarios import example_4_1_interior_profile

    # profiles whose only mismatches sit at t = 0 lose exactly (1-beta) as much
    s41 = example_4_1(0.3, 0.5)
    for scenario, profile in [
        (example_3_1(), StrategyProfile((np.array([[0.0, 1.0], [0.0, 1.0]]),) * 2)),
        (s41, example_4_1_interior_profile(s41)),
    ]:
        conv = as_consequential(scenario, beta)
        base_loss = welfare_loss(scenario, profile)
        conv_loss = welfare_loss(conv, profile)
        assert base_loss > 0
        assert np.isclose(conv_loss, (1.0 - beta) * base_loss, atol=1e-12)
