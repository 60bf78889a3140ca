import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci.model import (
    DataTypeSpec,
    JointTable,
    ModelError,
    Scenario,
    StrategyProfile,
    TrembleSchedule,
    TrembleSpec,
    action_rates,
    aggregate_behavior,
    apply_trembles,
    error_probability,
    induced_joint,
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
    agg = aggregate_behavior(s, prof)
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


def test_action_rates_nan_on_zero_mass_taste():
    s = example_3_1()  # all mass at t = 0
    rates = action_rates(s, StrategyProfile.constant(s, 1.0))
    assert rates[0] == 1.0 and np.isnan(rates[1])


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


# -- trembles -------------------------------------------------------------------


def test_tremble_spec_directions():
    s = tiny_scenario()
    prof = StrategyProfile((np.array([[0.0, 1.0], [0.4, 0.6]]), np.array([0.0, 1.0])))
    # each direction at eps = 0.25: 3/4 of the strategy plus 1/4 of the target
    expected = {
        0: ([[0.0, 0.75], [0.3, 0.45]], [0.0, 0.75]),
        1: ([[0.25, 1.0], [0.55, 0.7]], [0.25, 1.0]),
        "flip": ([[0.25, 0.75], [0.55, 0.45]], [0.25, 0.75]),
        "uniform": ([[0.125, 0.875], [0.425, 0.575]], [0.125, 0.875]),
    }
    for direction, (want0, want1) in expected.items():
        out = apply_trembles(prof, TrembleSchedule.of({}, TrembleSpec(1, direction)), 0.25)
        assert np.allclose(out.sigmas[0], want0, atol=1e-15), direction
        assert np.allclose(out.sigmas[1], want1, atol=1e-15), direction
    # an entry overrides the default for its (type, taste) slice only
    sched = TrembleSchedule.of({(1, 1): TrembleSpec(1, 0)}, TrembleSpec(1, "flip"))
    out = apply_trembles(prof, sched, 0.25)
    assert np.allclose(out.sigmas[1], [0.25, 0.75], atol=1e-15)
    assert np.allclose(out.sigmas[0], expected["flip"][0], atol=1e-15)
    # eps = 1 lands exactly on the targets
    out = apply_trembles(prof, TrembleSchedule.uniform_flip(), 1.0)
    assert np.array_equal(out.sigmas[0], [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(out.sigmas[1], [1.0, 0.0])
    with pytest.raises(ModelError):
        TrembleSpec(0.0)
    with pytest.raises(ModelError):
        TrembleSpec(1, "sideways")


def test_apply_trembles_identity_cases():
    s = tiny_scenario()
    prof = StrategyProfile.matching(s)
    assert apply_trembles(prof, TrembleSchedule.none(), 0.5) is prof
    assert apply_trembles(prof, TrembleSchedule.uniform_flip(), 0.0) is prof


def test_apply_trembles_exponent_and_selectivity():
    s = tiny_scenario()
    prof = StrategyProfile.matching(s)
    sched = TrembleSchedule.of({(0, 0): TrembleSpec(2.0, "flip")})
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
