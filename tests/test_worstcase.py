import dataclasses

import numpy as np
import pytest

from bci.equilibrium import certify_equilibrium
from bci.model import (
    ModelError,
    StrategyProfile,
    error_probability,
    induced_joint,
    welfare_loss,
)
from bci.ordering import build_relation, is_complete, is_quasitransitive
from bci.scenarios import example_4_1, example_4_1_interior_profile
from bci.worstcase import (
    SearchConfig,
    WitnessInstance,
    WorstCaseError,
    check_annotations,
    check_bound,
    instance_digest,
    random_scenario,
    reverify,
    search_max_loss,
    verified_equilibria,
    witness_cycle,
    witness_full_loss,
    witness_incomplete,
    witness_incomplete_hetero,
)


# -- closed-form witnesses -------------------------------------------------------


def test_witness_incomplete_claims_and_reverification():
    w = witness_incomplete(0.01, 0.5, 0.9)
    assert w.claimed_verdict == "equilibrium"
    assert w.claimed_loss == pytest.approx(0.9 * (1 - 0.005), abs=1e-15)
    report = reverify(w)
    assert report.passed
    assert welfare_loss(w.scenario, w.profile) == pytest.approx(w.claimed_loss, abs=1e-12)
    assert check_annotations(w) < 1e-12


def test_witness_cycle_spoiler_shrinkage():
    w = witness_cycle(0.01, (1 / 3, 1 / 3, 1 / 3), 0.9)
    report = reverify(w)
    assert report.passed
    assert w.claimed_error_probability == pytest.approx(1 - 0.01 / 3, abs=1e-15)
    assert check_annotations(w) < 1e-12
    # on-path cells: every type perceives nearly the full unit effect
    on_path = [a for a in w.delta_annotations if a.cell == (1,)]
    assert len(on_path) == 3
    for ann in on_path:
        assert ann.value > 0.99


def test_witness_hetero_uses_trembled_annotations():
    w = witness_incomplete_hetero()
    assert w.claimed_verdict == "equilibrium_limit"
    assert any(a.trembled for a in w.delta_annotations)
    assert w.eps_profile is not None
    report = reverify(w)
    assert report.verdict == "equilibrium_limit"
    assert check_annotations(w) < 1e-10
    assert w.posterior_annotations  # the hash-covariate posterior is recorded


def test_witness_noisy_profile_follows_its_schedule_and_eps():
    # the noisy profile is derived, not stored: taste-0 slices flip at eps,
    # taste-1 slices at eps**6, and a witness with another eps trembles by it
    assert "eps_profile" not in {f.name for f in dataclasses.fields(WitnessInstance)}
    w = witness_incomplete_hetero()
    for eps, witness in ((0.001, w), (0.01, dataclasses.replace(w, eps=0.01))):
        for sig, noisy in zip(witness.profile.sigmas, witness.eps_profile.sigmas):
            assert set(np.unique(sig)) == {0.0, 1.0}
            for taste, m in ((0, eps), (1, eps**6)):
                want = np.where(sig[taste] == 1.0, 1.0 - m, m)
                assert np.array_equal(noisy[taste], want)
    assert dataclasses.replace(w, eps=None).eps_profile is None
    # the plain witnesses have no schedule and no tremble level (their eps is
    # a scenario parameter), so they have no noisy profile
    for plain in (witness_incomplete(0.01, 0.5, 0.9), witness_cycle(), witness_full_loss()):
        assert plain.schedule is None and plain.eps is None and plain.eps_profile is None


def test_trembled_annotation_on_a_plain_witness_raises():
    # a plain witness has no trembled profile, so a claim on one cannot be
    # checked, least of all against the limit profile in its place
    for plain in (witness_incomplete(0.01, 0.5, 0.9), witness_cycle(), witness_full_loss()):
        ann = dataclasses.replace(plain.delta_annotations[0], trembled=True)
        claim = dataclasses.replace(plain, delta_annotations=(ann,))
        with pytest.raises(WorstCaseError, match="has no eps"):
            check_annotations(claim)


@pytest.mark.parametrize("eps", [0.0, 1.0, 5.0, -0.01, float("nan")])
def test_witness_hetero_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(ModelError, match=r"need eps in \(0,1\)"):
        witness_incomplete_hetero(eps=eps)


def test_witness_hetero_posterior_recomputes_from_induced_joint():
    # p(t=1 | a=1, x1=1) = beta / (beta + lambda_1 beta^2), at the limit
    # profile and at the stored noisy one alike
    w = witness_incomplete_hetero()
    (post,) = w.posterior_annotations
    assert post.label == "p(t=1 | a=1, x1=1)"
    claimed = post.value
    assert claimed == pytest.approx(0.995024875621890, rel=1e-14)
    for prof in (w.profile, w.eps_profile):
        joint = induced_joint(w.scenario, prof).marginalize(("t", "x1", "a")).probs
        at = joint[:, 1, 1]  # (t, x1=1, a=1)
        assert at[1] / at.sum() == pytest.approx(claimed, rel=1e-12)


def test_check_annotations_recomputes_posterior_claims():
    w = witness_incomplete_hetero()
    assert check_annotations(w) == 0.0  # the closed form is exact at the defaults
    (post,) = w.posterior_annotations
    wrong = dataclasses.replace(
        w, posterior_annotations=(dataclasses.replace(post, value=post.value - 0.25),)
    )
    assert check_annotations(wrong) == pytest.approx(0.25, abs=1e-12)
    null = dataclasses.replace(
        w, posterior_annotations=(dataclasses.replace(post, covariate="x2", level=2),)
    )
    # a = 1 is never played at x2 = # in the limit profile
    with pytest.raises(WorstCaseError, match="null event"):
        check_annotations(null)


def test_check_annotations_rejects_an_annotation_naming_no_type():
    w = witness_incomplete(0.01, 0.5, 0.9)
    ann = dataclasses.replace(w.delta_annotations[0], type_index=w.scenario.n_types)
    with pytest.raises(WorstCaseError, match="no type with index"):
        check_annotations(dataclasses.replace(w, delta_annotations=(ann,)))
    # nor a cell outside the type's covariate range
    for cell in ((2,), (-1,)):
        ann = dataclasses.replace(w.delta_annotations[0], cell=cell)
        with pytest.raises(ModelError, match="outside"):
            check_annotations(dataclasses.replace(w, delta_annotations=(ann,)))



@pytest.mark.parametrize(
    "field, value",
    [
        ("action", -1), ("action", 2), ("action", True), ("action", 1.0),
        ("level", 3), ("level", -1), ("level", True),
        ("type_index", True), ("type_index", 0.0), ("type_index", -1),
    ],
)
def test_check_annotations_rejects_an_index_that_is_not_an_integer_in_range(field, value):
    # one rule for every annotation index: an integer, not a bool, in range;
    # a negative action must not wrap around to action 1, nor True read as 1
    w = witness_incomplete_hetero()
    if field == "type_index":
        ann = dataclasses.replace(w.delta_annotations[0], type_index=value)
        w = dataclasses.replace(w, delta_annotations=(ann,))
    else:
        (post,) = w.posterior_annotations
        post = dataclasses.replace(post, **{field: value})
        w = dataclasses.replace(w, posterior_annotations=(post,))
    with pytest.raises(WorstCaseError, match="index"):
        check_annotations(w)

def test_witness_full_loss_has_both_types_wrong():
    w = witness_full_loss(0.5, 0.001, 0.9)
    report = reverify(w)
    assert report.passed
    assert error_probability(w.scenario, w.profile) == pytest.approx(0.999, abs=1e-15)
    assert w.claimed_loss == pytest.approx(0.9 * 0.999, abs=1e-15)


def test_witness_parameter_validation():
    from bci.model import ModelError

    with pytest.raises((WorstCaseError, ModelError)):
        witness_incomplete(eps=0.9)  # trembles that large break the construction
    with pytest.raises((WorstCaseError, ModelError)):
        witness_full_loss(gamma=0.5, eps=0.6)  # masses go negative


# -- random scenario generator ---------------------------------------------------


def test_random_scenario_structures(rng):
    for structure, should_be_complete in (("complete_qt", True), ("incomplete", False)):
        cfg = SearchConfig(p_structure=structure, n_covariates=2, n_types=2, seed=0)
        for _ in range(20):
            s = random_scenario(cfg, rng)
            r = build_relation(s.types)
            assert is_complete(r) == should_be_complete
            if should_be_complete:
                assert is_quasitransitive(r)
            assert float(s.ptx.sum()) == pytest.approx(1.0, abs=1e-12)


def test_random_scenario_gamma_pins_taste_mass(rng):
    cfg = SearchConfig(gamma=0.3, n_covariates=2, n_types=2)
    for _ in range(10):
        s = random_scenario(cfg, rng)
        assert float(s.ptx[1].sum()) == pytest.approx(0.3, abs=1e-12)


def test_random_scenario_t_only_outcome(rng):
    cfg = SearchConfig(gamma=0.5, t_only_outcome=True, n_covariates=2, n_types=2)
    s = random_scenario(cfg, rng)
    for t in (0, 1):
        assert np.allclose(s.kernel[t], s.kernel[t].flat[0])


def test_search_config_validation():
    with pytest.raises(WorstCaseError):
        SearchConfig(p_structure="incomplete", n_types=3)
    with pytest.raises(WorstCaseError):
        SearchConfig(p_structure="complete_qt", n_covariates=1, n_types=3)
    with pytest.raises(WorstCaseError):
        SearchConfig(metric="entropy")


@pytest.mark.parametrize(
    "field, value",
    [("param_scale", -1.0), ("param_scale", 0.0), ("param_scale", float("nan")),
     ("refine_top", -1), ("refine_rounds", -1), ("seed", -1),
     # counts that are not integers fail here, not later with a bare TypeError
     ("restarts", 2.5), ("n_covariates", 2.0), ("refine_rounds", 1.5), ("seed", 1.5),
     ("n_types", True)],
)
def test_search_config_rejects_bad_budgets(field, value):
    with pytest.raises(WorstCaseError, match=field):
        SearchConfig(**{"restarts": 3, field: value})


def test_search_config_caps_stacked_cells():
    # n_types * 2**n_covariates bounds the stacked cells of every draw
    for n_cov, n_types in ((10, 1), (8, 4), (1, 512)):
        SearchConfig(p_structure="free", n_covariates=n_cov, n_types=n_types)
    for n_cov, n_types in ((10, 2), (9, 3), (1, 513), (40, 1)):
        with pytest.raises(WorstCaseError, match=r"2\*\*n_covariates"):
            SearchConfig(p_structure="free", n_covariates=n_cov, n_types=n_types)


# -- inner solver and search ------------------------------------------------------


def test_verified_equilibria_on_known_instance(rng):
    from bci.scenarios import example_3_1

    found = verified_equilibria(example_3_1(), rng)
    losses = sorted(round(welfare_loss(example_3_1(), p), 9) for p, _ in found)
    assert 0.4 in losses  # the lossy equilibrium is among the verified ones
    for _, rep in found:
        assert rep.verdict == "equilibrium_limit"


def test_instance_digest_is_stable_and_sensitive(rng):
    from bci.scenarios import example_3_1, matching_on_own_covariate

    s = example_3_1()
    p = matching_on_own_covariate(s)
    d1 = instance_digest(s, p)
    d2 = instance_digest(s, p)
    assert d1 == d2 and len(d1) == 64
    assert instance_digest(example_3_1(q=0.85), p) != d1
    # a baseline digest reads the fields it always read
    assert d1 == "d6602a9c9f067c25a72edbe5168afe582d79d853307e10d3573d892b0c2d52c2"


def test_instance_digest_tells_outcome_conventions_apart():
    # same tables, weights and c; only the outcome convention differs, and
    # with it the welfare loss of the same profile
    s = example_4_1(0.5, 0.5)
    p = StrategyProfile.matching(s)
    copies = [s] + [
        dataclasses.replace(s, outcome_kind="consequential", beta=b) for b in (0.3, 0.6)
    ]
    assert [welfare_loss(x, p) for x in copies] == pytest.approx([0.0, 0.0, 0.05])
    assert len({instance_digest(x, p) for x in copies}) == 3


def test_small_search_is_reproducible():
    cfg = SearchConfig(
        gamma=0.4, t_only_outcome=True, n_covariates=1, n_types=2,
        restarts=6, seed=123, param_scale=4.0, refine_top=2, refine_rounds=3,
        metric="error_probability",
    )
    best1, trace1 = search_max_loss(cfg)
    best2, trace2 = search_max_loss(cfg)
    assert instance_digest(best1.scenario, best1.profile) == instance_digest(
        best2.scenario, best2.profile
    )
    assert [r.value for r in trace1] == [r.value for r in trace2]
    assert best1.claimed_error_probability <= 0.4 * 0.6 + 1e-6  # the analytic ceiling


def test_check_bound_reports_headroom():
    cfg = SearchConfig(
        gamma=0.4, t_only_outcome=True, n_covariates=1, n_types=2,
        restarts=4, seed=7, param_scale=4.0, refine_top=1, refine_rounds=2,
        metric="error_probability",
    )
    rep = check_bound(cfg, lambda g: g * (1 - g))
    assert rep.bound_value == pytest.approx(0.24)
    assert not rep.violated
    assert rep.observed <= rep.bound_value + 1e-9
    with pytest.raises(WorstCaseError):
        check_bound(SearchConfig(restarts=1), lambda g: g)  # gamma-free family


def test_the_gamma_one_minus_gamma_ceiling_bounds_welfare_loss_not_error_probability():
    # Example 4.1's interior equilibrium has welfare loss gamma (1 - c), below
    # gamma (1 - gamma) wherever it exists (gamma < c), and error probability
    # gamma (1 - c) / c, which exceeds gamma (1 - gamma) once c < 1 / (2 - gamma)
    gamma, c = 0.3, 0.5
    s = example_4_1(gamma, c)
    report = certify_equilibrium(s, example_4_1_interior_profile(s))
    assert report.verdict == "equilibrium_limit"
    assert report.welfare_loss == pytest.approx(gamma * (1 - c), abs=1e-12)
    assert report.welfare_loss < gamma * (1 - gamma)
    assert report.error_probability == pytest.approx(gamma * (1 - c) / c, abs=1e-12)
    assert report.error_probability > gamma * (1 - gamma)
    # at criterion 06's c = 0.9 the hypothesis c >= 1 / (1 + min(gamma, 1 - gamma))
    # of the error-probability form holds, and so does the form
    c = 0.9
    for gamma in (0.3, 0.5, 0.7):
        assert c >= 1 / (1 + min(gamma, 1 - gamma))
        s = example_4_1(gamma, c)
        report = certify_equilibrium(s, example_4_1_interior_profile(s))
        assert report.verdict == "equilibrium_limit"
        assert report.error_probability == pytest.approx(gamma * (1 - c) / c, abs=1e-12)
        assert report.error_probability <= gamma * (1 - gamma)


def test_check_bound_rejects_a_ceiling_that_is_not_finite(monkeypatch):
    # a NaN ceiling is never exceeded, so it could only ever report headroom
    import bci.worstcase as wc

    def no_search(cfg):
        raise AssertionError("the search ran")

    monkeypatch.setattr(wc, "search_max_loss", no_search)
    cfg = SearchConfig(gamma=0.4, t_only_outcome=True, restarts=1)
    for bound in (float("nan"), lambda g: float("nan"), float("inf")):
        with pytest.raises(WorstCaseError, match="finite"):
            check_bound(cfg, bound)


def test_mixed_type_draws_name_plain_strings():
    # condition sets drawn from the smallest data set hold str names, so a
    # drawn scenario's digest survives the round trip through its document
    from bci.document import document_from_scenario, export_json, load_scenario

    cfg = SearchConfig(simple_types=False, n_types=3, n_covariates=3)
    s = random_scenario(cfg, np.random.default_rng(4))
    assert any(spec.condition_set for spec in s.types)
    assert all(
        type(n) is str for spec in s.types for n in spec.condition_set + spec.data_set
    )
    p = StrategyProfile.matching(s)
    back = load_scenario(export_json(document_from_scenario(s)))
    assert instance_digest(back, p) == instance_digest(s, p)
