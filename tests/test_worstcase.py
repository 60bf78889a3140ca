import dataclasses

import numpy as np
import pytest

from bci.model import error_probability, induced_joint, welfare_loss
from bci.ordering import build_relation, is_complete, is_quasitransitive
from bci.worstcase import (
    SearchConfig,
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
     ("refine_top", -1), ("refine_rounds", -1)],
)
def test_search_config_rejects_bad_budgets(field, value):
    with pytest.raises(WorstCaseError, match=field):
        SearchConfig(restarts=3, **{field: value})


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
