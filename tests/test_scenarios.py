import numpy as np
import pytest

import oracles
from bci import _engine as eng
from bci.model import ModelError, StrategyProfile, error_probability, welfare_loss
from bci.causal import delta_table
from bci.ordering import build_relation, is_complete, is_quasitransitive
from bci.scenarios import (
    as_consequential,
    example_1_1_collider,
    example_1_1_confounder,
    example_3_1,
    example_4_1,
    example_4_1_corner_profile,
    example_4_1_interior_profile,
    matching_on_own_covariate,
    pandemic,
    pandemic_profile,
    prop2_cycle,
    prop2_incomplete,
    prop4,
    prop4_profile,
    prop5,
    prop5_profile,
)
from test_causal import random_small_scenario


def test_example_3_1_masses_and_feasibility():
    s = example_3_1(beta=0.8, q=0.8)
    assert float(s.ptx.sum()) == pytest.approx(1.0, abs=1e-15)
    assert float(s.ptx[0, 1, 1]) == pytest.approx(0.64, abs=1e-15)
    assert float(s.ptx[1].sum()) == 0.0  # taste never fires
    with pytest.raises(ModelError):
        example_3_1(beta=0.8, q=0.5)  # beta(2-q) > 1
    with pytest.raises(ModelError):
        example_3_1(beta=1.0)


def test_example_3_1_blind_variant_completes_the_order():
    plain = example_3_1()
    blind = example_3_1(blind_second_type=True)
    assert not is_complete(build_relation(plain.types))
    r = build_relation(blind.types)
    assert is_complete(r) and is_quasitransitive(r)


def test_example_4_1_self_selection_mass():
    gamma = 0.3
    s = example_4_1(gamma, 0.5)
    # taste mass is all the scenario carries: no covariates at all
    assert s.x_names == ()
    assert float(s.ptx[1]) == pytest.approx(gamma, abs=1e-15)
    q0, q1 = oracles.brute_outcome_rates(s)
    assert q0 == 0.0 and q1 == 1.0  # outcome literally reveals the taste


def test_example_4_1_interior_profile_balances_posteriors():
    s = example_4_1(0.3, 0.5)
    prof = example_4_1_interior_profile(s)
    tab = delta_table(s, prof)[0]
    assert float(tab.values[()]) == pytest.approx(0.5, abs=1e-12)  # delta = c
    assert welfare_loss(s, prof) == pytest.approx(0.15, abs=1e-12)
    corner = example_4_1_corner_profile(s)
    assert np.all(corner.sigmas[0] == 1.0)


def test_prop2_builders_geometry():
    s = prop2_incomplete()
    assert [t.condition_set for t in s.types] == [("x1",), ("x2",)]
    assert not is_complete(build_relation(s.types))
    cyc = prop2_cycle()
    r = build_relation(cyc.types)
    assert is_complete(r) and not is_quasitransitive(r)
    with pytest.raises(ModelError):
        prop2_incomplete(eps=0.0)


def test_prop4_mass_table_and_profile():
    gamma, beta = 0.6, 0.01
    s = prop4(gamma=gamma, beta=beta)
    assert s.x_cards == (3, 3)
    assert float(s.ptx[1, 1, 1]) == pytest.approx(beta, abs=1e-15)
    assert float(s.ptx[1, 0, 0]) == pytest.approx(gamma - beta - 2 * beta**2, abs=1e-15)
    assert float(s.ptx.sum()) == pytest.approx(1.0, abs=1e-14)
    q0, q1 = oracles.brute_outcome_rates(s)
    assert (q0, q1) == (0.0, 1.0)
    prof = prop4_profile(s)
    prof.conforms(s)


def test_prop5_splits_outcome_against_taste():
    s = prop5(gamma=0.5, eps=0.001)
    prof = prop5_profile(s)
    assert error_probability(s, prof) == pytest.approx(0.999, abs=1e-15)
    tab = delta_table(s, prof)
    vals = [float(t.values[c]) for t in tab for c in np.ndindex(t.values.shape) if t.defined[c]]
    assert max(vals) == pytest.approx((1 - 0.5 - 0.001) / (1 - 0.5 - 0.001 + 0.0005), abs=1e-12)


def test_pandemic_perceived_gap():
    s = pandemic()  # q=0.8, c=0.3, beta=1/2 consequential
    prof = pandemic_profile(s)
    tabs = delta_table(s, prof)
    # blind type's do-gap: acting looks 0.4 worse because actors sit at x=1
    assert float(tabs[1].values[()]) == pytest.approx(-0.4, abs=1e-12)
    # seeing type reads the (null) direct effect of a on z correctly
    assert np.allclose(tabs[0].values[tabs[0].defined], 0.0, atol=1e-12)
    assert welfare_loss(s, prof) == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(ModelError):
        pandemic(q=0.5)


def test_confounder_and_collider_are_distinct_stories():
    conf = example_1_1_confounder()
    coll = example_1_1_collider()
    assert conf.x_names == ("x1",)
    assert coll.x_names == ("x1", "x2", "x3")
    # the collider's middle covariate is the XOR of the outer two
    for x1 in (0, 1):
        for x3 in (0, 1):
            mass = float(coll.ptx[0, x1, x1 ^ x3, x3])
            assert mass == pytest.approx(0.25, abs=1e-15)
            assert float(coll.ptx[0, x1, 1 - (x1 ^ x3), x3]) == 0.0


def test_matching_on_own_covariate_requires_binary_view():
    s = prop4()  # ternary covariates
    with pytest.raises(ModelError):
        matching_on_own_covariate(s)


def replies(cs, profile):
    """``column_replies`` at one profile: (delta, defined) shaped (S,),
    (scores, code) shaped (2, S)."""
    sigma = eng.flatten_profile(cs, profile).reshape(-1, 1)
    return [a[..., 0] for a in eng.column_replies(cs, eng.column_pair(sigma))]


def test_as_consequential_preserves_taste0_ties(monkeypatch):
    # the taste-0 score scales by (1 - beta) against an absolute tie band:
    # every baseline tie stays a tie and every strict converted reply is the
    # baseline's, while a strict baseline reply near the band may become a
    # tie; a 0.1 band makes both common on random profiles
    for band in (None, "0.1"):
        if band is not None:
            monkeypatch.setenv("BCI_TIE_TOL", band)
        rng = np.random.default_rng(37)
        ties = tie_made = 0
        for _ in range(60):
            base, prof = random_small_scenario(rng)
            beta = float(rng.uniform(0.05, 0.95))
            cs = eng.compile_scenario(base)
            _, defined, base_scores, base_code = replies(cs, prof)
            conv = eng.compile_scenario(as_consequential(base, beta))
            _, _, scores, code = replies(conv, prof)
            assert np.allclose(scores[0], (1.0 - beta) * base_scores[0], rtol=0.0, atol=1e-14)
            assert np.all(code[0][base_code[0] == -1] == -1)
            strict = code[0] != -1
            assert np.array_equal(code[0][strict], base_code[0][strict])
            decided = defined & cs.active[0]  # a tie here is one of scores
            ties += int(np.sum(decided & (base_code[0] == -1)))
            tie_made += int(np.sum(decided & (base_code[0] != -1) & ~strict))
    assert ties and tie_made
