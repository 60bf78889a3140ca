"""Acceptance gate: twelve headline behaviors, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS/FAIL lines as they print).  Every test prints exactly one line

    [PASS] acceptance NN: <label>   or   [FAIL] acceptance NN: <label>

so a transcript of the suite doubles as the checklist.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from bci import _engine as eng
from bci.causal import delta, delta_table
from bci.equilibrium import (
    best_response_dynamics,
    certify_equilibrium,
    enumerate_pure_equilibria,
    verify_eps_equilibrium,
    verify_limit,
)
from bci.model import (
    DataTypeSpec,
    Scenario,
    StrategyProfile,
    induced_joint,
    welfare_loss,
)
from bci.ordering import DominanceRelation, layer_partition
from bci.scenarios import (
    as_consequential,
    example_3_1,
    example_4_1,
    example_4_1_corner_profile,
    example_4_1_interior_profile,
    matching_on_own_covariate,
    pandemic,
    pandemic_corner_profile,
    pandemic_profile,
)
from bci.worstcase import (
    SearchConfig,
    check_annotations,
    random_scenario,
    reverify,
    search_max_loss,
    verified_equilibria,
    witness_cycle,
    witness_full_loss,
    witness_incomplete,
    witness_incomplete_hetero,
)
from test_causal import random_small_scenario

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] acceptance {num:02d}: {label}")
        raise
    print(f"[PASS] acceptance {num:02d}: {label}")


def action_rate(scenario: Scenario, profile: StrategyProfile) -> float:
    """Overall Pr(a = 1) under the induced joint."""
    return float(induced_joint(scenario, profile).marginalize(("a",)).probs[1])


def test_criterion_01_overlap_example_golden_values():
    with criterion(1, "two-covariate overlap example: golden effect, verdict, loss"):
        scenario = example_3_1()  # beta 0.8, q 0.8, c 0.5, equal weights
        profile = matching_on_own_covariate(scenario)
        table = delta_table(scenario, profile)[0]
        assert bool(table.defined[1]) and bool(table.defined[0])
        assert abs(float(table.values[1]) - 8.0 / 9.0) < 1e-12
        assert float(table.values[0]) == 0.0
        report = verify_eps_equilibrium(scenario, profile, eps=0.01)
        assert report.verdict == "epsilon_equilibrium"
        assert abs(action_rate(scenario, profile) - 0.8) < 1e-12
        assert abs(report.welfare_loss - 0.4) < 1e-12

        # at q = 1/2 the perceived effect is 2q/(1+q) = 2/3, so acting on the
        # covariate survives exactly while c < 2/3 (feasibility needs the
        # lower taste weight beta = 1/2 here)
        for c, expected in ((0.6, True), (0.7, False)):
            variant = example_3_1(beta=0.5, q=0.5, c=c)
            rep = verify_eps_equilibrium(
                variant, matching_on_own_covariate(variant), eps=0.01
            )
            assert (rep.verdict == "epsilon_equilibrium") is expected, c


def test_criterion_02_blind_second_type_never_errs(rng):
    with criterion(2, "blind-partner variant: every found equilibrium is lossless"):
        scenario = example_3_1(blind_second_type=True)
        pure = list(enumerate_pure_equilibria(scenario))
        assert pure, "pure enumeration found nothing"
        found = verified_equilibria(scenario, rng, inner_inits=50)
        assert found, "dynamics found nothing"
        worst = max(rep.welfare_loss for _, rep in pure + found)
        assert worst < 1e-9, worst


def test_criterion_03_no_covariate_example_dynamics_and_corner():
    with criterion(3, "taste-confounding example: interior mix and trembled corner"):
        scenario = example_4_1(gamma=0.3, c=0.5)
        result = best_response_dynamics(scenario, StrategyProfile.matching(scenario))
        assert result.status == "converged"
        sigma = np.asarray(result.profile.sigmas[0])
        assert abs(sigma[0] - 3.0 / 7.0) < 1e-6  # act at taste 0 with odds c/(1-c) vs gamma
        assert sigma[1] == 1.0
        mix = float(delta_table(scenario, result.profile)[0].values[()])
        assert abs(mix - scenario.c) < 1e-6
        assert result.report is not None
        assert abs(result.report.welfare_loss - 0.15) < 1e-6  # gamma (1 - c)

        # above the cost threshold the all-act corner survives as a limit:
        # taste-0 mistakes vanish one order faster than taste-1 ones
        corner_scenario = example_4_1(gamma=0.6, c=0.5)
        schedule = np.array([[1.0], [2.0]])  # (taste, type) flip exponents
        report = verify_limit(
            corner_scenario, example_4_1_corner_profile(corner_scenario), schedule
        )
        assert report.verdict == "equilibrium_limit"
        assert abs(report.welfare_loss - 0.2) < 1e-12  # c (1 - gamma)


@pytest.mark.slow
def test_criterion_04_no_high_taste_means_no_loss():
    with criterion(4, "100 random ordered scenarios without high tastes: loss < 1e-6"):
        rng = np.random.default_rng(20240819)
        total_found = 0
        worst = 0.0
        for trial in range(100):
            k = int(rng.integers(1, 4))
            cfg = SearchConfig(
                gamma=0.0,
                simple_types=True,
                p_structure="complete_qt",
                n_covariates=k,
                n_types=int(rng.integers(1, k + 2)),
                c=float(rng.uniform(0.1, 0.9)),
                restarts=1,
            )
            scenario = random_scenario(cfg, rng)
            found = verified_equilibria(scenario, rng, inner_inits=50)
            total_found += len(found)
            for _, rep in found:
                worst = max(worst, rep.welfare_loss)
            assert worst < 1e-6, (trial, worst)
        assert total_found >= 100  # the check must not pass vacuously


def test_criterion_05_unordered_type_witnesses_reverify():
    with criterion(5, "unordered-types witnesses: near-total acting, pinned effects"):
        for witness in (
            witness_incomplete(0.01, 0.5, 0.9),
            witness_cycle(0.01, (1 / 3, 1 / 3, 1 / 3), 0.9),
        ):
            report = reverify(witness)
            assert report.verdict == "equilibrium_limit"
            assert action_rate(witness.scenario, witness.profile) >= 0.99
            assert check_annotations(witness) < 1e-10


@pytest.mark.slow
def test_criterion_06_ordered_search_respects_error_bound():
    with criterion(6, "ordered-family search: error probability <= gamma(1-gamma)"):
        for gamma in (0.3, 0.5, 0.7):
            cfg = SearchConfig(
                gamma=gamma,
                t_only_outcome=True,
                simple_types=True,
                p_structure="complete_qt",
                metric="error_probability",
                restarts=200,
                seed=11,
                param_scale=4.0,
                refine_top=4,
                refine_rounds=15,
            )
            best, trace = search_max_loss(cfg)
            assert trace, "search produced no records"
            assert best.claimed_error_probability <= gamma * (1.0 - gamma) + 1e-6, gamma

        # the no-covariate example approaches the bound when gamma is near c
        scenario = example_4_1(gamma=0.49, c=0.5)
        result = best_response_dynamics(scenario, StrategyProfile.matching(scenario))
        assert result.status == "converged" and result.report is not None
        loss = result.report.welfare_loss
        assert abs(loss - 0.245) < 1e-6  # gamma (1 - c)
        assert loss >= 0.9 * 0.49 * (1.0 - 0.49)


def test_criterion_07_heterogeneous_taste_witness():
    with criterion(7, "heterogeneous-taste witness: pinned error probability"):
        witness = witness_incomplete_hetero(
            gamma=0.6, beta=0.01, eps=0.001, lambdas=(0.5, 0.5), c=0.9
        )
        report = reverify(witness)
        assert report.verdict == "equilibrium_limit"
        gamma, beta = 0.6, 0.01
        assert gamma - 3 * beta <= report.error_probability <= gamma
        # frozen from the hand oracle: gamma - beta - beta^2
        assert abs(report.error_probability - 0.5899) < 1e-12
        assert (
            abs(
                oracles.brute_error_probability(witness.scenario, witness.profile)
                - report.error_probability
            )
            < 1e-12
        )


def test_criterion_08_unrestricted_outcomes_allow_near_total_loss():
    with criterion(8, "free-kernel witness: mismatch probability 0.999"):
        witness = witness_full_loss(gamma=0.5, eps=0.001, c=0.9)
        report = reverify(witness)
        assert report.verdict == "equilibrium_limit"
        assert abs(report.error_probability - 0.999) < 1e-12


def test_criterion_09_self_sorting_action_scenario():
    with criterion(9, "self-sorting scenario: thresholds, corner rescue, weight sweep"):
        scenario = pandemic(q=0.8, lambda1=0.5, c=0.3)
        profile = pandemic_profile(scenario)
        report = verify_eps_equilibrium(scenario, profile, eps=0.01)
        assert report.verdict == "epsilon_equilibrium"
        gap = delta(scenario, profile, 1, ())
        assert gap is not None and abs(abs(gap) - 0.4) < 1e-12
        assert abs(report.welfare_loss - 0.05) < 1e-12

        cheap = pandemic(q=0.8, lambda1=0.5, c=0.05)  # below the 0.1 threshold
        bad = verify_eps_equilibrium(cheap, pandemic_profile(cheap), eps=0.01)
        assert bad.verdict != "epsilon_equilibrium"
        rescued = certify_equilibrium(cheap, pandemic_corner_profile(cheap))
        assert rescued.verdict == "equilibrium_limit"
        assert abs(rescued.welfare_loss) < 1e-15

        # externality: the loss expression rides entirely on the second
        # type's weight, falling as the first type takes over.  (The
        # taste-following profile itself stays an equilibrium only while
        # lambda1 <= 1/2 at this cost; beyond that the contamination gap
        # shrinks below the acting threshold.)
        losses = []
        for lam1 in np.arange(0.1, 0.95, 0.1):
            s = pandemic(q=0.8, lambda1=float(lam1), c=0.3)
            prof = pandemic_profile(s)
            rep = verify_eps_equilibrium(s, prof, eps=0.01)
            if lam1 < 0.55:
                assert rep.verdict == "epsilon_equilibrium", lam1
            losses.append(rep.welfare_loss)
            assert abs(rep.welfare_loss - (1.0 - lam1) * 0.5 * 0.2) < 1e-12
        assert all(a > b for a, b in zip(losses, losses[1:]))


def test_criterion_10_layer_partition_matches_brute_force():
    with criterion(10, "500 random complete quasitransitive relations layer correctly"):
        rnd = oracles.seeded_random(108)
        for trial in range(500):
            n = rnd.randint(2, 7)
            matrix = oracles.random_complete_qt_matrix(n, rnd)
            part = layer_partition(DominanceRelation(np.array(matrix, dtype=bool)))
            assert part.layers == oracles.brute_layers(matrix), trial
            assert oracles.layering_is_valid(matrix, part.layers), trial


def test_criterion_11_effect_formula_matches_raw_joint(rng):
    with criterion(11, "perceived effects match brute-force sums; posterior identity"):
        for trial in range(100):
            scenario, _ = random_small_scenario(rng, max_covariates=3)
            sigmas = []
            for i in range(scenario.n_types):
                sig = rng.random(scenario.sigma_shape(i))
                sig[rng.random(sig.shape) < 0.2] = 0.0  # force undefined cells
                sig[rng.random(sig.shape) < 0.1] = 1.0
                sigmas.append(sig)
            profile = StrategyProfile(tuple(sigmas))
            for i, table in enumerate(delta_table(scenario, profile)):
                brute = oracles.brute_delta(scenario, profile, i)
                for cell, want in brute.items():
                    have = table.values[cell] if table.defined[cell] else None
                    if want is None:
                        assert have is None, (trial, i, cell)
                    else:
                        assert have is not None, (trial, i, cell)
                        assert abs(have - want) < 1e-12, (trial, i, cell)

        # when the outcome depends on the taste alone, the perceived effect
        # factors into a posterior contrast times the outcome-rate spread
        for trial in range(30):
            k = int(rng.integers(1, 3))
            names = tuple(f"x{j + 1}" for j in range(k))
            cards = tuple(int(rng.integers(2, 4)) for _ in range(k))
            shape = (2,) + cards
            ptx = rng.uniform(0.05, 1.0, size=shape)
            ptx /= ptx.sum()
            rates = np.sort(rng.uniform(0.05, 0.95, size=2))
            kernel = np.broadcast_to(
                rates.reshape((2,) + (1,) * k), shape
            ).copy()
            subset = tuple(n for n in names if rng.random() < 0.7) or (names[0],)
            types = tuple(DataTypeSpec(sub, sub) for sub in (subset, names))
            lam = rng.uniform(0.2, 1.0, size=len(types))
            lam /= lam.sum()
            scenario = Scenario(
                names, cards, ptx, kernel, types, tuple(lam), 0.5
            )
            profile = StrategyProfile(
                tuple(
                    rng.uniform(0.05, 0.95, size=scenario.sigma_shape(i))
                    for i in range(scenario.n_types)
                )
            )
            spread = rates[1] - rates[0]
            for i, table in enumerate(delta_table(scenario, profile)):
                contrast = oracles.brute_posterior_diff(scenario, profile, i)
                for cell, diff in contrast.items():
                    assert diff is not None
                    assert table.defined[cell]
                    assert abs(table.values[cell] - diff * spread) < 1e-12


def test_criterion_12_consequential_mode_thresholds_and_scaling():
    with criterion(12, "action-taste mode: beta-vs-c threshold and (1-beta) scaling"):
        # taste-0 best-reply code at perceived effect 0: 1 plays a=1 (beta > c),
        # 0 plays a=0 (beta < c)
        for beta, expected in ((0.6, 1), (0.2, 0)):
            scenario = Scenario(
                (),
                (),
                np.array([0.7, 0.3]),
                np.array([0.5, 0.5]),  # the action never moves the outcome
                (DataTypeSpec((), ()),),
                (1.0,),
                0.3,
                outcome_kind="consequential",
                beta=beta,
            )
            cs = eng.compile_scenario(scenario)
            stacked = eng.flatten_profile(cs, StrategyProfile.constant(scenario, 0.5))
            effect, _, _, code = (a[..., 0] for a in eng.column_replies(cs, eng.column_pair(stacked.reshape(-1, 1))))
            assert effect.tolist() == [0.0] and code[0, 0] == expected, beta

        cases = [
            (example_4_1(gamma=0.3, c=0.5), example_4_1_interior_profile),
            (example_3_1(), matching_on_own_covariate),
        ]
        for base, make_profile in cases:
            profile = make_profile(base)
            base_report = verify_eps_equilibrium(base, profile, eps=0.01)
            assert base_report.verdict == "epsilon_equilibrium"
            for beta in (0.25, 0.5, 0.75):
                converted = as_consequential(base, beta)
                conv_report = verify_eps_equilibrium(converted, profile, eps=0.01)
                assert conv_report.verdict == "epsilon_equilibrium"
                assert (
                    abs(
                        welfare_loss(converted, profile)
                        - (1.0 - beta) * base_report.welfare_loss
                    )
                    < 1e-9
                )
