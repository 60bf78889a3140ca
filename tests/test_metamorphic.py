"""Metamorphic properties: relabelling or splitting types, or reordering
covariates, changes nothing.

A verdict must follow from the model, not from the order the types or the
covariates are listed in or from how one type's weight is split between
identical copies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bci.causal import delta_table
from bci.equilibrium import best_response_dynamics, certify_equilibrium, verify_eps_equilibrium
from bci.model import Scenario, StrategyProfile

from test_causal import random_small_scenario


def _with_types(s, prof, source, lam):
    """Scenario and profile whose type j is a copy of type ``source[j]``."""
    scenario = Scenario(
        s.x_names, s.x_cards, s.ptx, s.kernel, tuple(s.types[k] for k in source), lam, s.c
    )
    return scenario, StrategyProfile(tuple(prof.sigmas[k] for k in source))


def _profiles(rng, s):
    """A random interior profile, its rounding, and a best-reply rest point."""
    prof = StrategyProfile(tuple(rng.random(s.sigma_shape(i)) for i in range(s.n_types)))
    rest = best_response_dynamics(s, StrategyProfile.matching(s), max_iters=200).profile
    return prof, StrategyProfile(tuple(np.round(x) for x in prof.sigmas)), rest


def _verdicts(s, prof):
    return (
        certify_equilibrium(s, prof).verdict,
        verify_eps_equilibrium(s, prof, 0.01).verdict,
    )


def _assert_tables_follow(s, prof, t, tprof, source):
    tabs, ttabs = delta_table(s, prof), delta_table(t, tprof)
    for j, k in enumerate(source):
        assert np.array_equal(ttabs[j].defined, tabs[k].defined), (j, k)
        ok = tabs[k].defined
        assert np.allclose(ttabs[j].values[ok], tabs[k].values[ok], rtol=0, atol=1e-12), (j, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_permuting_types_permutes_tables_and_keeps_verdicts(seed):
    rng = np.random.default_rng(seed)
    s, _ = random_small_scenario(rng)
    order = tuple(int(k) for k in rng.permutation(s.n_types))
    for prof in _profiles(rng, s):
        t, tprof = _with_types(s, prof, order, tuple(s.lam[k] for k in order))
        _assert_tables_follow(s, prof, t, tprof, order)
        assert _verdicts(t, tprof) == _verdicts(s, prof)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_splitting_a_type_keeps_tables_and_verdicts(seed):
    rng = np.random.default_rng(seed)
    s, _ = random_small_scenario(rng)
    i = int(rng.integers(s.n_types))
    share = float(rng.uniform(0.1, 0.9))
    source = tuple(range(i + 1)) + tuple(range(i, s.n_types))
    lam = s.lam[:i] + (s.lam[i] * share, s.lam[i] * (1.0 - share)) + s.lam[i + 1 :]
    for prof in _profiles(rng, s):
        t, tprof = _with_types(s, prof, source, lam)
        _assert_tables_follow(s, prof, t, tprof, source)
        assert _verdicts(t, tprof) == _verdicts(s, prof)


def _with_covariates(s, prof, order):
    """Scenario and profile whose covariate k is covariate ``order[k]`` of ``s``.

    Also returns, per type, the permutation of its condition axes: a type's
    strategy and delta table list its condition covariates in covariate
    order, so they reorder with the covariates.
    """
    x_axes = (0,) + tuple(1 + k for k in order)
    t = Scenario(
        tuple(s.x_names[k] for k in order),
        tuple(s.x_cards[k] for k in order),
        s.ptx.transpose(x_axes),
        s.kernel.transpose(x_axes),
        s.types,
        s.lam,
        s.c,
    )
    position = {k: j for j, k in enumerate(order)}
    cell_axes = [tuple(np.argsort([position[k] for k in s.c_axes(i)])) for i in range(s.n_types)]
    sigmas = tuple(
        sig.transpose((0,) + tuple(1 + a for a in axes))
        for sig, axes in zip(prof.sigmas, cell_axes)
    )
    return t, StrategyProfile(sigmas), cell_axes


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_permuting_covariates_permutes_tables_and_keeps_verdicts(seed):
    rng = np.random.default_rng(seed)
    s, _ = random_small_scenario(rng, max_covariates=3)
    order = tuple(int(k) for k in rng.permutation(len(s.x_names)))
    if order == tuple(sorted(order)):
        order = order[::-1]  # identity only when there is one covariate
    for prof in _profiles(rng, s):
        t, tprof, cell_axes = _with_covariates(s, prof, order)
        for tab, ttab, axes in zip(delta_table(s, prof), delta_table(t, tprof), cell_axes):
            assert ttab.c_names == tuple(tab.c_names[a] for a in axes)
            assert np.array_equal(ttab.defined, tab.defined.transpose(axes))
            ok = ttab.defined
            moved = tab.values.transpose(axes)
            assert np.allclose(ttab.values[ok], moved[ok], rtol=0, atol=1e-12)
        assert _verdicts(t, tprof) == _verdicts(s, prof)
