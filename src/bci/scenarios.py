"""Built-in decision environments used throughout the docs and test suite.

Each builder returns a fully validated :class:`~bci.model.Scenario` and is
deterministic in its parameters.  Where a scenario has a canonical strategy
profile (the one whose equilibrium properties make it interesting), a matching
``*_profile`` helper builds it.

Catalogue
---------
``example_1_1_confounder``   one covariate that drives both action and outcome;
                             taste is constant, so equilibrium kills the bias.
``example_1_1_collider``     a deterministic collider between two independent
                             causes; conditioning on it manufactures correlation.
``example_3_1``              two covariates with an overlap parameter q; each
                             type conditions on a different one.
``example_4_1``              no covariates at all; taste is the only confounder.
``prop2_incomplete``         two unordered types, loss near the maximum.
``prop2_cycle``              three types whose strict dominance cycles.
``prop4``                    heterogeneous tastes, ternary covariates, loss
                             near max{gamma, 1-gamma}.
``prop5``                    free outcome kernel, loss approaching one.
``pandemic``                 action affects the outcome directly; the blind
                             type self-sorts and reads the sorting as causal.
"""

from __future__ import annotations

import numpy as np

from .model import DataTypeSpec, ModelError, Scenario, StrategyProfile

__all__ = [
    "example_1_1_confounder",
    "example_1_1_collider",
    "example_3_1",
    "example_3_1_profile",
    "example_4_1",
    "example_4_1_interior_profile",
    "example_4_1_corner_profile",
    "prop2_incomplete",
    "prop2_cycle",
    "prop4",
    "prop4_profile",
    "prop5",
    "prop5_profile",
    "pandemic",
    "pandemic_profile",
    "pandemic_corner_profile",
    "matching_on_own_covariate",
    "as_consequential",
]


def _pair(*names: str) -> tuple[DataTypeSpec, ...]:
    """Simple types, one per name, each conditioning on its own covariate."""
    return tuple(DataTypeSpec((n,), (n,)) for n in names)


def example_1_1_confounder(c: float = 0.5) -> Scenario:
    """One fair-coin covariate causing the outcome; no taste variation.

    Types: one conditions on the covariate (and therefore controls for it),
    one is blind.  Any profile where actions track the covariate would hand
    the blind type a spurious effect — but the seeing type has no motive to
    track it, which is exactly why equilibrium loss vanishes here.
    """
    ptx = np.array([[0.5, 0.5], [0.0, 0.0]])
    kernel = np.array([[0.0, 1.0], [0.0, 1.0]])
    types = (DataTypeSpec(("x1",), ("x1",)), DataTypeSpec((), ()))
    return Scenario(("x1",), (2,), ptx, kernel, types, (0.5, 0.5), c)


def example_1_1_collider(c: float = 0.5) -> Scenario:
    """Two independent fair coins x1, x3 and their parity x2 = x1 XOR x3.

    The outcome copies x3.  Conditioning on the parity couples x1 and x3, so
    a type controlling only for x2 misreads any x1-driven behavior as causal.
    No taste variation; the x1-conditioning type is the potential driver.
    """
    shape = (2, 2, 2, 2)
    ptx = np.zeros(shape)
    kernel = np.zeros(shape)
    for x1 in (0, 1):
        for x3 in (0, 1):
            x2 = x1 ^ x3
            ptx[0, x1, x2, x3] = 0.25
            kernel[:, x1, x2, x3] = float(x3)
    types = (DataTypeSpec(("x1",), ("x1",)), DataTypeSpec(("x2",), ("x2",)))
    return Scenario(("x1", "x2", "x3"), (2, 2, 2), ptx, kernel, types, (0.5, 0.5), c)


def example_3_1(
    beta: float = 0.8,
    q: float = 0.8,
    c: float = 0.5,
    blind_second_type: bool = False,
) -> Scenario:
    """Two binary covariates with marginals beta and overlap q; outcome = x1*x2.

    p(x1=1) = p(x2=1) = beta and p(x2=1 | x1=1) = q, which forces
    p(both zero) = 1 - beta(2-q) and requires beta(2-q) <= 1.  Taste is
    constant at 0.  Each type conditions on one covariate; with
    ``blind_second_type`` the second type instead conditions on nothing
    (making the dominance relation complete).
    """
    p11 = beta * q
    p10 = p01 = beta * (1.0 - q)
    p00 = 1.0 - beta * (2.0 - q)
    if min(p11, p10, p00) < 0 or not 0 < beta < 1 or not 0 < q < 1:
        raise ModelError(f"infeasible (beta={beta}, q={q}): cell masses must be nonnegative")
    ptx = np.array([[[p00, p01], [p10, p11]], [[0.0] * 2] * 2])
    x1x2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    kernel = np.stack([x1x2, x1x2])
    second = DataTypeSpec((), ()) if blind_second_type else DataTypeSpec(("x2",), ("x2",))
    types = (DataTypeSpec(("x1",), ("x1",)), second)
    return Scenario(("x1", "x2"), (2, 2), ptx, kernel, types, (0.5, 0.5), c)


def example_3_1_profile(scenario: Scenario) -> StrategyProfile:
    """Each type plays a = its own covariate (a = 0 for a blind type)."""
    sigmas = []
    for i in range(scenario.n_types):
        shape = scenario.sigma_shape(i)
        sig = np.zeros(shape)
        if len(shape) == 2:  # conditions on one binary covariate
            sig[:, 1] = 1.0
        sigmas.append(sig)
    return StrategyProfile(tuple(sigmas))


def example_4_1(gamma: float = 0.3, c: float = 0.5) -> Scenario:
    """No covariates: the DM's own taste is the only confounder.

    A single blind type.  The outcome equals the taste, so any taste-driven
    behavior makes the action look productive to the population data.
    """
    if not 0 < gamma < 1:
        raise ModelError("gamma must lie strictly between 0 and 1")
    ptx = np.array([1.0 - gamma, gamma])
    kernel = np.array([0.0, 1.0])
    return Scenario((), (), ptx, kernel, (DataTypeSpec((), ()),), (1.0,), c)


def example_4_1_interior_profile(scenario: Scenario) -> StrategyProfile:
    """Mixing point where the perceived effect exactly offsets the taste cost.

    alpha_0 = gamma(1-c) / ((1-gamma)c), alpha_1 = 1; requires gamma < c.
    """
    gamma, c = scenario.gamma, scenario.c
    alpha0 = gamma * (1.0 - c) / ((1.0 - gamma) * c)
    if not 0 <= alpha0 < 1:
        raise ModelError(f"interior mixing needs gamma < c (gamma={gamma}, c={c})")
    return StrategyProfile((np.array([alpha0, 1.0]),))


def example_4_1_corner_profile(scenario: Scenario) -> StrategyProfile:
    """Everyone acts regardless of taste (sustainable when gamma > c)."""
    return StrategyProfile((np.ones(2),))


def prop2_incomplete(eps: float = 0.01, lambda1: float = 0.5, c: float = 0.9) -> Scenario:
    """Two unordered types; covariates agree except on rare disagreement cells.

    p(x1=1, x2=1) = 1-eps, the two single-one cells carry eps/2 each, and the
    outcome is x1*x2.  Taste is constant.  Playing a = own covariate is then
    self-confirming: each type blames its own rare-cell abstention on the
    action rather than on the other covariate it cannot see.
    """
    if not 0 < eps < 1 or not 0 < lambda1 < 1:
        raise ModelError("need eps in (0,1) and an interior type mix")
    lam = (lambda1, 1.0 - lambda1)
    ptx = np.array([[[0.0, eps / 2], [eps / 2, 1.0 - eps]], [[0.0] * 2] * 2])
    x1x2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    kernel = np.stack([x1x2, x1x2])
    scenario = Scenario(("x1", "x2"), (2, 2), ptx, kernel, _pair("x1", "x2"), lam, c)
    for i, li in enumerate(lam):
        top = (1.0 - eps) / (1.0 - eps + li * eps / 2)
        if top <= c:
            raise ModelError(f"infeasible: type {i} perceived effect {top:.6f} <= c={c}")
    return scenario


def prop2_cycle(
    eps: float = 0.01,
    lambdas: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
    c: float = 0.9,
) -> Scenario:
    """Three types whose strict dominance relation forms a cycle.

    Type i conditions on x_i and has data on {x_i, x_{i+1}} (cyclically), so
    each type dominates the next but not the previous.  Mass 1-eps on the
    all-ones cell, eps/3 on each single-zero cell, outcome = x1*x2*x3.
    """
    if len(lambdas) != 3 or min(lambdas) <= 0:  # the model checks that they sum to 1
        raise ModelError("lambdas must be three positive weights")
    if not 0 < eps < 1:
        raise ModelError("need eps in (0,1)")
    ptx = np.zeros((2, 2, 2, 2))
    ptx[0, 1, 1, 1] = 1.0 - eps
    ptx[0, 0, 1, 1] = ptx[0, 1, 0, 1] = ptx[0, 1, 1, 0] = eps / 3
    kernel = np.zeros((2, 2, 2, 2))
    kernel[:, 1, 1, 1] = 1.0
    types = (
        DataTypeSpec(("x1",), ("x1", "x2")),
        DataTypeSpec(("x2",), ("x2", "x3")),
        DataTypeSpec(("x3",), ("x1", "x3")),
    )
    scenario = Scenario(("x1", "x2", "x3"), (2, 2, 2), ptx, kernel, types, lambdas, c)
    spoiler = {0: 2, 1: 0, 2: 1}  # the type whose covariate lies outside D_i
    shrink = (1.0 - 2 * eps / 3) / (1.0 - eps / 3)
    for i in range(3):
        top = shrink * (1.0 - eps) / (1.0 - eps + (eps / 3) * (1.0 - scenario.lam[spoiler[i]]))
        if top <= c:
            raise ModelError(f"infeasible: type {i} perceived effect {top:.6f} <= c={c}")
    return scenario


def prop4(
    gamma: float = 0.6,
    beta: float = 0.01,
    lambdas: tuple[float, float] = (0.5, 0.5),
    c: float = 0.9,
) -> Scenario:
    """Heterogeneous tastes with ternary covariates and unordered simple types.

    Covariates take values in {0, 1, #} (# encoded as index 2).  Cell masses:
    (t=1, 1, 1): beta; (t=0, 1, 0) and (t=0, 0, 1): beta^2 each;
    (t=0, #, #): 1-gamma; (t=1, 0, 0): gamma - beta - 2 beta^2.
    The outcome simply equals the taste.
    """
    rest = gamma - beta - 2 * beta**2
    if len(lambdas) != 2 or min(lambdas) <= 0:  # the model checks that they sum to 1
        raise ModelError("lambdas must be two positive weights")
    if not 0 < beta < 1 or rest <= 0 or gamma < 0.5:
        raise ModelError(f"need gamma >= 1/2 and gamma - beta - 2 beta^2 > 0 (got {rest})")
    ptx = np.zeros((2, 3, 3))
    ptx[1, 1, 1] = beta
    ptx[0, 1, 0] = ptx[0, 0, 1] = beta**2
    ptx[0, 2, 2] = 1.0 - gamma
    ptx[1, 0, 0] = rest
    kernel = np.zeros((2, 3, 3))
    kernel[1] = 1.0
    scenario = Scenario(("x1", "x2"), (3, 3), ptx, kernel, _pair("x1", "x2"), lambdas, c)
    for i, li in enumerate(scenario.lam):
        up = 1.0 / (1.0 + li * beta)
        down = rest / (rest + li * beta**2)
        if up <= c or down <= c:
            raise ModelError(f"infeasible: type {i} effects ({up:.6f}, {down:.6f}) vs c={c}")
    return scenario


def prop4_profile(scenario: Scenario) -> StrategyProfile:
    """Play a=1 at covariate value 1 and a=0 at 0 and at #."""
    sig = np.zeros((2, 3))
    sig[:, 1] = 1.0
    return StrategyProfile((sig, sig))


def prop5(gamma: float = 0.5, eps: float = 0.001, c: float = 0.9) -> Scenario:
    """Unrestricted outcome kernel: nearly-total loss becomes sustainable.

    Four positive-mass rows over (t, x1, x2) with a deterministic outcome:
    (0,1,1) mass 1-gamma-eps with y=1; (1,0,0) mass gamma-eps with y=1;
    (0,1,0) and (1,0,1) mass eps each with y=0.  Playing a = own covariate
    mismatches the taste with probability exactly 1-eps.
    """
    if not 0 < eps < min(gamma, 1.0 - gamma):
        raise ModelError("need 0 < eps < min(gamma, 1-gamma)")
    ptx = np.zeros((2, 2, 2))
    ptx[0, 1, 1] = 1.0 - gamma - eps
    ptx[1, 0, 0] = gamma - eps
    ptx[0, 1, 0] = eps
    ptx[1, 0, 1] = eps
    kernel = np.zeros((2, 2, 2))
    kernel[0, 1, 1] = 1.0
    kernel[1, 0, 0] = 1.0
    scenario = Scenario(("x1", "x2"), (2, 2), ptx, kernel, _pair("x1", "x2"), (0.5, 0.5), c)
    up = (1.0 - gamma - eps) / (1.0 - gamma - eps + eps / 2)
    down = (gamma - eps) / (gamma - eps + eps / 2)
    if up <= c or down <= c:
        raise ModelError(f"infeasible: perceived effects ({up:.6f}, {down:.6f}) vs c={c}")
    return scenario


def prop5_profile(scenario: Scenario) -> StrategyProfile:
    """Both types play a = own covariate at either taste."""
    sig = np.array([[0.0, 1.0], [0.0, 1.0]])
    return StrategyProfile((sig, sig))


def matching_on_own_covariate(scenario: Scenario) -> StrategyProfile:
    """a = own (single, binary) conditioning covariate, taste-independent."""
    sigmas = []
    for i in range(scenario.n_types):
        shape = scenario.sigma_shape(i)
        if shape != (2, 2):
            raise ModelError("profile helper expects one binary covariate per type")
        sigmas.append(np.array([[0.0, 1.0], [0.0, 1.0]]))
    return StrategyProfile(tuple(sigmas))


def pandemic(q: float = 0.8, lambda1: float = 0.5, c: float = 0.3) -> Scenario:
    """Action with a real direct effect plus a self-sorting covariate.

    One binary covariate x with p(x=1) = 1/2 and p(t=x | x) = q: tastes lean
    toward the action exactly where the action's indirect companion z = 1-x
    is weak.  The outcome mixes the action (weight beta=1/2) with z.  A type
    that controls for x reads the direct effect correctly; the blind type
    sees action-takers drawn from x=1 and discounts the action accordingly.
    """
    if not 0.5 < q < 1 or not 0 < lambda1 < 1:
        raise ModelError("need q in (1/2, 1) and an interior type mix")
    ptx = np.array([[q / 2, (1.0 - q) / 2], [(1.0 - q) / 2, q / 2]])
    kernel = np.array([[1.0, 0.0], [1.0, 0.0]])  # z = 1 - x at either taste
    types = (DataTypeSpec(("x1",), ("x1",)), DataTypeSpec((), ()))
    return Scenario(
        ("x1",),
        (2,),
        ptx,
        kernel,
        types,
        (lambda1, 1.0 - lambda1),
        c,
        outcome_kind="consequential",
        beta=0.5,
    )


def pandemic_profile(scenario: Scenario) -> StrategyProfile:
    """Seeing type always acts; blind type follows its taste."""
    return StrategyProfile((np.ones((2, 2)), np.array([0.0, 1.0])))


def pandemic_corner_profile(scenario: Scenario) -> StrategyProfile:
    """Everyone acts at both tastes."""
    return StrategyProfile((np.ones((2, 2)), np.ones(2)))


def as_consequential(scenario: Scenario, beta: float) -> Scenario:
    """Give the action a direct outcome weight while keeping taste-0 choices.

    The new outcome is a coin that follows the action with probability beta
    and the old outcome channel otherwise.  The mismatch cost is rescaled to
    beta + (1-beta)c so that the taste-0 score scales by (1-beta): every
    taste-0 tie stays a tie and every strict taste-0 reply is the baseline's,
    but the tie band is absolute, so a strict reply near it may become a tie.
    """
    if scenario.outcome_kind != "baseline":
        raise ModelError("only baseline scenarios can be converted")
    return Scenario(
        scenario.x_names,
        scenario.x_cards,
        scenario.ptx,
        scenario.kernel,
        scenario.types,
        scenario.lam,
        beta + (1.0 - beta) * scenario.c,
        outcome_kind="consequential",
        beta=beta,
    )
