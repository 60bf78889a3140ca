"""Hand-built loss witnesses, heuristic max-loss search, and bound checks.

The witness constructors build the explicit scenario/profile pairs whose
welfare loss is known in closed form, attach those closed forms as claims,
and leave re-verification to the equilibrium module: nothing in a
:class:`WitnessInstance` is trusted until :func:`reverify` and
:func:`check_annotations` have recomputed it from primitives.

:func:`search_max_loss` is a derivative-free multi-restart search over
scenario families (type structure held per restart, continuous parameters
reparameterized through softmax/sigmoid so every draw is feasible), with an
inner solve that collects verified equilibria by exhaustive pure enumeration
when small enough plus damped best-reply dynamics from a batch of starts.
It is a heuristic: it reports the best *verified* instance found and makes
no global optimality claim.  :func:`check_bound` wraps it to compare a
family's best found value against a closed-form ceiling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _engine as eng
from .causal import delta_table
from .equilibrium import (
    EquilibriumReport,
    dynamics_starts,
    enumerate_pure_equilibria,
    solve,
    verify_limit,
)
from .model import (
    DataTypeSpec,
    ModelError,
    Scenario,
    StrategyProfile,
    error_probability,
    induced_joint,
    welfare_loss,
)
from .ordering import build_relation, is_complete, is_quasitransitive
from .scenarios import (
    matching_on_own_covariate,
    prop2_cycle,
    prop2_incomplete,
    prop4,
    prop4_profile,
    prop5,
    prop5_profile,
)

__all__ = [
    "WorstCaseError",
    "DeltaAnnotation",
    "PosteriorAnnotation",
    "WitnessInstance",
    "SearchConfig",
    "SearchRecord",
    "BoundReport",
    "witness_incomplete",
    "witness_cycle",
    "witness_incomplete_hetero",
    "witness_full_loss",
    "reverify",
    "check_annotations",
    "instance_digest",
    "random_scenario",
    "verified_equilibria",
    "search_max_loss",
    "check_bound",
]


class WorstCaseError(ValueError):
    """Invalid witness parameters or inconsistent search constraints."""


@dataclass(frozen=True)
class DeltaAnnotation:
    """A closed-form perceived-effect value pinned to one decision cell.

    ``trembled`` selects which profile the claim is evaluated at: the limit
    profile itself, or the witness's ``eps_profile`` (needed when the limit
    profile leaves the cell's effect undefined).
    """

    type_index: int
    cell: tuple[int, ...]
    value: float
    trembled: bool = False


@dataclass(frozen=True)
class PosteriorAnnotation:
    """A closed-form taste posterior p(t=1 | a=action, covariate=level) at the
    limit profile."""

    action: int
    covariate: str
    level: int
    value: float

    @property
    def label(self) -> str:
        return f"p(t=1 | a={self.action}, {self.covariate}={self.level})"


@dataclass(frozen=True, eq=False)
class WitnessInstance:
    """A scenario/profile pair with externally checkable loss claims: a limit
    claim is checked under ``schedule``, an exponent table (None: exact),
    which ``eps_profile`` realizes at the tremble level ``eps``."""

    scenario: Scenario
    profile: StrategyProfile
    schedule: np.ndarray | None
    claimed_verdict: str  # "equilibrium" (exact) or "equilibrium_limit"
    claimed_loss: float
    claimed_error_probability: float
    delta_annotations: tuple[DeltaAnnotation, ...] = ()
    posterior_annotations: tuple[PosteriorAnnotation, ...] = ()
    eps: float | None = None
    notes: str = ""

    @cached_property
    def compiled(self) -> eng.CompiledScenario:
        """The witness's compiled scenario, shared by ``reverify`` and
        ``check_annotations``."""
        return eng.compile_scenario(self.scenario)

    @cached_property
    def eps_profile(self) -> StrategyProfile | None:
        """The profile trembled by the witness's schedule at ``eps``, the
        rung the engine's ladder would check there; None without an ``eps``."""
        if self.eps is None:
            return None
        cs = self.compiled
        sigma = eng.flatten_profile(cs, self.profile).reshape(-1, 1)
        exponents = eng.cell_exponents(eng.schedule_table(cs, self.schedule), cs.offsets)
        return eng.unflatten_profile(cs, eng.apply_compiled_trembles(sigma, exponents, self.eps))


def reverify(witness: WitnessInstance) -> EquilibriumReport:
    """Re-run the equilibrium verdict from primitives, ignoring all claims.

    An exact-equilibrium claim is checked as the constant sequence (no
    schedule); a limit claim is checked under the witness's own schedule.
    Either way the report must come back ``equilibrium_limit``.
    """
    return verify_limit(witness.compiled, witness.profile, witness.schedule)


def check_annotations(witness: WitnessInstance) -> float:
    """Max |closed form - computed| over the witness's effect and posterior
    annotations; effects are read from one delta table per annotated
    profile, posteriors recomputed from the induced joint."""
    tables = {}  # trembled flag -> the delta tables of that profile
    worst = 0.0
    for ann in witness.delta_annotations:
        if ann.trembled not in tables:
            prof = witness.eps_profile if ann.trembled else witness.profile
            if prof is None:
                raise WorstCaseError("annotation marked trembled but the witness has no eps")
            tables[ann.trembled] = delta_table(witness.compiled, prof)
        if not 0 <= ann.type_index < witness.scenario.n_types:
            raise ModelError(f"no type with index {ann.type_index}")
        got = tables[ann.trembled][ann.type_index].delta_at(ann.cell)
        if got is None:
            raise WorstCaseError(
                f"annotated effect undefined at type {ann.type_index}, cell {ann.cell}"
            )
        worst = max(worst, abs(got - ann.value))
    if witness.posterior_annotations:
        joint = induced_joint(witness.compiled, witness.profile)
    for post in witness.posterior_annotations:
        at = joint.marginalize(("t", post.covariate, "a")).probs[:, post.level, post.action]
        if not at.sum() > 0:
            raise WorstCaseError(f"annotated posterior {post.label} conditions on a null event")
        worst = max(worst, abs(at[1] / at.sum() - post.value))
    return worst


# -- explicit witnesses -------------------------------------------------------


def witness_incomplete(
    eps: float = 0.01, lambda1: float = 0.5, c: float = 0.9
) -> WitnessInstance:
    """Two mutually blind types locked into acting on rare-cell evidence.

    Each type's perceived effect of the action at "own covariate = 1" is
    (1-eps)/(1-eps + lambda_i eps/2): the other type's abstention on the
    disagreement cells is read as the action failing, so acting looks almost
    fully productive even though the true effect is zero.  The tastes are
    constant, making every unit of action pure waste: loss c(1 - eps/2).
    """
    scenario = prop2_incomplete(eps, lambda1, c)
    profile = matching_on_own_covariate(scenario)
    anns = []
    for i, li in enumerate(scenario.lam):
        anns.append(DeltaAnnotation(i, (1,), (1.0 - eps) / (1.0 - eps + li * eps / 2)))
        anns.append(DeltaAnnotation(i, (0,), 0.0))
    return WitnessInstance(
        scenario=scenario,
        profile=profile,
        schedule=None,
        claimed_verdict="equilibrium",
        claimed_loss=c * (1.0 - eps / 2),
        claimed_error_probability=1.0 - eps / 2,
        delta_annotations=tuple(anns),
        notes="unordered pair of types; a = own covariate is self-confirming",
    )


def witness_cycle(
    eps: float = 0.01,
    lambdas: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
    c: float = 0.9,
) -> WitnessInstance:
    """Three types whose strict data-dominance forms a cycle; same trap.

    Type i's effect at "own covariate = 1" factors into the chance that the
    one covariate it does see is also 1, times the misread success rate on
    that sub-table; the spoiler weight below is the mass of the type whose
    covariate lies outside type i's data and whose abstention poisons the
    do(1) column.
    """
    scenario = prop2_cycle(eps, lambdas, c)
    profile = matching_on_own_covariate(scenario)
    lam = scenario.lam
    spoiler = {0: 2, 1: 0, 2: 1}
    shrink = (1.0 - 2 * eps / 3) / (1.0 - eps / 3)
    anns = []
    for i in range(3):
        top = shrink * (1.0 - eps) / (1.0 - eps + (eps / 3) * (1.0 - lam[spoiler[i]]))
        anns.append(DeltaAnnotation(i, (1,), top))
        anns.append(DeltaAnnotation(i, (0,), 0.0))
    return WitnessInstance(
        scenario=scenario,
        profile=profile,
        schedule=None,
        claimed_verdict="equilibrium",
        claimed_loss=c * (1.0 - eps / 3),
        claimed_error_probability=1.0 - eps / 3,
        delta_annotations=tuple(anns),
        notes="cyclic dominance among three types; a = own covariate",
    )


def witness_incomplete_hetero(
    gamma: float = 0.6,
    beta: float = 0.01,
    eps: float = 0.001,
    lambdas: tuple[float, float] = (0.5, 0.5),
    c: float = 0.9,
) -> WitnessInstance:
    """Heterogeneous tastes, ternary covariates, loss approaching max(gamma, 1-gamma).

    The limit profile acts at covariate value 1 and abstains at 0 and #, so
    its effect at # is undefined; its schedule ``[[1, 1], [6, 6]]`` trembles
    taste-0 cells at noise and taste-1 cells at noise^6, which keeps the #
    belief pinned at exactly zero while the 0-vs-1 contrast stays decisive.
    The witness's ``eps_profile`` realizes the schedule at ``eps``.
    """
    if not 0 < eps < 1:
        raise ModelError("need eps in (0,1)")
    scenario = prop4(gamma, beta, lambdas, c)
    profile = prop4_profile(scenario)
    anns = (
        DeltaAnnotation(0, (2,), 0.0, trembled=True),
        DeltaAnnotation(1, (2,), 0.0, trembled=True),
    )
    posteriors = (PosteriorAnnotation(1, "x1", 1, beta / (beta + lambdas[0] * beta**2)),)
    errprob = gamma - beta - beta**2
    return WitnessInstance(
        scenario=scenario,
        profile=profile,
        schedule=np.array([[1.0, 1.0], [6.0, 6.0]]),
        claimed_verdict="equilibrium_limit",
        claimed_loss=c * errprob,
        claimed_error_probability=errprob,
        delta_annotations=anns,
        posterior_annotations=posteriors,
        eps=eps,
        notes="mismatch at the limit: all of (t=1, 0, 0) errs plus one "
        "rare row per type; claims are for the limit profile",
    )


def witness_full_loss(gamma: float = 0.5, eps: float = 0.001, c: float = 0.9) -> WitnessInstance:
    """Unrestricted outcome kernel sustaining mismatch probability 1 - eps.

    Both types read their own covariate as the action's effect because the
    outcome is engineered to covary with the covariates, not the action:
    effect +(1-gamma-eps)/(1-gamma-eps+eps/2) at covariate 1 and
    -(gamma-eps)/(gamma-eps+eps/2) at covariate 0, so acting at 1 and
    abstaining at 0 both look strictly optimal while matching the taste
    with probability only eps.
    """
    scenario = prop5(gamma, eps, c)
    profile = prop5_profile(scenario)
    up = (1.0 - gamma - eps) / (1.0 - gamma - eps + eps / 2)
    down = -(gamma - eps) / (gamma - eps + eps / 2)
    anns = []
    for i in (0, 1):
        anns.append(DeltaAnnotation(i, (1,), up))
        anns.append(DeltaAnnotation(i, (0,), down))
    return WitnessInstance(
        scenario=scenario,
        profile=profile,
        schedule=None,
        claimed_verdict="equilibrium",
        claimed_loss=c * (1.0 - eps),
        claimed_error_probability=1.0 - eps,
        delta_annotations=tuple(anns),
        notes="outcome tracks the covariates; a = own covariate mismatches "
        "the taste with probability exactly 1 - eps",
    )


# -- search over scenario families --------------------------------------------


_P_STRUCTURES = ("complete_qt", "incomplete", "free")
_METRICS = ("welfare_loss", "error_probability")

# Per-scenario budgets: dynamics iteration cap, the pure-profile count up to
# which equilibria are also enumerated, the probes per refinement round, and
# the most stacked condition cells a family may draw.
_MAX_ITERS = 400
_ENUMERATION_LIMIT = 1 << 12
_REFINE_PROBES = 6
_MAX_CELLS = 1 << 10

# Slack for roundoff when a found value is compared against a ceiling.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Family constraints plus budgets for the max-loss search.

    ``gamma`` fixes the high-taste probability (None leaves it free),
    ``t_only_outcome`` restricts the outcome kernel to depend on the taste
    alone, ``simple_types`` forces every type to condition on all of its
    data, and ``p_structure`` constrains the dominance relation of the drawn
    type structure.  Continuous parameters are drawn as unconstrained reals
    at scale ``param_scale`` and mapped through softmax/sigmoid, so every
    draw is a valid scenario.
    """

    gamma: float | None = None
    t_only_outcome: bool = False
    simple_types: bool = True
    p_structure: str = "complete_qt"
    n_covariates: int = 2
    n_types: int = 2
    c: float = 0.9
    restarts: int = 200
    seed: int = 0
    param_scale: float = 2.0
    refine_top: int = 4
    refine_rounds: int = 30
    metric: str = "welfare_loss"

    def __post_init__(self) -> None:
        if self.p_structure not in _P_STRUCTURES:
            raise WorstCaseError(f"unknown p_structure {self.p_structure!r}")
        if self.metric not in _METRICS:
            raise WorstCaseError(f"unknown metric {self.metric!r}")
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            raise WorstCaseError("fixed gamma must lie in [0, 1)")
        if not 0.0 < self.c < 1.0:
            raise WorstCaseError("c must lie in (0, 1)")
        for name in ("n_covariates", "n_types", "restarts", "seed", "refine_top", "refine_rounds"):
            if not eng.is_integer(getattr(self, name)):
                raise WorstCaseError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_covariates < 1 or self.n_types < 1:
            raise WorstCaseError("need at least one covariate and one type")
        # a draw stacks at most n_types * 2**n_covariates condition cells S,
        # and its (2S x 2D) float64 mass_map is 32 MiB at S = D = _MAX_CELLS
        if self.n_covariates > 10 or self.n_types << self.n_covariates > _MAX_CELLS:
            raise WorstCaseError(f"n_types * 2**n_covariates must not exceed {_MAX_CELLS}")
        if self.p_structure == "incomplete" and (self.n_covariates < 2 or self.n_types != 2):
            raise WorstCaseError(
                "an incomplete structure needs exactly two types on disjoint covariates"
            )
        if self.p_structure == "complete_qt" and self.n_types > self.n_covariates + 1:
            raise WorstCaseError(
                "a distinct nested chain supports at most n_covariates + 1 types"
            )
        if self.restarts < 1:
            raise WorstCaseError("restarts must be positive")
        if self.seed < 0:
            raise WorstCaseError("seed must be nonnegative")
        if not 0.0 < self.param_scale < np.inf:
            raise WorstCaseError("param_scale must be positive and finite")
        if self.refine_top < 0 or self.refine_rounds < 0:
            raise WorstCaseError("refine_top and refine_rounds must be nonnegative")


@dataclass(frozen=True)
class SearchRecord:
    """One evaluated candidate: restart draws and adopted refinements."""

    index: int
    phase: str  # "restart" | "refine"
    value: float
    loss: float
    error_probability: float
    digest: str


@dataclass(frozen=True)
class BoundReport:
    """Outcome of comparing a family's best found value against a ceiling."""

    config: SearchConfig
    metric: str
    bound_value: float
    observed: float
    violated: bool
    best: WitnessInstance
    trace: tuple[SearchRecord, ...]


@dataclass(frozen=True)
class _Structure:
    x_names: tuple[str, ...]
    x_cards: tuple[int, ...]
    types: tuple[DataTypeSpec, ...]


def _chain_subsets(names: Sequence[str], n: int, rng: np.random.Generator) -> list[tuple[str, ...]]:
    # distinct sizes along one permutation give a strictly nested chain
    perm = [names[int(i)] for i in rng.permutation(len(names))]
    sizes = sorted(int(s) for s in rng.choice(len(names) + 1, size=n, replace=False))
    return [tuple(sorted(perm[:size])) for size in sizes]


def _draw_structure(cfg: SearchConfig, rng: np.random.Generator) -> _Structure:
    names = tuple(f"x{i + 1}" for i in range(cfg.n_covariates))
    cards = (2,) * cfg.n_covariates
    if cfg.p_structure == "incomplete":
        perm = [names[int(i)] for i in rng.permutation(len(names))]
        cut = 1 + int(rng.integers(len(names) - 1))
        g1, g2 = tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:]))
        types = (DataTypeSpec(g1, g1), DataTypeSpec(g2, g2))
        rel = build_relation(types)
        if is_complete(rel):
            raise WorstCaseError("internal error: incomplete draw came out complete")
        return _Structure(names, cards, types)
    if cfg.p_structure == "complete_qt":
        chain = _chain_subsets(names, cfg.n_types, rng)
        if cfg.simple_types:
            types = tuple(DataTypeSpec(s, s) for s in chain)
        else:
            smallest = sorted(chain[0])
            conds = []
            for s in chain:
                k = int(rng.integers(0, len(smallest) + 1))
                # tolist: plain str names, not numpy.str_ (whose repr enters digests)
                picked = sorted(rng.choice(smallest, size=k, replace=False).tolist()) if k else []
                conds.append(tuple(picked))
            types = tuple(DataTypeSpec(cond, s) for cond, s in zip(conds, chain))
        rel = build_relation(types)
        if not (is_complete(rel) and is_quasitransitive(rel)):
            raise WorstCaseError("internal error: chain draw not complete+quasitransitive")
        return _Structure(names, cards, types)
    # free: arbitrary condition-within-data pairs, redrawn until distinct
    for _ in range(64):
        types = []
        for _ in range(cfg.n_types):
            mask = rng.random(len(names)) < 0.6
            data = tuple(n for n, m in zip(names, mask) if m)
            sub = rng.random(len(data)) < 0.7
            cond = data if cfg.simple_types else tuple(n for n, m in zip(data, sub) if m)
            types.append(DataTypeSpec(cond, data))
        if len(set(types)) == cfg.n_types:
            return _Structure(names, cards, tuple(types))
    raise WorstCaseError("could not draw distinct types for the free structure")


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def _theta_size(structure: _Structure, cfg: SearchConfig) -> int:
    nx = int(np.prod(structure.x_cards))
    n_kernel = 2 if cfg.t_only_outcome else 2 * nx
    return 2 * nx + n_kernel + len(structure.types)


def _materialize(structure: _Structure, cfg: SearchConfig, theta: np.ndarray) -> Scenario:
    nx = int(np.prod(structure.x_cards))
    shape = (2,) + structure.x_cards
    k = 0
    pt_logits = theta[k : k + 2 * nx]
    k += 2 * nx
    if cfg.gamma is None:
        ptx = _softmax(pt_logits).reshape(shape)
    else:
        px0 = _softmax(pt_logits[:nx]).reshape(structure.x_cards)
        px1 = _softmax(pt_logits[nx:]).reshape(structure.x_cards)
        ptx = np.stack([(1.0 - cfg.gamma) * px0, cfg.gamma * px1])
    if cfg.t_only_outcome:
        py = 1.0 / (1.0 + np.exp(-theta[k : k + 2]))
        k += 2
        kernel = np.broadcast_to(py.reshape((2,) + (1,) * len(structure.x_cards)), shape).copy()
    else:
        kernel = (1.0 / (1.0 + np.exp(-theta[k : k + 2 * nx]))).reshape(shape)
        k += 2 * nx
    lam = _softmax(theta[k : k + len(structure.types)])
    return Scenario(
        structure.x_names,
        structure.x_cards,
        ptx,
        kernel,
        structure.types,
        tuple(float(v) for v in lam),
        cfg.c,
    )


def random_scenario(cfg: SearchConfig, rng: np.random.Generator) -> Scenario:
    """One draw from the family ``cfg`` describes; feasible by construction."""
    structure = _draw_structure(cfg, rng)
    theta = rng.normal(scale=cfg.param_scale, size=_theta_size(structure, cfg))
    return _materialize(structure, cfg, theta)


def verified_equilibria(
    scenario: Scenario,
    rng: np.random.Generator,
    inner_inits: int = 12,
) -> list[tuple[StrategyProfile, EquilibriumReport]]:
    """Collect verified limit equilibria of one scenario.

    Exhaustive over pure profiles when the number of active (taste, cell)
    slots permits, then ``solve`` from taste-matching, constant, and random
    starts, which certifies each distinct rest point enumeration did not
    already list.
    Enumeration's equilibria come first.  Coverage of mixed equilibria is
    heuristic.
    """
    cs = eng.compile_scenario(scenario)
    _, starts = dynamics_starts(cs, rng, inner_inits)
    n_slots = int(cs.active.sum())
    enumerable = n_slots < 63 and 2**n_slots <= _ENUMERATION_LIMIT
    known = enumerate_pure_equilibria(scenario) if enumerable else ()
    return solve(cs, starts, _MAX_ITERS, known)[1]


def instance_digest(scenario: Scenario, profile: StrategyProfile) -> str:
    """Canonical content hash used for deterministic tiebreaks; the outcome
    convention enters only off the baseline, where it can vary."""
    h = hashlib.sha256()
    h.update(repr(scenario.x_names).encode())
    h.update(repr(scenario.x_cards).encode())
    for spec in scenario.types:
        h.update(repr((spec.condition_set, spec.data_set)).encode())
    h.update(repr(scenario.lam).encode())
    h.update(repr(scenario.c).encode())
    if scenario.outcome_kind != "baseline":
        h.update(repr((scenario.outcome_kind, scenario.beta)).encode())
    h.update(scenario.ptx.tobytes())
    h.update(scenario.kernel.tobytes())
    for sig in profile.sigmas:
        h.update(np.asarray(sig, dtype=float).tobytes())
    return h.hexdigest()


@dataclass(eq=False)
class _Candidate:
    value: float
    loss: float
    errprob: float
    digest: str
    structure: _Structure
    theta: np.ndarray
    scenario: Scenario
    profile: StrategyProfile | None
    report: EquilibriumReport | None

    @property
    def rank(self) -> tuple[float, str]:
        """The search's ranking rule: higher value first, then lower digest."""
        return (-self.value, self.digest)

    def beats(self, other: "_Candidate") -> bool:
        return self.rank < other.rank


def _evaluate(
    structure: _Structure,
    theta: np.ndarray,
    cfg: SearchConfig,
    rng: np.random.Generator,
) -> _Candidate:
    scenario = _materialize(structure, cfg, theta)
    best = _Candidate(-math.inf, -math.inf, -math.inf, "", structure, theta, scenario, None, None)
    for prof, rep in verified_equilibria(scenario, rng):
        value = rep.welfare_loss if cfg.metric == "welfare_loss" else rep.error_probability
        cand = _Candidate(
            value, rep.welfare_loss, rep.error_probability, instance_digest(scenario, prof),
            structure, theta, scenario, prof, rep,
        )
        if cand.beats(best):
            best = cand
    return best


def search_max_loss(cfg: SearchConfig) -> tuple[WitnessInstance, tuple[SearchRecord, ...]]:
    """Multi-restart, derivative-free search for the family's worst equilibrium.

    Each restart draws a type structure and unconstrained parameters, solves
    for verified equilibria, and scores the worst one under ``cfg.metric``.
    The top candidates then undergo random-direction pattern refinement with
    a shrinking step.  Deterministic given ``cfg.seed``; candidates tied on
    the metric are merged by lexicographic digest order.
    """
    root = np.random.SeedSequence(cfg.seed)
    seeds = root.spawn(cfg.restarts + cfg.refine_top)
    trace: list[SearchRecord] = []
    candidates: list[_Candidate] = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(seeds[r])
        structure = _draw_structure(cfg, rng)
        theta = rng.normal(scale=cfg.param_scale, size=_theta_size(structure, cfg))
        cand = _evaluate(structure, theta, cfg, rng)
        trace.append(
            SearchRecord(r, "restart", cand.value, cand.loss, cand.errprob, cand.digest)
        )
        candidates.append(cand)

    candidates.sort(key=lambda c: c.rank)
    best = candidates[0]
    for rank, cand in enumerate(candidates[: cfg.refine_top]):
        if cand.profile is None:
            continue
        rng = np.random.default_rng(seeds[cfg.restarts + rank])
        current = cand
        step = cfg.param_scale / 2
        for round_ in range(cfg.refine_rounds):
            improved = None
            for _ in range(_REFINE_PROBES):
                probe_theta = current.theta + step * rng.normal(size=current.theta.shape)
                probe = _evaluate(current.structure, probe_theta, cfg, rng)
                if probe.profile is not None and probe.beats(current):
                    if improved is None or probe.beats(improved):
                        improved = probe
            if improved is not None:
                current = improved
                trace.append(
                    SearchRecord(
                        round_, "refine", current.value, current.loss,
                        current.errprob, current.digest,
                    )
                )
            else:
                step *= 0.6
        if current.beats(best):
            best = current

    if best.profile is None or best.report is None:
        raise WorstCaseError("internal error: no verified equilibrium in any restart")
    witness = WitnessInstance(
        scenario=best.scenario,
        profile=best.profile,
        schedule=best.report.schedule,
        claimed_verdict="equilibrium_limit",
        claimed_loss=best.report.welfare_loss,
        claimed_error_probability=best.report.error_probability,
        notes=f"search best (seed={cfg.seed}, restarts={cfg.restarts}, metric={cfg.metric})",
    )
    return witness, tuple(trace)


def check_bound(family: SearchConfig, bound: Callable[[float], float] | float) -> BoundReport:
    """Search the family and compare its best value against a ceiling.

    ``bound`` is either a constant or a function of the family's fixed
    gamma.  A violation (a best value above the ceiling by more than
    ``BOUND_TOL``) means a verified equilibrium beat a proven ceiling,
    which can only be a bug in the implementation (or a family outside the
    ceiling's hypotheses) — callers should treat it as fatal.  A ceiling
    that is not finite (NaN can never be exceeded) raises ``WorstCaseError``
    before the search runs.

    The paper's ceiling gamma (1 - gamma) bounds the welfare loss.  Its
    error-probability form holds in Example 4.1 and its taste mirror only
    for c >= 1 / (1 + min(gamma, 1 - gamma)): at (gamma, c) = (0.3, 0.5) the
    interior equilibrium has error probability 0.30 > 0.21.
    """
    if callable(bound):
        if family.gamma is None:
            raise WorstCaseError("a gamma-dependent bound needs the family's gamma fixed")
        bound_value = float(bound(family.gamma))
    else:
        bound_value = float(bound)
    if not math.isfinite(bound_value):
        raise WorstCaseError(f"the ceiling must be a finite number, got {bound_value!r}")
    best, trace = search_max_loss(family)
    observed = (
        best.claimed_loss if family.metric == "welfare_loss" else best.claimed_error_probability
    )
    return BoundReport(
        config=family,
        metric=family.metric,
        bound_value=bound_value,
        observed=observed,
        violated=bool(observed > bound_value + BOUND_TOL),
        best=best,
        trace=trace,
    )
