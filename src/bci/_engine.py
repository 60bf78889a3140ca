"""Vectorized verification core.

Everything expensive in the package funnels through here: perceived-effect
computation, best-reply tests, tremble ladders, best-response dynamics, and
pure-profile enumeration all operate on flat ``(batch..., 2, n_cells)``
strategy arrays so that batches of profiles (dynamics inits, enumeration
chunks, ladder rungs) ride one set of matrix products.

Index conventions
-----------------
Covariate cells are raveled C-order over ``x_cards``; each type's condition
and data cells are raveled C-order over that type's covariates in covariate
order.  The *stacked* cell axis concatenates every type's condition cells in
type order (``CompiledScenario.offsets`` marks the blocks), and the stacked
data axis does the same for data cells.

Compiled linear map
-------------------
Every data moment a perceived effect needs is linear in the strategies:
the mass ``p(a, x_D)`` and the outcome mass ``p(a, y=1, x_D)`` of each
type's data cell are sums over (taste, covariate cell) of ``p(t, x)``,
the outcome kernel and the type weight times the probability that the
playing type takes action ``a``.  ``compile_scenario`` folds all of that
into ``mass_map``, one matrix from the stacked strategy ``(2 tastes,
stacked cells)`` to every type's data-cell moments.  ``profile_effects``
multiplies it by the stacked pair ``[1 - sigma, sigma]``, so the a=0 mass is
the sum of each type's own ``lam * (1 - sigma)``: an exactly pure profile
leaves exactly zero mass on the unplayed action even when the type weights
sum to 1 only up to roundoff (``1 - sum(lam * sigma)`` would leave about
1e-16 there and call an unseen event observed).  One divide gives the
conditional outcome rates, one matmul with the block-diagonal ``adjust``
matrix averages them into beliefs, and one with the block-diagonal
``missing`` matrix flags condition cells that need an unseen event.

Dynamics
--------
``equilibrium._dynamics_batch`` iterates one ``(batch, 2, stacked cells)``
state array: scores, best-reply codes, step halving, convergence, snapping
and revisit keys are each one array operation for all types and starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .causal import tie_tolerance
from .model import Scenario, StrategyProfile, TrembleSchedule

DEFAULT_LADDER_START = 0.1
DEFAULT_LADDER_RATIO = 0.5
DEFAULT_LADDER_FLOOR = 1e-6
DEFAULT_TAIL_MIN = 6

# Dynamics evaluates best replies under a tiny internal flip so that effects
# stay identified; large floors would contaminate interior mixing points.
BR_FLOOR = 1e-10
CONVERGENCE_TOL = 1e-10

# "Played with probability > eps" is tested with this much slack: schedules
# routinely place mass of exactly eps on a non-best reply, and 1-(1-eps)
# reproduces eps only up to roundoff.
PLAY_SLACK = 1e-12


def ladder_rungs(
    start: float = DEFAULT_LADDER_START,
    ratio: float = DEFAULT_LADDER_RATIO,
    floor: float | None = None,
) -> np.ndarray:
    """Strictly decreasing geometric noise levels down to the floor."""
    if floor is None:
        env = os.environ.get("BCI_LADDER_FLOOR")
        floor = float(env) if env else DEFAULT_LADDER_FLOOR
    if not 0 < floor <= start < 1 or not 0 < ratio < 1:
        raise ValueError("need 0 < floor <= start < 1 and ratio in (0,1)")
    out = []
    eps = start
    while eps >= floor:
        out.append(eps)
        eps *= ratio
    return np.array(out)


@dataclass
class CompiledType:
    nc: int
    c_cards: tuple[int, ...]
    reachable: np.ndarray  # (nc,) bool
    tcm: np.ndarray  # (2, nc) taste-cell mass p(t, x_C)
    active: np.ndarray  # (2, nc) bool: tcm > 0


@dataclass
class CompiledScenario:
    scenario: Scenario
    types: list[CompiledType]
    score_base: np.ndarray  # (2,) = beta - c, beta + c
    effect_weight: float  # 1 - beta
    offsets: tuple[int, ...]  # n_types + 1 block bounds on the stacked cell axis
    reachable: np.ndarray  # (S,) bool, stacked over types
    active: np.ndarray  # (2, S) bool, stacked over types
    # (2 * S, 2 * D): stacked strategy, taste-major, -> [p(a, x_D) | p(a, y=1, x_D)]
    mass_map: np.ndarray
    adjust: np.ndarray  # (D, S) block-diagonal w_d * agg_c
    missing: np.ndarray  # (D, S) block-diagonal agg_c where w_d > 0


def _ravel_cells(cards: tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    """Ravel rows of per-variable coordinates into flat cell indices."""
    if not cards:
        return np.zeros(coords.shape[0], dtype=np.int64)
    return np.ravel_multi_index(tuple(coords.T), cards).astype(np.int64)


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    cards = tuple(scenario.x_cards)
    nx = int(np.prod(cards)) if cards else 1
    ptx = scenario.ptx.reshape(2, nx)
    kernel = scenario.kernel.reshape(2, nx)
    px = ptx.sum(axis=0)

    grid = np.indices(cards).reshape(len(cards), nx).T if cards else np.zeros((1, 0), int)
    compiled = []
    offsets = [0]
    # per type, in stacked indices: covariate cell -> condition cell, data
    # cell -> condition cell; and one-hot covariate cell -> data cell
    c_cols, adj_cols, in_d, w_d = [], [], [], []
    for i in range(scenario.n_types):
        c_axes = scenario.c_axes(i)
        d_axes = scenario.d_axes(i)
        c_cards = tuple(cards[k] for k in c_axes)
        d_cards = tuple(cards[k] for k in d_axes)
        nc = int(np.prod(c_cards)) if c_cards else 1
        nd = int(np.prod(d_cards)) if d_cards else 1
        x_to_d = _ravel_cells(d_cards, grid[:, list(d_axes)])
        # data cell -> condition cell (C ⊆ D, both in covariate order)
        d_grid = np.indices(d_cards).reshape(len(d_cards), nd).T if d_cards else np.zeros((1, 0), int)
        c_in_d = [d_axes.index(k) for k in c_axes]
        d_to_c = _ravel_cells(c_cards, d_grid[:, c_in_d])

        agg_d = np.zeros((nx, nd))
        agg_d[np.arange(nx), x_to_d] = 1.0
        agg_c = np.zeros((nd, nc))
        agg_c[np.arange(nd), d_to_c] = 1.0

        pd = px @ agg_d
        pc = pd @ agg_c
        pc_of_d = pc[d_to_c]
        w_d.append(np.divide(pd, pc_of_d, out=np.zeros_like(pd), where=pc_of_d > 0))
        tcm = ptx @ agg_d @ agg_c
        compiled.append(
            CompiledType(nc=nc, c_cards=c_cards, reachable=pc > 0, tcm=tcm, active=tcm > 0)
        )
        c_cols.append(offsets[-1] + d_to_c[x_to_d])
        adj_cols.append(offsets[-1] + d_to_c)
        in_d.append(agg_d)
        offsets.append(offsets[-1] + nc)

    n_s = offsets[-1]
    lam_x = np.zeros((nx, n_s))  # covariate cell -> stacked condition cells, times lam
    lam_x[np.arange(nx)[:, None], np.stack(c_cols, axis=1)] = scenario.lam
    in_d = np.concatenate(in_d, axis=1)  # covariate cell -> stacked data cells
    n_d = in_d.shape[1]
    moments = np.stack([ptx, ptx * kernel])  # (moment, taste, nx)
    mass_map = (lam_x.T * moments[:, :, None, :]) @ in_d  # (moment, taste, S, D)
    adjust = np.zeros((n_d, n_s))
    adjust[np.arange(n_d), np.concatenate(adj_cols)] = np.concatenate(w_d)

    beta, c = scenario.beta, scenario.c
    return CompiledScenario(
        scenario=scenario,
        types=compiled,
        score_base=np.array([beta - c, beta + c]),
        effect_weight=1.0 - beta,
        offsets=tuple(offsets),
        reachable=np.concatenate([ct.reachable for ct in compiled]),
        active=np.concatenate([ct.active for ct in compiled], axis=1),
        mass_map=mass_map.transpose(1, 2, 0, 3).reshape(2 * n_s, 2 * n_d),
        adjust=adjust,
        missing=(adjust > 0).astype(np.float64),
    )


# -- profile layout ---------------------------------------------------------


def flatten_profile(cs: CompiledScenario, profile: StrategyProfile) -> list[np.ndarray]:
    """Per-type strategy arrays reshaped to (2, nc)."""
    profile.conforms(cs.scenario)
    return [
        np.asarray(sig, dtype=np.float64).reshape(2, ct.nc)
        for sig, ct in zip(profile.sigmas, cs.types)
    ]


def unflatten_profile(cs: CompiledScenario, flats: list[np.ndarray]) -> StrategyProfile:
    sigmas = []
    for flat, ct in zip(flats, cs.types):
        sigmas.append(np.asarray(flat, dtype=np.float64).reshape((2,) + ct.c_cards))
    return StrategyProfile(tuple(sigmas))


def profile_key(flats) -> bytes:
    """Identity of a profile up to 10 decimals, for deduplicating rest points."""
    return b"".join(np.round(np.asarray(f), 10).tobytes() for f in flats)


# -- trembles ---------------------------------------------------------------

_TARGET_NONE = -1
_TARGET_ZERO = 0
_TARGET_ONE = 1
_TARGET_FLIP = 2
_TARGET_UNIFORM = 3

_CODE_OF_DIRECTION = {0: _TARGET_ZERO, 1: _TARGET_ONE, "flip": _TARGET_FLIP, "uniform": _TARGET_UNIFORM}


@dataclass
class CompiledSchedule:
    """Tremble rules as arrays: one (exponent, target-code) pair per slice."""

    exponents: list[np.ndarray]  # per type: (..., 2) broadcastable to batch
    codes: list[np.ndarray]  # per type: (2,) ints

    @classmethod
    def from_schedule(cls, cs: CompiledScenario, schedule: TrembleSchedule) -> "CompiledSchedule":
        exps, codes = [], []
        for i in range(len(cs.types)):
            e = np.ones(2)
            k = np.full(2, _TARGET_NONE)
            for taste in (0, 1):
                spec = schedule.spec_for(i, taste)
                if spec is not None:
                    e[taste] = spec.exponent
                    k[taste] = _CODE_OF_DIRECTION[spec.direction]
            exps.append(e)
            codes.append(k)
        return cls(exps, codes)

    @property
    def is_empty(self) -> bool:
        return all((k == _TARGET_NONE).all() for k in self.codes)


def taste_weighted_schedule(cs: CompiledScenario, flats: list[np.ndarray]) -> CompiledSchedule:
    """Flip trembles that fade faster where the slice already matches taste.

    Slices whose majority action over active cells equals the taste get
    exponent 2 (second-order noise); others get exponent 1.  This mirrors the
    natural construction for taste-driven corner profiles, where the
    taste-matching side must tremble an order slower to keep the perceived
    effect alive.
    """
    exps, codes = [], []
    for flat, ct in zip(flats, cs.types):
        weights = np.where(ct.active, ct.tcm, 0.0)
        total = weights.sum(axis=-1, keepdims=True)
        share = np.divide(
            (flat * weights).sum(axis=-1, keepdims=True),
            total,
            out=np.full(flat.shape[:-1] + (1,), 0.5),
            where=total > 0,
        )[..., 0]
        majority = share >= 0.5  # (..., 2) per-taste majority action
        taste_axis = np.arange(2).reshape((1,) * (majority.ndim - 1) + (2,))
        exps.append(np.where(majority == (taste_axis == 1), 2.0, 1.0))
        codes.append(np.full(2, _TARGET_FLIP))
    return CompiledSchedule(exps, codes)


def apply_compiled_trembles(
    flats: list[np.ndarray], sched: CompiledSchedule, eps: np.ndarray
) -> list[np.ndarray]:
    """Trembled copies of per-type arrays at noise levels ``eps``.

    ``eps`` may be scalar or (R,); with (R,) the output gains a leading rung
    axis: (R, batch..., 2, nc).
    """
    eps = np.asarray(eps, dtype=np.float64)
    rung_shape = eps.shape  # () or (R,)
    out = []
    for flat, e, code in zip(flats, sched.exponents, sched.codes):
        has = code != _TARGET_NONE
        expanded_code = np.broadcast_to(code.reshape((2, 1)), flat.shape)
        tgt = np.where(expanded_code == _TARGET_ONE, 1.0, 0.0)
        tgt = np.where(expanded_code == _TARGET_UNIFORM, 0.5, tgt)
        tgt = np.where(expanded_code == _TARGET_FLIP, np.where(flat >= 0.5, 0.0, 1.0), tgt)
        e_full = np.broadcast_to(np.asarray(e)[..., None], flat.shape)
        eps_full = eps.reshape(rung_shape + (1,) * flat.ndim)
        m = np.minimum(eps_full**e_full, 1.0)
        m = np.where(np.broadcast_to(has.reshape((2, 1)), flat.shape), m, 0.0)
        out.append((1.0 - m) * flat + m * tgt)
    return out


def flip_floor(flats: list[np.ndarray], floor: float = BR_FLOOR) -> list[np.ndarray]:
    """Full-support copies: mix a hair of the opposite pure action everywhere."""
    return [
        (1.0 - floor) * flat + floor * np.where(flat >= 0.5, 0.0, 1.0) for flat in flats
    ]


# -- perceived effects and best replies ------------------------------------


def split_cells(cs: CompiledScenario, stacked: np.ndarray) -> list[np.ndarray]:
    """Per-type views of an array whose last axis is the stacked cell axis."""
    return [stacked[..., a:b] for a, b in zip(cs.offsets[:-1], cs.offsets[1:])]


def join_effects(effects) -> tuple[np.ndarray, np.ndarray]:
    """Per-type (delta, defined) pairs back on the stacked cell axis."""
    return (
        np.concatenate([d for d, _ in effects], axis=-1),
        np.concatenate([ok for _, ok in effects], axis=-1),
    )


def profile_effects(cs: CompiledScenario, flats: list[np.ndarray]):
    """Per-type (delta, defined) lists for a batch of profiles.

    ``flats`` holds per-type arrays shaped (batch..., 2, nc); every type and
    every batch entry goes through the compiled maps in one pass.  delta is
    0 where undefined.
    """
    stacked = np.concatenate(flats, axis=-1)
    lead, n_s = stacked.shape[:-2], stacked.shape[-1]
    n_d = cs.adjust.shape[0]
    sigma = stacked.reshape(-1, 1, 2 * n_s)
    both = np.concatenate([1.0 - sigma, sigma], axis=1)  # (n, action, 2 * S)
    moments = (both.reshape(-1, 2 * n_s) @ cs.mass_map).reshape(-1, 2, 2 * n_d)
    mass, ymass = moments[..., :n_d], moments[..., n_d:]
    seen = mass > 0
    cond = np.divide(ymass, mass, out=np.zeros_like(mass), where=seen)
    belief = (cond.reshape(-1, n_d) @ cs.adjust).reshape(-1, 2, n_s)
    unseen = (~seen).any(axis=1).astype(np.float64)
    defined = ((unseen @ cs.missing) == 0) & cs.reachable
    delta = np.where(defined, belief[:, 1] - belief[:, 0], 0.0).reshape(lead + (n_s,))
    return list(zip(split_cells(cs, delta), split_cells(cs, defined.reshape(lead + (n_s,)))))


def check_rungs(
    cs: CompiledScenario,
    trembled: list[np.ndarray],
    eps: np.ndarray,
    tie_tol: float,
):
    """Definition test for trembled profiles at matching noise thresholds.

    ``trembled`` arrays are (R, batch..., 2, nc); ``eps`` is (R,).  Returns
    (ok, undef, max_violation) shaped (R, batch...): ok means every action
    played above the threshold is a best reply on every active, defined cell
    and no active cell is undefined.
    """
    delta, defined = join_effects(profile_effects(cs, trembled))
    flat = np.concatenate(trembled, axis=-1)
    eps_col = eps.reshape(eps.shape + (1,) * (flat.ndim - 1))
    scores = cs.score_base.reshape((2, 1)) + cs.effect_weight * delta[..., None, :]
    bad1 = (flat > eps_col + PLAY_SLACK) & (scores < -tie_tol)
    bad0 = ((1.0 - flat) > eps_col + PLAY_SLACK) & (scores > tie_tol)
    live = cs.active & defined[..., None, :]
    bad = (bad1 | bad0) & live
    undef = (cs.active & ~defined[..., None, :]).any(axis=(-2, -1))
    ok = ~bad.any(axis=(-2, -1)) & ~undef
    viol = np.where(bad, np.abs(scores), 0.0).max(axis=(-2, -1))
    return ok, undef, viol


def tail_lengths(passes: np.ndarray) -> np.ndarray:
    """Length of the passing suffix along the leading (rung) axis."""
    return np.cumprod(passes[::-1], axis=0).sum(axis=0)
