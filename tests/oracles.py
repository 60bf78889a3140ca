"""Independent brute-force reference implementations used by the test suite.

Everything here is deliberately written the slow, obvious way (dicts and
explicit loops over full assignments, no shared code with the package) so
that agreement with the fast vectorized implementations is meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


# -- raw joint distribution ----------------------------------------------------


def full_joint(scenario, profile):
    """p(t, x, a, y) as a dict {(t, x..., a, y): prob}, pure Python floats."""
    joint = {}
    cards = scenario.x_cards
    ptx = scenario.ptx
    kernel = scenario.kernel
    for t in (0, 1):
        for x in itertools.product(*(range(k) for k in cards)):
            mass = float(ptx[(t,) + x])
            if mass == 0.0:
                continue
            for a in (0, 1):
                pa = 0.0
                for i in range(scenario.n_types):
                    sig = profile.sigmas[i]
                    cell = tuple(x[k] for k in scenario.c_axes(i))
                    p1 = float(sig[(t,) + cell])
                    pa += scenario.lam[i] * (p1 if a == 1 else 1.0 - p1)
                py1 = float(kernel[(t,) + x])
                for y, py in ((1, py1), (0, 1.0 - py1)):
                    p = mass * pa * py
                    if p != 0.0:
                        joint[(t,) + x + (a, y)] = joint.get((t,) + x + (a, y), 0.0) + p
    return joint


def _marginal(joint, scenario, keep_x_axes, keep_t=False, keep_a=False, keep_y=False):
    K = len(scenario.x_cards)
    out = {}
    for key, p in joint.items():
        t, xs, a, y = key[0], key[1 : 1 + K], key[1 + K], key[2 + K]
        sel = tuple(xs[k] for k in keep_x_axes)
        if keep_t:
            sel = (t,) + sel
        if keep_a:
            sel = sel + (a,)
        if keep_y:
            sel = sel + (y,)
        out[sel] = out.get(sel, 0.0) + p
    return out


def brute_beliefs(scenario, profile, type_index):
    """Do-beliefs for one type: {(cell, a): b(y=1 | x_C = cell, do(a)) or None}.

    Follows the definition term by term: average over the covariates the
    type saw but did not condition on, of the outcome rate given (a, full
    data cell), with the treatment variable always summed out first.
    None marks unreachable cells and actions where some needed conditional
    does not exist.
    """
    c_axes = scenario.c_axes(type_index)
    d_axes = scenario.d_axes(type_index)
    extra = tuple(k for k in d_axes if k not in c_axes)
    joint = full_joint(scenario, profile)

    p_x_c = _marginal(joint, scenario, c_axes)  # over (x_C, ) with t,a,y out
    p_x_d = _marginal(joint, scenario, d_axes)
    p_ax_d = _marginal(joint, scenario, d_axes, keep_a=True)
    p_yax_d = _marginal(joint, scenario, d_axes, keep_a=True, keep_y=True)

    # map a D-cell back to its C-cell and its extra part
    def split(d_cell):
        as_map = dict(zip(d_axes, d_cell))
        return tuple(as_map[k] for k in c_axes), tuple(as_map[k] for k in extra)

    beliefs = {}
    for c_cell in itertools.product(*(range(scenario.x_cards[k]) for k in c_axes)):
        denom = p_x_c.get(c_cell, 0.0)
        for a in (0, 1):
            if denom == 0.0:
                beliefs[c_cell, a] = None
                continue
            total = 0.0
            ok = True
            for d_cell in itertools.product(*(range(scenario.x_cards[k]) for k in d_axes)):
                cc, _ = split(d_cell)
                if cc != c_cell:
                    continue
                w = p_x_d.get(d_cell, 0.0) / denom  # p(x_{D\C} | x_C)
                if w == 0.0:
                    continue
                pax = p_ax_d.get(d_cell + (a,), 0.0)
                if pax == 0.0:
                    ok = False  # needed conditional p(y | a, x_D) undefined
                    break
                total += w * p_yax_d.get(d_cell + (a, 1), 0.0) / pax
            beliefs[c_cell, a] = total if ok else None
    return beliefs


def brute_delta(scenario, profile, type_index):
    """Perceived effect table for one type: {cell: delta or None}.

    The difference of the two do-beliefs of ``brute_beliefs``; None where
    either is undefined.
    """
    beliefs = brute_beliefs(scenario, profile, type_index)
    table = {}
    for (cell, a), b in beliefs.items():
        if a == 1:
            b0 = beliefs[cell, 0]
            table[cell] = None if b is None or b0 is None else b - b0
    return table


def brute_eps_check(scenario, profile, eps, tol):
    """The eps-equilibrium test, one taste cell and one action at a time.

    Returns (verdict, undefined, offenders, scores):

    - ``undefined``: the set of (type, taste, cell) that occur with positive
      probability but whose perceived effect is undefined;
    - ``offenders``: (|score|, (type, taste, cell, action)) for every action
      played with probability above eps (plus 1e-12 slack) that loses to the
      other action by more than ``tol``, in (type, taste, cell, action 1
      before 0) order;
    - ``scores``: the score of a=1 over a=0 on every occurring, defined cell;
    - ``verdict``: "undefined_cells" when ``undefined`` is nonempty, else
      "not_equilibrium" when there is an offender, else
      "epsilon_equilibrium".

    The score is written out from the utility: beta on the action itself,
    (1 - beta) on the perceived effect, and c for following the taste.
    """
    undefined, offenders, scores = set(), [], []
    for i in range(scenario.n_types):
        c_axes = scenario.c_axes(i)
        deltas = brute_delta(scenario, profile, i)
        for t in (0, 1):
            for cell, d in deltas.items():
                mass = sum(
                    float(scenario.ptx[(t,) + x])
                    for x in itertools.product(*(range(k) for k in scenario.x_cards))
                    if tuple(x[k] for k in c_axes) == cell
                )
                if mass == 0.0:
                    continue  # the taste cell never occurs
                if d is None:
                    undefined.add((i, t, cell))
                    continue
                taste_gain = scenario.c if t == 1 else -scenario.c
                score = (1.0 - scenario.beta) * d + scenario.beta + taste_gain
                scores.append(score)
                p1 = float(profile.sigmas[i][(t,) + cell])
                if p1 > eps + 1e-12 and score < -tol:
                    offenders.append((abs(score), (i, t, cell, 1)))
                if 1.0 - p1 > eps + 1e-12 and score > tol:
                    offenders.append((abs(score), (i, t, cell, 0)))
    if undefined:
        verdict = "undefined_cells"
    elif offenders:
        verdict = "not_equilibrium"
    else:
        verdict = "epsilon_equilibrium"
    return verdict, undefined, offenders, scores


def brute_posterior_diff(scenario, profile, type_index):
    """[p(t=1|a=1,x_C) - p(t=1|a=0,x_C)] per cell, None when not conditionable."""
    c_axes = scenario.c_axes(type_index)
    joint = full_joint(scenario, profile)
    p_ax = _marginal(joint, scenario, c_axes, keep_a=True)
    p_tax = _marginal(joint, scenario, c_axes, keep_t=True, keep_a=True)
    out = {}
    for c_cell in itertools.product(*(range(scenario.x_cards[k]) for k in c_axes)):
        post = {}
        for a in (0, 1):
            denom = p_ax.get(c_cell + (a,), 0.0)
            post[a] = None if denom == 0.0 else p_tax.get((1,) + c_cell + (a,), 0.0) / denom
        out[c_cell] = None if post[0] is None or post[1] is None else post[1] - post[0]
    return out


def brute_outcome_rates(scenario):
    """(p(y=1 | t=0), p(y=1 | t=1)) straight from ptx and the kernel."""
    rates = []
    for t in (0, 1):
        num = den = 0.0
        for x in itertools.product(*(range(k) for k in scenario.x_cards)):
            m = float(scenario.ptx[(t,) + x])
            num += m * float(scenario.kernel[(t,) + x])
            den += m
        rates.append(num / den if den else None)
    return rates[0], rates[1]


def brute_error_probability(scenario, profile):
    joint = full_joint(scenario, profile)
    K = len(scenario.x_cards)
    return sum(p for key, p in joint.items() if key[0] != key[1 + K])


def brute_welfare_loss(scenario, profile):
    """Expected shortfall against a taste-matched DM who knows the action
    never moves the outcome, summed over the raw joint.

    The utility is u(a, t, y) = beta * a + (1 - beta) * y - c * [a != t]
    (beta = 0 in the baseline convention).  At each (t, y) the rational DM
    plays the action of highest utility; since y does not depend on the
    action, that choice is the same for every y, and every joint entry
    loses the utility gap between it and the action actually played.
    """
    beta, c = scenario.beta, scenario.c

    def utility(a, t, y):
        return beta * a + (1.0 - beta) * y - (c if a != t else 0.0)

    K = len(scenario.x_cards)
    total = 0.0
    for key, p in full_joint(scenario, profile).items():
        t, a, y = key[0], key[1 + K], key[2 + K]
        best = max(utility(0, t, y), utility(1, t, y))
        total += p * (best - utility(a, t, y))
    return total


# -- binary relations ----------------------------------------------------------


def random_complete_qt_matrix(n, rng):
    """Random complete quasitransitive relation on n elements.

    Construction: draw a random strict partial order as the transitive
    closure of a DAG over a random topological order, then declare every
    incomparable pair a mutual tie.  The strict part is transitive by
    construction, and completeness follows from filling the gaps with ties.
    Not every output is a weak order: ties need not be transitive.
    """
    order = list(range(n))
    rng.shuffle(order)
    p = rng.random()  # edge density varies per relation
    strict = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                strict[order[i]][order[j]] = True
    for k in range(n):  # Floyd-Warshall transitive closure
        for i in range(n):
            if strict[i][k]:
                for j in range(n):
                    if strict[k][j]:
                        strict[i][j] = True
    matrix = [[True] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if strict[j][i]:
                matrix[i][j] = False
    return matrix


def brute_layers(matrix):
    """Iterated extraction of the strictly-undominated set."""
    n = len(matrix)
    remaining = set(range(n))
    layers = []
    while remaining:
        top = {
            i
            for i in remaining
            if not any(matrix[j][i] and not matrix[i][j] for j in remaining)
        }
        if not top:
            raise AssertionError("no undominated element: relation is not quasitransitive?")
        layers.append(tuple(sorted(top)))
        remaining -= top
    return tuple(layers)


def layering_is_valid(matrix, layers):
    """Direct scan: every member weakly dominates everything at or below it."""
    n = len(matrix)
    seen = [i for layer in layers for i in layer]
    if sorted(seen) != list(range(n)):
        return False
    for li, layer in enumerate(layers):
        lower = [j for l2 in layers[li:] for j in l2]
        for i in layer:
            for j in lower:
                if not matrix[i][j]:
                    return False
    return True


def all_valid_layerings(matrix):
    """Every ordered set partition that passes the direct scan (n <= 5!)."""

    def ordered_partitions(items):
        if not items:
            yield ()
            return
        items = list(items)
        n = len(items)
        for mask in range(1, 1 << n):  # any nonempty subset can lead
            head = tuple(sorted(items[k] for k in range(n) if mask >> k & 1))
            tail = [items[k] for k in range(n) if not mask >> k & 1]
            for sub in ordered_partitions(tail):
                yield (head,) + sub

    return [
        p for p in ordered_partitions(range(len(matrix))) if layering_is_valid(matrix, p)
    ]


# -- exact-rational golden values ----------------------------------------------


def frac_delta_example_3_1(beta, q):
    """Delta_1(x1=1) for the two-covariate overlap scenario, in Fractions."""
    beta, q = Fraction(beta), Fraction(q)
    # under a_i = x_i: p(y=1 | a=1, x1=1) = p(x2=1 | a=1, x1=1), and the
    # a=1 population at x1=1 is type 1 (always) plus type 2 where x2=1
    p11, p10 = beta * q, beta * (1 - q)
    num = p11  # both covariates on, either type plays 1
    den = p11 + p10 * Fraction(1, 2)  # x2=0: only type 1's half plays 1
    b1 = num / den
    # p(y=1 | a=0, x1=1): a=0 at x1=1 only from type 2 where x2=0, so y=0
    return b1 - 0


def scenario_to_fraction_tables(scenario):
    """(ptx, kernel) as nested dicts of Fractions keyed by full assignments."""
    ptx = {}
    kern = {}
    for t in (0, 1):
        for x in itertools.product(*(range(k) for k in scenario.x_cards)):
            ptx[(t,) + x] = Fraction(float(scenario.ptx[(t,) + x])).limit_denominator(10**12)
            kern[(t,) + x] = Fraction(float(scenario.kernel[(t,) + x])).limit_denominator(10**12)
    return ptx, kern


def seeded_random(seed):
    return random.Random(seed)
