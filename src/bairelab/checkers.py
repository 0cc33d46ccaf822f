"""Finite-instance checkers for sequence geometry.

Everything here certifies finite prefixes only.  Where a definition
quantifies over all reals (the alternating obstruction), the checker is
deliberately a falsifier: it can return Violated or Inconclusive, never
Pass.  Witnesses are deterministic because candidates are enumerated in
lexicographic order and the first violation in that order is reported.
"""

import itertools
import math
import random as _random
from fractions import Fraction

from .baire import (
    BaireVector,
    ExponentP,
    baire_norm,
    baire_norm_witness,
    baire_norm_zero,
    linear_combination,
    segment_vector,
    _segment_families,
)
from .bases import BasisKind, NormValue
from .errors import (
    BadIndexList,
    FamilyTooLarge,
    FamilyTooSmall,
    FunctionalSetTooLarge,
    InvalidParameter,
    NotInUnitBall,
    Record,
    TreeMismatch,
    WindowOutOfRange,
)
from .simplex import solve_lp
from .steps import l1_norm, step_linear_combination
from .trees import node_key, prefix_closure
from .verdicts import Verdict

#: Documented bound on the generating-functional enumeration.
MAX_FUNCTIONALS = 10**5

#: Largest support closure whose segment families are enumerated (p >= 1).
MAX_FAMILY_NODES = 20

#: Most cells of the common resolution the step LP is built over: its
#: 2 * cells rows by cells + w columns take ~3.5 s at 64 cells and w = 8,
#: and about 7x that per further level.
MAX_STEP_LP_CELLS = 2**6

#: Hard cap on exhaustive obstruction checking.
MAX_OBSTRUCTION_FAMILY = 10


class BaireContext:
    """Norm context for families of BaireVector."""

    def __init__(self, kind, p):
        self.kind = kind
        self.p = ExponentP.coerce(p)

    def norm(self, v):
        if self.p.is_zero:
            return baire_norm_zero(v, self.kind)
        return baire_norm(v, self.kind, self.p)

    def mix(self, pairs):
        return linear_combination(pairs)

    @property
    def polyhedral(self):
        return self.kind in (BasisKind.L1, BasisKind.C0) and (
            self.p.is_zero or self.p.value == 1
        )

    def describe(self):
        p = "0" if self.p.is_zero else str(self.p.value)
        return f"baire({self.kind.value}, p={p})"


class StepContext:
    """Norm context for families of DyadicStep with the exact L1 norm."""

    def norm(self, f):
        return NormValue.exact(l1_norm(f), 1)

    def mix(self, pairs):
        return step_linear_combination(pairs)

    def describe(self):
        return "dyadic-step(L1)"


class VectorFamily:
    """An ordered finite list of vectors sharing one ambient normed space."""

    def __init__(self, vectors, context):
        vectors = tuple(vectors)
        if not vectors:
            raise InvalidParameter("a vector family must be nonempty")
        if isinstance(context, BaireContext):
            tree = vectors[0].tree
            for v in vectors[1:]:
                if v.tree != tree:
                    raise TreeMismatch("family vectors live on different trees")
        self.vectors = vectors
        self.context = context

    def __len__(self):
        return len(self.vectors)

    def norm(self, v):
        return self.context.norm(v)

    def mix(self, coeff_index_pairs):
        return self.context.mix(
            [(a, self.vectors[i]) for a, i in coeff_index_pairs]
        )


def delta_antichain_family(n, kind, p, labels=None):
    """The family of unit coordinate vectors on n incomparable nodes."""
    if labels is None:
        labels = range(n)
    nodes = [(int(k),) for k in labels]
    tree = prefix_closure(nodes)
    vectors = [BaireVector(tree, {node: 1}) for node in nodes]
    return VectorFamily(vectors, BaireContext(kind, p))


def cesaro_mean(family, indices, alternating=False):
    """m^{-1} sum of the selected vectors, optionally with alternating
    signs (-1)^k, k = 1..m; returns the mean and its norm."""
    idx = list(indices)
    if not idx:
        raise BadIndexList("at least one index is required")
    for k in idx:
        if not isinstance(k, int) or isinstance(k, bool):
            raise BadIndexList(f"index {k!r} must be an integer")
        if not 0 <= k < len(family):
            raise BadIndexList(f"index {k!r} out of range")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise BadIndexList("indices must be strictly increasing")
    m = len(idx)
    plus = Fraction(1, m)
    odd = -plus if alternating else plus
    mean = family.mix(
        [(odd if k % 2 == 1 else plus, i) for k, i in enumerate(idx, start=1)]
    )
    return mean, family.norm(mean)


def _violation_candidates(n):
    """(m, ell, index tuple, split-mean coefficients) in lexicographic
    order; the +-1/m coefficient lists are built once per m."""
    for m in range(1, n + 1):
        plus, minus = Fraction(1, m), Fraction(-1, m)
        splits = [[plus] * ell + [minus] * (m - ell) for ell in range(1, m + 1)]
        for tup in itertools.combinations(range(n), m):
            for ell, coeffs in enumerate(splits, start=1):
                yield m, ell, tup, coeffs


def bs_obstruction_check(family, epsilon):
    """Exhaustively test the split-mean lower bound on every subfamily.

    Pass means every (1/m)(sum of the first ell minus the rest) over every
    increasing index tuple has norm >= epsilon: the family is an
    epsilon-obstruction prefix.  Requires all vectors in the unit ball.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidParameter("epsilon must be positive")
    n = len(family)
    if n > MAX_OBSTRUCTION_FAMILY:
        raise FamilyTooLarge(
            f"exhaustive check is capped at {MAX_OBSTRUCTION_FAMILY} vectors"
        )
    for i, v in enumerate(family.vectors):
        nv = family.norm(v)
        if not nv.at_most(1):
            raise NotInUnitBall(i, nv)

    for m, ell, tup, coeffs in _violation_candidates(n):
        value = family.norm(family.mix(zip(coeffs, tup)))
        if value.below(epsilon):
            return Verdict.violated(
                m=m, ell=ell, indices=list(tup), value=value
            )
    return Verdict.passed(
        tested=f"all split means over {n} vectors stayed >= {epsilon}"
    )


#: Largest full grid product the falsifier expands per index tuple.
MAX_GRID_POINTS = 4096


class TrialCoeffs(Record):
    """Sampler for the alternating-obstruction falsifier.

    Every +-1 pattern is always swept (first coefficient fixed to +1, the
    inequality is invariant under a global flip).  grid: per-coordinate
    rational values, expanded as a full product while it stays within
    MAX_GRID_POINTS.  random_trials: seeded random rational vectors per
    index tuple.  Only the first vector on each positive ray is kept:
    the tested inequality is invariant under positive scaling.
    """

    __slots__ = ("grid", "random_trials", "seed")

    def __init__(self, grid: tuple = (), random_trials: int = 0,
                 seed: int = 0):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "random_trials", random_trials)
        object.__setattr__(self, "seed", seed)

    def describe(self, size):
        parts = [f"sign patterns (2^{size - 1})"]
        if self.grid:
            parts.append(f"grid {list(map(str, self.grid))}")
        if self.random_trials:
            parts.append(
                f"{self.random_trials} random rational trials (seed {self.seed})"
            )
        return ", ".join(parts)

    def vectors(self, size):
        out = [(Fraction(1),) + tuple(Fraction(s) for s in tail)
               for tail in itertools.product((1, -1), repeat=size - 1)]
        if self.grid:
            values = tuple(Fraction(g) for g in self.grid)
            if len(values) ** size <= MAX_GRID_POINTS:
                for c in itertools.product(values, repeat=size):
                    if any(v != 0 for v in c):
                        out.append(c)
        if self.random_trials:
            rng = _random.Random(self.seed)
            for _ in range(self.random_trials):
                c = tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(size)
                )
                if any(v != 0 for v in c):
                    out.append(c)
        rays = {}
        for c in out:
            scale = sum(map(abs, c))
            rays.setdefault(tuple(v / scale for v in c), c)
        return list(rays.values())


def abs_obstruction_falsify(family, epsilon, trials=TrialCoeffs()):
    """Search for a witness against the alternating lower bound.

    Looks for block sizes 2**ell, index tuples whose first position is at
    least ell - 1 (0-based), and sampled coefficients c with
    ||sum c_i x_i|| < epsilon * sum |c_i|.  A semi-decision: the bound
    quantifies over all real coefficients, so no finite sweep can return
    Pass; the outcome is Violated or Inconclusive.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidParameter("epsilon must be positive")
    n = len(family)
    if n < 2:
        raise FamilyTooSmall("need at least two vectors")
    tested = []
    ell = 1
    while (ell - 1) + 2**ell <= n:
        size = 2**ell
        # each sampled vector with its bound epsilon * sum |c_i|
        coeff_vectors = [(c, epsilon * sum(abs(v) for v in c))
                         for c in trials.vectors(size)]
        tested.append(f"ell={ell}: {trials.describe(size)}")
        for tup in itertools.combinations(range(ell - 1, n), size):
            for c, rhs in coeff_vectors:
                lhs = family.norm(family.mix(zip(c, tup)))
                if lhs.below(rhs):
                    return Verdict.violated(
                        ell=ell,
                        indices=list(tup),
                        coeffs=list(c),
                        lhs=lhs,
                        rhs=rhs,
                    )
        ell += 1
    return Verdict.inconclusive("; ".join(tested))


# ---------------------------------------------------------------------------
# convex block minimization

def _functional_budget(count):
    if count > MAX_FUNCTIONALS:
        raise FunctionalSetTooLarge(
            f"{count} generating functionals exceed the bound {MAX_FUNCTIONALS}"
        )


def _functional_supports(closure, kind, p):
    """Node sets over which sign patterns generate the polyhedral norm.

    Each set U weighs 2 ** |U| sign patterns, and their sum is counted
    exactly before any set is built."""
    l1 = kind is BasisKind.L1
    if p.is_zero:
        # the sup ingredient reads one node, 2 sign patterns per node; the
        # summable one reads the chain (a, v), 2 ** (|v| - |a| + 1)
        # patterns, which sum over the |v| + 1 start nodes a to
        # 2 ** (|v| + 2) - 2 per node v
        _functional_budget(
            sum(2 ** (len(v) + 2) - 2 for v in closure)
            if l1 else 2 * len(closure)
        )
        if not l1:
            return [(v,) for v in closure]
        return sorted(tuple(v[:i] for i in range(j, len(v) + 1))
                      for v in closure for j in range(len(v) + 1))
    if len(closure) > MAX_FAMILY_NODES:
        raise FunctionalSetTooLarge(
            f"support closure of {len(closure)} nodes: the segment-family "
            f"enumeration is capped at {MAX_FAMILY_NODES} closure nodes"
        )
    # a family of v's subtree, the empty one weighing 1, either has one
    # segment from v, whose supports weigh own(v) in all, or is a union of
    # one per child subtree: G(v) = own(v) + prod G(child).  The sup
    # ingredient reads the start nodes, so own = 2.  The summable one
    # reads the segments' nodes, whose union gives back the family (its
    # minimal nodes are the start nodes), so own(v) sums 2 ** (|u| - |v|
    # + 1) over the nodes u below v: own(v) = 2 + 2 * sum own(child)
    order, _, kids = closure.compiled()
    own, weight = [2] * len(order), [0] * len(order)
    for i in range(len(order) - 1, -1, -1):
        if l1:
            own[i] += 2 * sum(own[c] for c in kids[i])
        weight[i] = own[i] + math.prod(weight[c] for c in kids[i])
    _functional_budget(weight[0] - 1 if order else 0)
    families = [fam for fam in _segment_families(closure) if fam]
    if not l1:
        return sorted({tuple(sorted((a for a, _ in fam), key=node_key))
                       for fam in families})
    return sorted(
        tuple(sorted((v[:i] for a, v in fam
                      for i in range(len(a), len(v) + 1)), key=node_key))
        for fam in families
    )


def _maximal_supports(supports):
    # u >= 0 makes a support row redundant whenever a superset row exists
    sets = [frozenset(u) for u in supports]
    return [u for u, s in zip(supports, sets) if not any(s < t for t in sets)]


def _lp_min_norm(w, columns, tail_cost, tail_rows=()):
    """Exact LP for a norm-minimal convex combination of w vectors.

    Variables: the weights a_0..a_{w-1} (sum a = 1), one auxiliary u_j per
    coordinate with u_j >= |sum_i a_i columns[j][i]|, then any further
    variables.  tail_cost is the objective over u and those; tail_rows
    are further rows over them, each <= 0.
    """
    zero, one = Fraction(0), Fraction(1)
    tail = len(tail_cost)
    a_ub = []
    for j, col in enumerate(columns):
        for sign in (1, -1):
            row = [sign * x for x in col] + [zero] * tail
            row[w + j] = -one
            a_ub.append(row)
    a_ub += [[zero] * w + row for row in tail_rows]
    value, sol = solve_lp([zero] * w + tail_cost, a_ub, [zero] * len(a_ub),
                          [[one] * w + [zero] * tail], [one])
    return tuple(sol[:w]), NormValue.exact(value, 1)


def _lp_min_norm_baire(vectors, kind, p):
    """The polyhedral contexts' LP.

    The signed generating functionals factor through per-node absolute
    values: with auxiliaries u_s >= |y(s)| the norm is the maximum of
    sum_{s in U} u_s over the admissible node sets U, so the sign
    expansion never has to be materialized.  A last variable t bounds
    every such sum and is minimized.  Inclusion-maximal U suffice
    because the auxiliaries are nonnegative.
    """
    closure = prefix_closure(set().union(*(v.support for v in vectors)))
    nodes, index, _ = closure.compiled()
    n = len(nodes)
    rows = []
    for u_set in _maximal_supports(_functional_supports(closure, kind, p)):
        row = [Fraction(0)] * n + [Fraction(-1)]
        for s in u_set:
            row[index[s]] = Fraction(1)
        rows.append(row)
    return _lp_min_norm(len(vectors), [[v[s] for v in vectors] for s in nodes],
                        [Fraction(0)] * n + [Fraction(1)], rows)


def _lp_min_norm_steps(steps):
    """The step LP: minimize the mean of the u's over the cells of the
    common resolution."""
    res = max(f.resolution for f in steps)
    cells = 2**res
    if cells > MAX_STEP_LP_CELLS:
        raise FunctionalSetTooLarge(
            f"steps of resolution {res}: the step LP is capped at "
            f"{MAX_STEP_LP_CELLS} cells"
        )
    refined = [f.refine(res).values for f in steps]
    return _lp_min_norm(len(steps), list(zip(*refined)),
                        [Fraction(1, cells)] * cells)


def _project_simplex(v):
    u = sorted(v, reverse=True)
    theta = 0.0
    css = 0.0
    for i, ui in enumerate(u):
        css += ui
        t = (css - 1.0) / (i + 1)
        if ui - t > 0:
            theta = t
    return [max(x - theta, 0.0) for x in v]


def _float_subgradient(vectors, a, context):
    kind, p = context.kind, context.p
    combo = linear_combination(
        [(Fraction(ai).limit_denominator(10**12), x) for ai, x in zip(a, vectors)]
    )
    if p.is_zero:
        # one segment aggregated with exponent 1
        nv, seg = baire_norm_zero(combo, kind, with_witness=True)
        family = (seg,) if seg is not None else ()
        pf = 1.0
    else:
        nv, family = baire_norm_witness(combo, kind, p)
        pf = float(p.value)
    f = nv.approx
    if f == 0.0 or not family:
        return f, [0.0] * len(a)
    grad = [0.0] * len(a)
    for seg in family:
        block = [float(c) for c in segment_vector(combo, seg)]
        bn, g = _block_float(block, kind)
        if bn == 0.0:
            continue
        for i, x in enumerate(vectors):
            inner = sum(
                gi * float(ci) for gi, ci in zip(g, segment_vector(x, seg))
            )
            grad[i] += bn ** (pf - 1.0) * inner
    scale = f ** (1.0 - pf)
    return f, [scale * gi for gi in grad]


def _block_float(block, kind):
    """The block's norm and a subgradient of the norm there."""
    if kind is BasisKind.L1:
        return (sum(abs(b) for b in block),
                [1.0 if b > 0 else (-1.0 if b < 0 else 0.0) for b in block])
    if kind is BasisKind.L2:
        nrm = math.sqrt(sum(b * b for b in block))
        return nrm, [b / nrm for b in block] if nrm else [0.0] * len(block)
    top = max(range(len(block)), key=lambda i: abs(block[i]))
    g = [0.0] * len(block)
    g[top] = 1.0 if block[top] >= 0 else -1.0
    return abs(block[top]), g


SUBGRADIENT_ITERATIONS = 400


def convex_block_min(family, window):
    """Convex combination over a consecutive window minimizing the norm.

    window = (start, length) covers vectors start..start+length
    inclusive, length + 1 of them, and returns one coefficient each.

    Polyhedral contexts (summable or sup ingredient with p in {1, 0}, and
    dyadic-step families) are solved exactly by a rational simplex over
    the enumerated generating functionals; other contexts run projected
    subgradient descent (400 iterations, roughly 1e-6 on benign
    instances) and return an approximate value.
    """
    start, length = window
    n = len(family)
    if not (0 <= start and length >= 0 and start + length < n):
        raise WindowOutOfRange(f"window {window} does not fit a family of {n}")
    vectors = list(family.vectors[start : start + length + 1])
    ctx = family.context
    if isinstance(ctx, StepContext):
        return _lp_min_norm_steps(vectors)
    if ctx.polyhedral:
        return _lp_min_norm_baire(vectors, ctx.kind, ctx.p)
    w = len(vectors)
    a = [1.0 / w] * w
    best_f, best_a = None, list(a)
    for t in range(SUBGRADIENT_ITERATIONS):
        f, g = _float_subgradient(vectors, a, ctx)
        if best_f is None or f < best_f:
            best_f, best_a = f, list(a)
        step = 0.5 / math.sqrt(t + 1.0)
        a = _project_simplex([ai - step * gi for ai, gi in zip(a, g)])
    f, _ = _float_subgradient(vectors, best_a, ctx)
    return tuple(best_a), NormValue.approximate(min(f, best_f))


def weak_null_probe(family, epsilon):
    """Look for a full partition into consecutive convex blocks of norm
    below epsilon.

    Tries uniform window lengths 1..len(family) (final remainder window
    may be shorter); here a length is the count of vectors per block, so
    window_length k calls convex_block_min with (start, k - 1), and each
    block's "length" is its vector count.  Pass carries the witnessing
    blocks; a finite prefix can never refute weak nullity, so the
    alternative is Inconclusive.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidParameter("epsilon must be positive")
    n = len(family)
    if n < 2:
        raise FamilyTooSmall("need at least two vectors")
    for length in range(1, n + 1):
        blocks = []
        all_below = True
        for start in range(0, n, length):
            win_len = min(length, n - start) - 1
            coeffs, value = convex_block_min(family, (start, win_len))
            if not value.below(epsilon):
                all_below = False
                break
            blocks.append(
                {
                    "start": start,
                    "length": win_len + 1,
                    "coeffs": list(coeffs),
                    "value": value,
                }
            )
        if all_below:
            return Verdict.passed(
                witness={"window_length": length, "blocks": blocks},
                tested=f"uniform window lengths 1..{n}",
            )
    return Verdict.inconclusive(
        f"uniform consecutive window partitions of lengths 1..{n} "
        f"(remainder window shorter) all contain a block >= {epsilon}"
    )
