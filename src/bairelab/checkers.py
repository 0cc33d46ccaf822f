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
    rational,
    within_binary64,
)
from .simplex import solve_lp
from .steps import l1_norm, step_linear_combination
from .trees import prefix_closure
from .verdicts import Verdict

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
    epsilon = rational(epsilon, "epsilon")
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


class TrialCoeffs(Record):
    """Sampler for the alternating-obstruction falsifier.

    Every +-1 pattern is always swept (first coefficient fixed to +1, the
    inequality is invariant under a global flip).  grid: per-coordinate
    rational values, expanded as a full product and refused past
    MAX_ABS_CANDIDATES rays.  random_trials: seeded random vectors per
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

    def _rays(self, size):
        """The grid and random samples in sweep order, the first on each
        ray only, off the sign patterns' rays (a first entry positive and
        all entries of one absolute value); FamilyTooLarge past
        MAX_ABS_CANDIDATES rays, before the rest is expanded."""
        values = tuple(rational(g, "grid values") for g in self.grid)
        grid = itertools.product(values, repeat=size)
        rng = _random.Random(self.seed)
        trials = (tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(size))
                  for _ in range(self.random_trials))
        rays = set()
        for c in itertools.chain(grid, trials):
            if not any(c) or c[0] > 0 and len(set(map(abs, c))) == 1:
                continue
            scale = sum(map(abs, c))
            ray = tuple(v / scale for v in c)
            if ray not in rays:
                rays.add(ray)
                if len(rays) > MAX_ABS_CANDIDATES:
                    raise FamilyTooLarge(
                        f"over {MAX_ABS_CANDIDATES} grid rays of size {size}")
                yield c

    def vectors(self, size):
        """The 2^(size - 1) sign patterns, then _rays' samples."""
        signs = [(Fraction(1),) + tuple(Fraction(s) for s in tail)
                 for tail in itertools.product((1, -1), repeat=size - 1)]
        return signs + list(self._rays(size))

    def count(self, size):
        """len(self.vectors(size)), without building its sign patterns."""
        return 2 ** (size - 1) + sum(1 for _ in self._rays(size))


#: Most candidates (index tuple, coefficient vector) the alternating
#: falsifier tests: ~10 s at ~100 us each (l1 p = 1 antichains).
MAX_ABS_CANDIDATES = 10**5


def abs_obstruction_falsify(family, epsilon, trials=TrialCoeffs()):
    """Search for a witness against the alternating lower bound.

    Looks for block sizes 2**ell, index tuples whose first position is at
    least ell - 1 (0-based), and sampled coefficients c with
    ||sum c_i x_i|| < epsilon * sum |c_i|.  A semi-decision: the bound
    quantifies over all real coefficients, so no finite sweep can return
    Pass; the outcome is Violated or Inconclusive.  The candidates,
    sum over ell of C(n - ell + 1, 2**ell) * len(trials.vectors(2**ell)),
    are counted first, and more than MAX_ABS_CANDIDATES are refused.
    """
    epsilon = rational(epsilon, "epsilon")
    if epsilon <= 0:
        raise InvalidParameter("epsilon must be positive")
    n = len(family)
    if n < 2:
        raise FamilyTooSmall("need at least two vectors")
    ells = [ell for ell in range(1, n.bit_length() + 1)
            if (ell - 1) + 2**ell <= n]
    total = sum(math.comb(n - ell + 1, 2**ell) * trials.count(2**ell)
                for ell in ells)
    if total > MAX_ABS_CANDIDATES:
        raise FamilyTooLarge(
            f"{total} candidates exceed the bound {MAX_ABS_CANDIDATES}"
        )
    tested = []
    for ell in ells:
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
    return Verdict.inconclusive("; ".join(tested))


# ---------------------------------------------------------------------------
# convex block minimization

def _lp_min_norm_steps(steps):
    """The step LP: with u_j >= |sum_i a_i f_i(j)| for every cell j of the
    common resolution and sum a = 1, minimize the mean of the u's."""
    res = max(f.resolution for f in steps)
    cells = 2**res
    if cells > MAX_STEP_LP_CELLS:
        raise FunctionalSetTooLarge(
            f"steps of resolution {res}: the step LP is capped at "
            f"{MAX_STEP_LP_CELLS} cells"
        )
    w = len(steps)
    zero, one = Fraction(0), Fraction(1)
    a_ub = []
    for j, col in enumerate(zip(*(f.refine(res).values for f in steps))):
        for sign in (1, -1):
            row = [sign * x for x in col] + [zero] * cells
            row[w + j] = -one
            a_ub.append(row)
    value, sol = solve_lp([zero] * w + [Fraction(1, cells)] * cells, a_ub,
                          [zero] * len(a_ub), [[one] * w + [zero] * cells],
                          [one])
    return tuple(sol[:w]), NormValue.exact(value, 1)


#: Outside the polyhedral contexts the loop stops once the least norm met
#: is within BLOCK_MIN_GAP * s of its lower bound, or after MAX_BLOCK_CUTS
#: cuts; s is the power of two nearest the uniform mean's norm.  Cuts over
#: s round slopes down and right-hand sides up to multiples of 1/_CUT_GRID.
BLOCK_MIN_GAP = 1e-4
MAX_BLOCK_CUTS = 64
_CUT_GRID = 2**30


@within_binary64
def _cut(combo, vectors, context, scale):
    """The norm f of combo = sum_i a_i vectors[i] and the cut row and
    right-hand side of its subgradient g over the weights a and the bound
    t: g.a - t <= b.

    g is one functional {node: slope} read off the DP's witness family:
    per segment, the signs of combo's block in l1, the sign at its first
    largest |entry| in c0 and block / ||block|| in l2, weighted by
    ||block||^(p - 1) and f^(1 - p) (p = 1 for p = 0).  In the polyhedral
    contexts every weight is 1 and g is a signed generating functional
    attaining the norm at combo: the row is exact and b = 0.  Elsewhere
    the row is divided by scale and rounded down to multiples of
    1/_CUT_GRID; the norm is homogeneous, so b = 0 too, rounded up to
    1/_CUT_GRID, which keeps the LP off the origin, where it is
    degenerate and slower."""
    kind, exact = context.kind, context.polyhedral
    if context.p.is_zero:
        nv, seg = baire_norm_zero(combo, kind, with_witness=True)
        family, pf = () if seg is None else (seg,), 1.0
    else:
        nv, family = baire_norm_witness(combo, kind, context.p)
        pf = float(context.p.value)
    f = nv.power_base if exact else nv.approx
    slopes = {}
    for seg in family if f else ():
        nodes = [s for s in seg.nodes() if combo[s]]
        if kind is BasisKind.C0:
            nodes = [max(nodes, key=lambda s: abs(combo[s]))]
        if exact:
            slopes.update((s, 1 if combo[s] > 0 else -1) for s in nodes)
            continue
        block = [float(combo[s]) for s in nodes]
        if kind is BasisKind.L2:
            norm = math.sqrt(sum(b * b for b in block))
            g = [b / norm for b in block]
        else:
            norm = sum(map(abs, block))
            g = [math.copysign(1.0, b) for b in block]
        weight = norm ** (pf - 1.0)
        slopes.update((s, weight * gs) for s, gs in zip(nodes, g))
    if exact:
        row = [sum(g * x[s] for s, g in slopes.items()) for x in vectors]
        return f, row + [Fraction(-1)], Fraction(0)
    outer = f ** (1.0 - pf) if f else 0.0
    row = [Fraction(math.floor(
        outer * sum(g * float(x[s]) for s, g in slopes.items())
        / scale * _CUT_GRID), _CUT_GRID) for x in vectors]
    return f, row + [Fraction(-1)], Fraction(1, _CUT_GRID)


def _cutting_planes(vectors, context):
    """Kelley's cutting planes (J. SIAM 8, 1960): the weights and least
    norm met of a convex combination.  The LP over the weights a and a
    bound t has one row per cut below the norm, seeded at the uniform
    mean and at each vector; each solve adds the cut at its weights.
    Every cut is _cut's.  Polyhedral contexts stop when the exact norm
    there is at most t, others as BLOCK_MIN_GAP says.  Ties: the uniform
    (Cesaro) mean when it attains the least norm met, else the latest
    point that does."""
    w = len(vectors)
    zero, one = Fraction(0), Fraction(1)
    uniform = (Fraction(1, w),) * w
    mean = linear_combination(zip(uniform, vectors))
    exact = context.polyhedral
    u = 0.0 if exact else context.norm(mean).approx
    scale = 2.0 ** round(math.log2(u)) if u else 1.0
    units = [tuple(int(j == i) for j in range(w)) for i in range(w)]
    met, cuts = [], []  # (norm, weights) and (row, right-hand side)
    for a, combo in zip([uniform] + units, [mean] + vectors):
        value, row, b = _cut(combo, vectors, context, scale)
        met.append((value, a))
        cuts.append((row, b))
    for k in itertools.count():
        t, sol = solve_lp([zero] * w + [one], [r for r, _ in cuts],
                          [b for _, b in cuts], [[one] * w + [zero]], [one])
        a = tuple(sol[:w]) if exact else tuple(
            x.limit_denominator(10**12) for x in sol[:w])
        value, row, b = _cut(linear_combination(zip(a, vectors)), vectors,
                             context, scale)
        met.append((value, a))
        least = min(v for v, _ in met)
        if exact and value <= t or not exact and (
                least - float(t) * scale <= BLOCK_MIN_GAP * scale
                or k == MAX_BLOCK_CUTS):
            break
        cuts.append((row, b))
    # the uniform mean first, then the latest point
    return next(a for v, a in met[:1] + met[::-1] if v == least), least


def convex_block_min(family, window):
    """Convex combination over a consecutive window minimizing the norm.

    window = (start, length) covers vectors start..start+length
    inclusive, length + 1 of them, and returns one coefficient each.

    Dyadic-step families are solved exactly by one LP over their cells,
    coefficient families by _cutting_planes: exactly over rationals in
    the polyhedral contexts (summable or sup ingredient with p in
    {1, 0}).  Elsewhere the result is float weights and the approximate
    norm of their combination (each weight read within 1e-12), an upper
    bound on the minimum within BLOCK_MIN_GAP * s of a lower bound unless
    MAX_BLOCK_CUTS cuts run out first.
    """
    start, length = window
    n = len(family)
    if not (0 <= start and length >= 0 and start + length < n):
        raise WindowOutOfRange(f"window {window} does not fit a family of {n}")
    vectors = list(family.vectors[start : start + length + 1])
    ctx = family.context
    if isinstance(ctx, StepContext):
        return _lp_min_norm_steps(vectors)
    a, least = _cutting_planes(vectors, ctx)
    if ctx.polyhedral:
        return a, NormValue.exact(least, 1)
    return tuple(map(float, a)), NormValue.approximate(least)


def weak_null_probe(family, epsilon):
    """Look for a full partition into consecutive convex blocks of norm
    below epsilon.

    Tries uniform window lengths 1..len(family) (final remainder window
    may be shorter); here a length is the count of vectors per block, so
    window_length k calls convex_block_min with (start, k - 1), and each
    block's "length" is its vector count.  Pass carries the witnessing
    blocks; a finite prefix can never refute weak nullity, so the
    alternative is Inconclusive.

    Cost: one convex_block_min per block tried, at most the sum of
    ceil(n / len) over len = 1..n, n = len(family); a length stops at its
    first block that is not below epsilon.  Outside the polyhedral
    contexts each block solves at most MAX_BLOCK_CUTS + 1 LPs.
    """
    epsilon = rational(epsilon, "epsilon")
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
