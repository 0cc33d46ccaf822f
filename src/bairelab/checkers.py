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
    format_fraction,
    natural,
    rational,
    within_binary64,
)
from .simplex import Tableau
from .steps import l1_norm, step_linear_combination
from .trees import MAX_ENTRY, prefix_closure
from .verdicts import Verdict

#: Most cells of the common resolution a step window is solved over.  Its
#: cost follows the window's width more than its cells: w dense integer
#: steps take 0.07-0.10 s at w = 8 and 1.5-1.9 s at w = 16 on 64 cells,
#: and ~0.25 and ~0.55 s at w = 8, 4-9 s at w = 16, on 128 and 256 cells.
MAX_STEP_LP_CELLS = 2**6

#: Hard cap on exhaustive obstruction checking.
MAX_OBSTRUCTION_FAMILY = 10


class BaireContext:
    """Norm context for families of BaireVector."""

    def __init__(self, kind, p):
        self.kind = BasisKind.of(kind)
        self.p = ExponentP.coerce(p)

    def norm(self, v):
        return baire_norm(v, self.kind, self.p)

    def mix(self, pairs):
        return linear_combination(pairs)

    @property
    def polyhedral(self):
        return self.kind in (BasisKind.L1, BasisKind.C0) and (
            self.p.is_zero or self.p.value == 1
        )

    def describe(self):
        return f"baire({self.kind.value}, p={self.p.text()})"


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
    """The family of unit coordinate vectors on n incomparable nodes, the
    nodes (k,) for the n distinct natural labels k (0..n - 1 by default)."""
    natural(n, "n")
    labels = range(n) if labels is None else [
        natural(k, "label", 0, MAX_ENTRY) for k in labels]
    if len(labels) != n or len(set(labels)) != n:
        raise InvalidParameter(f"need {n} distinct labels, got {labels}")
    nodes = [(k,) for k in labels]
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
        natural(k, "index", 0, len(family) - 1, BadIndexList)
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
    epsilon = rational(epsilon, "epsilon", positive=True)
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
        tested=f"all split means over {n} vectors stayed >= "
               f"{format_fraction(epsilon)}"
    )


class TrialCoeffs(Record):
    """Sampler for the alternating-obstruction falsifier.

    Every +-1 pattern is always swept (first coefficient fixed to +1, the
    inequality is invariant under a global flip).  grid: per-coordinate
    rational values, expanded as a full product and refused past
    MAX_ABS_CANDIDATES rays.  random_trials: seeded random vectors per
    index tuple, at most MAX_ABS_CANDIDATES.  Only the first vector on
    each positive ray is kept: the tested inequality is invariant under
    positive scaling.
    """

    __slots__ = ("grid", "random_trials", "seed")

    def __init__(self, grid: tuple = (), random_trials: int = 0,
                 seed: int = 0):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "random_trials", natural(
            random_trials, "random_trials", 0, MAX_ABS_CANDIDATES))
        object.__setattr__(self, "seed", natural(seed, "seed", lo=None))

    def describe(self, size):
        parts = [f"sign patterns (2^{size - 1})"]
        if self.grid:
            parts.append(f"grid {list(map(format_fraction, self.grid))}")
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
        grid = itertools.product(
            [(v.numerator, v.denominator) for v in values], repeat=size)
        rng = _random.Random(self.seed)
        trials = (tuple((rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(size))
                  for _ in range(self.random_trials))
        rays = set()
        for c in itertools.chain(grid, trials):
            # the ray of c = (a_i / b_i) is its numerators over one
            # denominator, divided by their gcd
            den = math.lcm(*(b for _, b in c))
            nums = [a * (den // b) for a, b in c]
            g = math.gcd(*nums)
            if not g or nums[0] > 0 and all(abs(m) == g for m in nums):
                continue
            ray = tuple(m // g for m in nums)
            if ray not in rays:
                rays.add(ray)
                if len(rays) > MAX_ABS_CANDIDATES:
                    raise FamilyTooLarge(
                        f"over {MAX_ABS_CANDIDATES} grid rays of size {size}")
                yield tuple(Fraction(a, b) for a, b in c)

    @staticmethod
    def _signs(size):
        return [(Fraction(1),) + tuple(Fraction(s) for s in tail)
                for tail in itertools.product((1, -1), repeat=size - 1)]

    def vectors(self, size):
        """The 2^(size - 1) sign patterns, then _rays' samples."""
        return self._signs(size) + list(self._rays(size))


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
    are counted from one draw of the rays per block size before any is
    tested, and more than MAX_ABS_CANDIDATES are refused.
    """
    epsilon = rational(epsilon, "epsilon", positive=True)
    n = len(family)
    if n < 2:
        raise FamilyTooSmall("need at least two vectors")
    rays = {ell: list(trials._rays(2**ell))
            for ell in range(1, n.bit_length() + 1) if (ell - 1) + 2**ell <= n}
    total = sum(math.comb(n - ell + 1, 2**ell) * (2**(2**ell - 1) + len(r))
                for ell, r in rays.items())
    if total > MAX_ABS_CANDIDATES:
        raise FamilyTooLarge(
            f"{total} candidates exceed the bound {MAX_ABS_CANDIDATES}"
        )
    tested = []
    for ell, r in rays.items():
        size = 2**ell
        # each sampled vector with its bound epsilon * sum |c_i|
        coeff_vectors = [(c, epsilon * sum(abs(v) for v in c))
                         for c in trials._signs(size) + r]
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
    nv, family = baire_norm_witness(combo, kind, context.p)
    pf = 1.0 if context.p.is_zero else float(context.p.value)
    f = nv.power_base if exact else nv.approx
    d, ints = combo.scaled()
    slopes = {}
    for seg in family if f else ():
        nodes = [s for s in seg.nodes() if s in ints]
        if kind is BasisKind.C0:
            nodes = [max(nodes, key=lambda s: abs(ints[s]))]
        if exact:
            slopes.update((s, 1 if ints[s] > 0 else -1) for s in nodes)
            continue
        block = [ints[s] / d for s in nodes]
        if kind is BasisKind.L2:
            norm = math.sqrt(sum(b * b for b in block))
            g = [b / norm for b in block]
        else:
            norm = sum(map(abs, block))
            g = [math.copysign(1.0, b) for b in block]
        weight = norm ** (pf - 1.0)
        slopes.update((s, weight * gs) for s, gs in zip(nodes, g))
    forms = [x.scaled() for x in vectors]
    if exact:
        row = [Fraction(sum(slopes.get(s, 0) * v for s, v in xs.items()), dx)
               for dx, xs in forms]
        return f, row + [Fraction(-1)], Fraction(0)
    outer = f ** (1.0 - pf) if f else 0.0
    row = [Fraction(math.floor(
        outer * sum(g * (xs.get(s, 0) / dx) for s, g in slopes.items())
        / scale * _CUT_GRID), _CUT_GRID) for dx, xs in forms]
    return f, row + [Fraction(-1)], Fraction(1, _CUT_GRID)


def _cutting_planes(vectors, context):
    """Kelley's cutting planes (J. SIAM 8, 1960): the weights and least
    norm met of a convex combination.  The LP over the weights a and a
    bound t has one row per cut below the norm, seeded at the uniform
    mean and at each vector; each solve adds its cut, and the Tableau
    resumes.  Every cut is _cut's.  Polyhedral contexts stop when the
    exact norm there is at most t, others as BLOCK_MIN_GAP says.  Ties:
    the uniform (Cesaro) mean when it attains the least norm met, else
    the latest point that does."""
    w = len(vectors)
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
    lp = Tableau([0] * w + [1], *zip(*cuts), [[1] * w + [0]], [1])
    for k in itertools.count():
        t, sol = lp.optimum()
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
        lp.add_row(row, b)
    # the uniform mean first, then the latest point
    return next(a for v, a in met[:1] + met[::-1] if v == least), least


def convex_block_min(family, window):
    """Convex combination over a consecutive window minimizing the norm.

    window = (start, length) covers vectors start..start+length
    inclusive, length + 1 of them, and returns one coefficient each.

    Every family is solved by _cutting_planes, a dyadic-step family as
    vectors of its cell values, exactly over rationals for steps and in
    the polyhedral contexts (summable or sup ingredient with p in
    {1, 0}).  Elsewhere the result is float weights and the approximate
    norm of their combination (each weight read within 1e-12), an upper
    bound on the minimum within BLOCK_MIN_GAP * s of a lower bound unless
    MAX_BLOCK_CUTS cuts run out first.
    """
    try:
        start, length = window
    except (TypeError, ValueError):
        raise WindowOutOfRange(
            f"window {window} is not a (start, length) pair") from None
    natural(start, "window start", lo=None)
    natural(length, "window length", lo=None)
    n = len(family)
    if not (0 <= start and length >= 0 and start + length < n):
        raise WindowOutOfRange(f"window {window} does not fit a family of {n}")
    vectors = list(family.vectors[start : start + length + 1])
    ctx = family.context
    if isinstance(ctx, StepContext):
        # the cell values over 2^r on an antichain of the 2^r cells of the
        # common resolution r, where the l1, p = 1 norm is the L1 norm
        res = max(f.resolution for f in vectors)
        if 2**res > MAX_STEP_LP_CELLS:
            raise FunctionalSetTooLarge(
                f"steps of resolution {res}: over {MAX_STEP_LP_CELLS} cells")
        tree = prefix_closure([(c,) for c in range(2**res)])
        vectors = [BaireVector(tree, {(c,): v / 2**res for c, v
                                      in f.refine(res).cells().items()})
                   for f in vectors]
        ctx = BaireContext(BasisKind.L1, 1)
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
    epsilon = rational(epsilon, "epsilon", positive=True)
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
        "(remainder window shorter) all contain a block >= "
        f"{format_fraction(epsilon)}"
    )
