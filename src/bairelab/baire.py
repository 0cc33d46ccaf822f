"""Finitely supported vectors on a tree and their segment-family norms.

The norm of a vector assigns to every finite family of pairwise
completely incomparable segments the p-aggregate of the per-segment block
norms, and takes the supremum.  Two independent evaluators are provided.
One linear-time post-order dynamic program yields the value (baire_norm),
the least attaining family (baire_norm_witness) and the single-segment
p = 0 variant (baire_norm_zero).  The exponential exhaustive enumeration
(baire_norm_oracle) stays separate and definitional; in exact mode the
two agree bit for bit, witnesses included.

Attainment of the supremum (finite support): a segment contributes one
coordinate per node it contains, so nodes carrying coefficient zero add
nothing to its block vector.  Trimming every segment to its first and
last support node, and dropping segments containing no support node,
leaves the family value unchanged while keeping it pairwise incomparable;
the trimmed family lives inside the prefix closure of the support.  The
supremum over all families therefore equals the maximum over the finitely
many families with endpoints in that closure.

Family structure: complete incomparability of two segments is equivalent
to incomparability of their min nodes (both min nodes are prefixes of any
comparable cross pair).  Consequently a valid family is exactly an
antichain of start nodes together with one downward segment per start
node, and once a segment starts at a node nothing else of the family may
meet that node's subtree.  The dynamic program mirrors this: at each node
either no segment has started yet (children contribute independently) or
a single segment starts here and owns the whole subtree.
"""

import itertools
import math
from fractions import Fraction
from types import MappingProxyType

from .bases import BasisKind, NormValue, approx_equal, basis_norm, deleted_first
from .errors import (
    InvalidParameter,
    InvalidSegment,
    NonzeroRootCoefficient,
    Record,
    SupportNotChain,
    SupportsNotIncomparable,
    TooLargeForOracle,
    TreeMismatch,
    rational,
    within_binary64,
)
from .trees import (
    FiniteTree,
    Segment,
    comparable,
    node_key,
    prefix_closure,
    segment_in_tree,
    subtree_at,
)
from .verdicts import CheckReport

#: Largest support closure the exhaustive oracle accepts.
MAX_ORACLE_NODES = 14


class ExponentP(Record):
    """Aggregation exponent: a rational p >= 1, or the single-segment
    variant (value None, written "0" on the wire)."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction | None):
        object.__setattr__(self, "value", value)

    @classmethod
    def of(cls, p):
        p = rational(p, "the exponent")
        if p == 0:
            return P_ZERO
        if p < 1:
            raise InvalidParameter("exponent must satisfy p >= 1 (or be 0)")
        return cls(p)

    @classmethod
    def coerce(cls, p):
        if isinstance(p, ExponentP):
            return p
        return cls.of(p)

    @property
    def is_zero(self):
        return self.value is None

    def __repr__(self):
        return "ExponentP(zero)" if self.is_zero else f"ExponentP({self.value})"


P_ZERO = ExponentP(None)


def exact_mode(kind, p):
    """The (kind, p) pairs whose p-th norm power is rational."""
    if p.is_zero:
        return True
    if kind in (BasisKind.L1, BasisKind.C0):
        return p.value in (1, 2)
    return p.value == 2


class BaireVector:
    """A finitely supported rational coefficient assignment on a tree.

    Zero coefficients are normalized away; every keyed node must belong
    to the tree.  Instances are immutable.
    """

    __slots__ = ("tree", "_coeffs", "_closure", "_scaled", "_hash")

    def __init__(self, tree, coeffs):
        if not isinstance(tree, FiniteTree):
            raise InvalidParameter("tree must be a FiniteTree")
        clean = {}
        for node, c in dict(coeffs).items():
            node = tuple(node)
            if node not in tree:
                raise InvalidParameter(f"coefficient node {node} not in tree")
            # the Fraction test stays inline: calling rational(c) for every
            # coefficient cost ~0.4 us per 9-coefficient vector, ~2% of a mix
            c = c if type(c) is Fraction else rational(c)
            if c:
                clean[node] = c
        self.tree = tree
        self._coeffs = clean
        self._closure = None
        self._scaled = None
        self._hash = None

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    @property
    def support(self):
        return frozenset(self._coeffs)

    def __getitem__(self, node):
        return self._coeffs.get(tuple(node), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, BaireVector):
            return NotImplemented
        return self.tree == other.tree and self._coeffs == other._coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tree, frozenset(self._coeffs.items())))
        return self._hash

    def is_zero(self):
        return not self._coeffs

    def __repr__(self):
        items = sorted(self._coeffs.items(), key=lambda kv: node_key(kv[0]))
        return f"BaireVector({items!r})"

    def support_closure(self):
        """Prefix closure of the support, as a FiniteTree: the tree itself
        when the support is all of it, so its order and compiled form are
        shared."""
        if self._closure is None:
            self._closure = (self.tree if len(self._coeffs) == len(self.tree)
                             else prefix_closure(self._coeffs))
        return self._closure

    def scaled(self):
        """(denominator, integer coefficients): coeffs[n] = ints[n]/D."""
        if self._scaled is None:
            d = math.lcm(*(c.denominator for c in self._coeffs.values())) \
                if self._coeffs else 1
            ints = {n: int(c * d) for n, c in self._coeffs.items()}
            self._scaled = (d, ints)
        return self._scaled


def delta(tree, node, c=1):
    """The vector carrying coefficient c at a single node."""
    return BaireVector(tree, {tuple(node): c})


def vector_combine(a, x, b, y):
    """Coefficientwise a*x + b*y; both vectors must share a tree."""
    return linear_combination([(a, x), (b, y)])


def linear_combination(pairs):
    """Sum of coefficient-vector pairs sharing one tree.

    Every input is read through its scaled() integers and put over one
    common denominator d, so the sum is integer work.  Dividing d and the
    summed numerators by their gcd leaves exactly the result's scaled():
    d / gcd is the lcm of the reduced coefficient denominators."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidParameter("empty combination has no ambient tree")
    tree = pairs[0][1].tree
    terms = []
    for a, x in pairs:
        if x.tree != tree:
            raise TreeMismatch("vectors live on different trees")
        a = rational(a)
        dx, ints = x.scaled()
        terms.append((a.numerator, a.denominator * dx, ints))
    d = math.lcm(*(den for _, den, _ in terms))
    out = {}
    for num, den, ints in terms:
        f = num * (d // den)
        for n, c in ints.items():
            out[n] = out.get(n, 0) + f * c
    out = {n: v for n, v in out.items() if v}
    g = math.gcd(d, *out.values())
    if g > 1:
        d //= g
        out = {n: v // g for n, v in out.items()}
    vec = BaireVector(tree, {n: Fraction(v, d) for n, v in out.items()})
    vec._scaled = (d, out)
    return vec


def segment_vector(x, segment):
    """Depth-indexed coefficient list of a segment's block vector, zeros
    included for chain nodes without coefficients."""
    if not segment_in_tree(x.tree, segment):
        raise InvalidSegment(
            f"segment {segment.min_node}..{segment.max_node} not in tree"
        )
    return [x[n] for n in segment.nodes()]


# ---------------------------------------------------------------------------
# dynamic program

@within_binary64
def _segment_dp(x, kind, p, *, witness):
    """The one post-order pass behind baire_norm, baire_norm_witness and
    baire_norm_zero.

    Exact mode runs on x.scaled() integers, binary64 mode on float(c).
    Nodes are indexed as in the closure's compiled(): in node_key order,
    so every parent precedes its children.  Per node i:

    - acc[i]: the best single-segment block accumulator starting at i
      (an absolute sum, a sum of squares or a maximum); end[i]: its least
      attaining end; first[i]: the first carrier on i..end[i], or -1 when
      that chain carries no coefficient.  (first[i], end[i]) is then the
      trimmed best segment.
    - for p >= 1, power[i]: the best family power within i's subtree;
      least[i] and size[i]: the least member and the size of the least
      attaining family; here[i]: whether that family is the single
      segment starting at i.

    Ties resolve toward the least family in the (node_key(min),
    node_key(max)) order of the oracle, so no family is built until the
    winner is read off the flags top-down.

    Returns (NormValue, witness): for p >= 1 the sorted trimmed family
    (None unless requested), for p = 0 the trimmed segment (None for the
    zero vector).  The p = 0 value is the root accumulator: accumulators
    only grow toward the root, so the root is the least node attaining
    the maximum.
    """
    if not isinstance(kind, BasisKind):
        raise InvalidParameter(f"unknown basis kind {kind!r}")
    exact = exact_mode(kind, p)
    coeffs = x._coeffs
    # the zero vector runs as a lone root without coefficient
    order, _, kids = (x.support_closure() or prefix_closure([()])).compiled()
    n = len(order)
    if exact:
        d, ints = x.scaled()
        coef = [ints.get(v, 0) for v in order]
        zero = 0
    else:
        coef = [float(coeffs[v]) if v in coeffs else 0.0 for v in order]
        zero = 0.0

    is_l2 = kind is BasisKind.L2
    is_c0 = kind is BasisKind.C0
    family = not p.is_zero
    if not family:
        ex = 1
    elif exact:
        ex = 1 if is_l2 else p.value.numerator  # L2 accumulates squares
    else:
        ex = float(p.value) / 2.0 if is_l2 else float(p.value)
    # least member of an empty family: after every key first * n + end
    empty = n * n
    acc = [zero] * n
    end = [0] * n
    first = [0] * n
    power = [zero] * n
    least = [empty] * n
    size = [0] * n
    here = [False] * n
    for i in range(n - 1, -1, -1):
        ext, e_end, via = zero, i, -1
        csum, lo, k = zero, empty, 0
        for c in kids[i]:
            ac = acc[c]
            if ac > ext or (ac == ext and end[c] < e_end):
                ext, e_end, via = ac, end[c], c
            csum += power[c]
            if least[c] < lo:
                lo = least[c]
            k += size[c]
        a = coef[i]
        own = a * a if is_l2 else abs(a)
        if is_c0:
            stop = own >= ext
            m = own if stop else ext
        else:
            stop = ext == zero
            m = own + ext
        # i is its own least attaining end when extending gains nothing;
        # in c0 that holds as soon as |a| reaches the best extension
        acc[i] = m
        end[i] = i if stop else e_end
        if order[i] in coeffs:
            first[i] = i
        else:
            first[i] = -1 if stop else first[via]
        if not family:
            continue
        closed = m if ex == 1 else m ** ex
        f = first[i]
        t = f * n + end[i] if f >= 0 else empty
        if closed != csum:
            start = closed > csum
        else:  # the lexicographically smaller family wins the tie
            start = k > 0 and (t < lo or (t == lo and k > 1))
        here[i] = start
        if start:
            power[i], least[i], size[i] = closed, t, int(f >= 0)
        else:
            power[i], least[i], size[i] = csum, lo, k

    if not family:
        nv = NormValue.exact(Fraction(acc[0], d * d if is_l2 else d),
                             2 if is_l2 else 1)
        if first[0] < 0:
            return nv, None
        return nv, Segment(order[first[0]], order[end[0]])
    if exact:
        scale = d * d if is_l2 else d ** p.value.numerator
        nv = NormValue.exact(Fraction(power[0], scale), p.value)
    else:
        nv = NormValue.approximate(power[0] ** (1.0 / float(p.value)))
    if not witness:
        return nv, None
    segs = []
    stack = [0]
    while stack:
        i = stack.pop()
        if not here[i]:
            stack.extend(kids[i])
        elif first[i] >= 0:
            segs.append((first[i], end[i]))
    segs.sort()
    return nv, tuple(Segment(order[f], order[e]) for f, e in segs)


def baire_norm(x, kind, p):
    """Norm of x: supremum over families of pairwise incomparable
    segments of the p-aggregate of per-segment block norms.

    Exact for (L1 or C0, p in {1, 2}) and (L2, p = 2); binary64
    otherwise, with downstream comparisons at bases.approx_equal's
    relative-plus-absolute tolerance.
    """
    p = ExponentP.coerce(p)
    if p.is_zero:
        raise InvalidParameter("use baire_norm_zero for the p = 0 variant")
    return _segment_dp(x, kind, p, witness=False)[0]


def baire_norm_witness(x, kind, p):
    """As baire_norm, also returning an attaining trimmed segment family,
    lexicographically least among the maximizers.

    The least-maximizer promise is exact in exact mode only.  In binary64
    mode family values are float sums, so families whose exact values tie
    can differ by rounding, and the family returned is then least among
    the maximizers only up to that rounding."""
    p = ExponentP.coerce(p)
    if p.is_zero:
        raise InvalidParameter(
            "use baire_norm_zero(..., with_witness=True) for p = 0"
        )
    return _segment_dp(x, kind, p, witness=True)


def baire_norm_zero(x, kind, *, with_witness=False):
    """Maximum block norm over single segments with endpoints in the
    support closure; exact for every supported basis.  The witness is
    the least maximizing segment, trimmed."""
    nv, seg = _segment_dp(x, kind, P_ZERO, witness=True)
    return (nv, seg) if with_witness else nv


# ---------------------------------------------------------------------------
# exhaustive oracle

def _trim_segment(x, min_node, max_node):
    """Trim a chain to its support endpoints; None if support-free."""
    chain = [max_node[:i] for i in range(len(min_node), len(max_node) + 1)]
    carriers = [n for n in chain if x[n] != 0]
    if not carriers:
        return None
    return Segment(carriers[0], carriers[-1])


def _trimmed_family(x, fam):
    """fam trimmed by _trim_segment, support-free segments dropped, in
    the oracle's tie order, and its key in that order: (node_key(min),
    node_key(max)) per segment."""
    trimmed = (_trim_segment(x, a, v) for a, v in fam)
    keyed = sorted((((node_key(s.min_node), node_key(s.max_node)), s)
                    for s in trimmed if s is not None), key=lambda ks: ks[0])
    return tuple(s for _, s in keyed), tuple(k for k, _ in keyed)


def _segment_families(closure):
    """Every valid family over `closure`: an antichain of start nodes,
    one downward segment per start node, built bottom-up over the
    closure's compiled() form.  Exponential; oracle use only."""
    order, _, kids = closure.compiled()
    if not order:
        return ((),)
    fams, subtree = [None] * len(order), [None] * len(order)
    for i in range(len(order) - 1, -1, -1):
        subtree[i] = sum((subtree[c] for c in kids[i]), [order[i]])
        fams[i] = [sum(combo, ()) for combo in
                   itertools.product(*(fams[c] for c in kids[i]))]
        fams[i] += (((order[i], u),) for u in subtree[i])
    return tuple(fams[0])


@within_binary64
def _segment_powers(x, closure, kind, p, exact):
    """The p-th power of the block norm of every segment (v[:i], v) with
    endpoints in the closure, from one upward walk per closure node that
    keeps a running sum of |a|, sum of a * a or max |a| over x.scaled()
    integers.

    Exact mode returns integers over the common scale D ** p (D ** 2 in
    l2, which keeps squares); binary64 mode returns the floats
    basis_norm(...).approx ** p bit for bit.  Returns (powers, scale),
    scale None in binary64 mode."""
    d, ints = x.scaled()
    is_l2 = kind is BasisKind.L2
    is_c0 = kind is BasisKind.C0
    ex = 1 if is_l2 else p.value.numerator
    scale = (d * d if is_l2 else d ** ex) if exact else None
    # the block norm's own scale and root, as in NormValue.exact
    block_scale = d * d if is_l2 else d
    root = 1 / (2.0 if is_l2 else 1.0)
    fp = float(p.value)
    powers = {}
    for v in closure:
        acc = 0
        for i in range(len(v), -1, -1):
            seg = (v[:i], v)
            a = ints.get(seg[0], 0)
            if is_l2:
                acc += a * a
            elif is_c0:
                acc = max(acc, abs(a))
            else:
                acc += abs(a)
            if exact:
                powers[seg] = acc ** ex
            else:
                powers[seg] = ((acc / block_scale) ** root) ** fp
    return powers, scale


def _oracle_guard(closure):
    if len(closure) > MAX_ORACLE_NODES:
        raise TooLargeForOracle(
            f"support closure has {len(closure)} nodes, "
            f"oracle bound is {MAX_ORACLE_NODES}"
        )


def baire_norm_oracle(x, kind, p, *, with_witness=False):
    """Exhaustive reference evaluator; bit-identical to baire_norm in
    exact mode.  It sums integer segment powers (floats in binary64 mode)
    over every family of an uncached enumeration.  Requires the support
    closure to stay within MAX_ORACLE_NODES (14) nodes."""
    p = ExponentP.coerce(p)
    if p.is_zero:
        raise InvalidParameter("use baire_norm_zero for the p = 0 variant")
    closure = x.support_closure()
    _oracle_guard(closure)
    exact = exact_mode(kind, p)
    powers, scale = _segment_powers(x, closure, kind, p, exact)
    zero = 0 if exact else 0.0
    # the maximum value; with a witness, ties go to the least family in
    # _trimmed_family order, whose key is kept beside it
    total = family = key = None
    for fam in _segment_families(closure):
        val = zero
        for seg in fam:
            val += powers[seg]
        if total is not None and (
            val < total or (val == total and not with_witness)
        ):
            continue
        if with_witness:
            fam_w, fam_key = _trimmed_family(x, fam)
            if val == total and fam_key >= key:
                continue
            family, key = fam_w, fam_key
        total = val
    nv = (
        NormValue.exact(Fraction(total, scale), p.value)
        if exact
        else NormValue.approximate(total ** (1.0 / float(p.value)))
    )
    return (nv, family) if with_witness else nv


# ---------------------------------------------------------------------------
# exact identities

def _norm_power(x, kind, p, exact):
    nv = baire_norm(x, kind, p)
    if exact:
        return nv.power_base
    return nv.approx ** float(p.value)


def _report(lhs, rhs, exact):
    """The two sides of an identity, compared exactly or by approx_equal."""
    return CheckReport(lhs == rhs if exact else approx_equal(lhs, rhs),
                       lhs, rhs, exact)


def check_incomparable_additivity(ys, coeffs, kind, p):
    """Verify ||sum a_i y_i||^p == sum |a_i|^p ||y_i||^p for vectors with
    pairwise completely incomparable supports."""
    p = ExponentP.coerce(p)
    if p.is_zero:
        raise InvalidParameter("additivity is a p >= 1 identity")
    ys = list(ys)
    coeffs = [rational(c) for c in coeffs]
    if len(ys) != len(coeffs):
        raise InvalidParameter("one coefficient per vector is required")
    if not ys:
        raise InvalidParameter("at least one vector is required")
    tree = ys[0].tree
    for y in ys[1:]:
        if y.tree != tree:
            raise TreeMismatch("vectors live on different trees")
    supports = [sorted(y.support, key=node_key) for y in ys]
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            for s in supports[i]:
                for t in supports[j]:
                    if comparable(s, t):
                        raise SupportsNotIncomparable(i, j, (s, t))
    exact = exact_mode(kind, p)
    combined = linear_combination(zip(coeffs, ys))
    lhs = _norm_power(combined, kind, p, exact)
    rhs = Fraction(0) if exact else 0.0
    for a, y in zip(coeffs, ys):
        weight = (abs(a) ** p.value.numerator if exact
                  else abs(float(a)) ** float(p.value))
        rhs += weight * _norm_power(y, kind, p, exact)
    return _report(lhs, rhs, exact)


def check_branch_isometry(x, kind, p):
    """For a chain-supported vector the norm equals the ingredient-basis
    norm of the depth-indexed coefficient list of the full chain."""
    p = ExponentP.coerce(p)
    supp = sorted(x.support, key=node_key)
    # adjacent comparability suffices: in length-lex order equal-length
    # distinct nodes are incomparable, so lengths strictly increase and
    # the prefix relation chains transitively
    for i in range(1, len(supp)):
        if not comparable(supp[i - 1], supp[i]):
            raise SupportNotChain(
                f"support nodes {supp[i-1]} and {supp[i]} are incomparable"
            )
    top = supp[-1] if supp else ()
    chain = [x[top[:i]] for i in range(len(top) + 1)] if supp else []
    block = basis_norm(kind, chain)
    lhs = baire_norm_zero(x, kind) if p.is_zero else baire_norm(x, kind, p)
    passed = lhs.equals(block)
    return CheckReport(passed, lhs, block, lhs.is_exact and block.is_exact)


def check_root_decomposition(x, kind, p):
    """With a zero root coefficient the norm power splits exactly across
    the root branches, each reindexed into its own subtree and measured
    in the first-term-deleted ingredient basis."""
    p = ExponentP.coerce(p)
    if p.is_zero:
        raise InvalidParameter("the decomposition is a p >= 1 identity")
    if x[()] != 0:
        raise NonzeroRootCoefficient("root coefficient must vanish")
    exact = exact_mode(kind, p)
    lhs = _norm_power(x, kind, p, exact)
    star = deleted_first(kind)
    rhs = Fraction(0) if exact else 0.0
    roots = sorted({n[0] for n in x.tree.nodes if n})
    for lam in roots:
        sub = subtree_at(x.tree, lam)
        coeffs = {n[1:]: c for n, c in x.coeffs.items() if n[0] == lam}
        if not coeffs:
            continue
        rhs += _norm_power(BaireVector(sub, coeffs), star, p, exact)
    return _report(lhs, rhs, exact)
