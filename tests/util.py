"""Shared test helpers: exhaustive tree enumeration, seeded vectors, and
definitional oracles kept independent of the library's fast paths."""

import itertools
import random
from fractions import Fraction

from bairelab import (
    BaireVector,
    BasisKind,
    NormValue,
    Segment,
    basis_norm,
    prefix_closure,
    segment_vector,
)
from bairelab.simplex import solve_lp
from bairelab.trees import FiniteTree, comparable, is_prefix, node_key


def tree_shapes(max_nodes, branching):
    """All prefix-closed trees with 1..max_nodes nodes and entries below
    `branching`, as tuples of node tuples."""
    by_size = {1: [((),)]}
    for n in range(2, max_nodes + 1):
        out = []

        def distribute(slot, remaining, acc):
            if slot == branching:
                if remaining == 0:
                    out.append(tuple(sorted(acc, key=lambda t: (len(t), t))))
                return
            distribute(slot + 1, remaining, acc)
            for size in range(1, remaining + 1):
                for sub in by_size[size]:
                    shifted = [(slot,) + node for node in sub]
                    distribute(slot + 1, remaining - size, acc + shifted)

        distribute(0, n - 1, [()])
        by_size[n] = out
    for n in range(1, max_nodes + 1):
        yield from by_size[n]


def canonical_shapes(max_nodes, branching=3):
    """Shapes whose child labels are contiguous 0..c-1 at every node:
    one representative per sibling-relabelling class."""
    for nodes in tree_shapes(max_nodes, branching):
        node_set = set(nodes)
        ok = True
        for v in nodes:
            labels = sorted(n[-1] for n in node_set
                            if len(n) == len(v) + 1 and n[: len(v)] == v)
            if labels != list(range(len(labels))):
                ok = False
                break
        if ok:
            yield nodes


def random_rational_vector(tree, rng, allow_zero=False):
    coeffs = {}
    for node in tree:
        num = rng.randint(-6, 6)
        if not allow_zero and num == 0:
            num = 1
        coeffs[node] = Fraction(num, rng.randint(1, 4))
    return BaireVector(tree, coeffs)


def seeded_rng(seed):
    return random.Random(seed)


def derived_oracle(tree):
    """Definitional scan over all pairs."""
    nodes = set(tree.nodes)
    return {
        s
        for s in nodes
        if any(s != t and is_prefix(s, t) for t in nodes)
    }


def zero_oracle(x, kind):
    """Definitional p = 0 scan: the block norm of every segment with
    endpoints in the support closure.  Among maximizers it takes the least
    untrimmed (min, max) in length-lexicographic order, then trims the
    winner to its first and last support node (None for the zero
    vector)."""
    best = None
    for v in x.support_closure():
        for i in range(len(v) + 1):
            seg = Segment(v[:i], v)
            nv = basis_norm(kind, segment_vector(x, seg))
            key = (node_key(seg.min_node), node_key(seg.max_node))
            if best is None or nv.compare(best[0]) > 0 or (
                nv.compare(best[0]) == 0 and key < best[1]
            ):
                best = (nv, key, seg)
    if best is None:
        return basis_norm(kind, []), None
    nv, _, seg = best
    carriers = [n for n in seg.nodes() if x[n] != 0]
    return nv, Segment(carriers[0], carriers[-1])


def brute_families(tree):
    """Definitional family enumeration: every set of segments (a, v), a a
    prefix of v in the tree, in which each node of every segment is
    incomparable with each node of every other segment.  Backtracks over
    the segments node by node, without the min-node lemma; families come
    back as frozensets of (a, v) pairs."""
    segs = [(v[:i], v) for v in tree for i in range(len(v) + 1)]
    chain = {s: [s[1][:i] for i in range(len(s[0]), len(s[1]) + 1)]
             for s in segs}

    def apart(s, t):
        return not any(comparable(m, n) for m in chain[s] for n in chain[t])

    out = []

    def grow(start, chosen):
        out.append(frozenset(chosen))
        for j in range(start, len(segs)):
            if all(apart(segs[j], t) for t in chosen):
                grow(j + 1, chosen + [segs[j]])

    grow(0, [])
    return out


def random_subtree(tree, rng):
    """A random prefix-closed subset, grown root-down."""
    kept = set()
    for node in tree:  # length-lex order: parents first
        if node == ():
            if rng.random() < 0.9:
                kept.add(node)
        elif node[:-1] in kept and rng.random() < 0.7:
            kept.add(node)
    return FiniteTree(kept, _validated=True)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def simplex_grid(width, max_denominator):
    """Every point of the probability simplex with denominator bounded by
    max_denominator."""
    points = set()
    for d in range(1, max_denominator + 1):
        for comp in compositions(d, width):
            points.add(tuple(Fraction(c, d) for c in comp))
    return sorted(points)


def grid_min(family, window, max_denominator=6):
    """Dense rational grid oracle for convex block minimization."""
    start, length = window
    best = None
    for point in simplex_grid(length + 1, max_denominator):
        combo = family.mix([(a, start + i) for i, a in enumerate(point)])
        nv = family.norm(combo)
        if best is None or nv.compare(best) < 0:
            best = nv
    return best


def functional_supports(closure, kind, p):
    """Definitional node sets over which sign patterns generate the
    polyhedral norm (l1 or c0, p in {0, 1}), the functionals being
    sum_{s in U} +-y(s).  l1 reads every node of each segment, so U is
    one segment's chain (p = 0) or a nonempty family's nodes (p = 1).  c0
    reads one node per segment, and one node from each segment of a
    family is an antichain, so U is a single node (p = 0) or the start
    nodes of a nonempty family, which are exactly the antichains
    (p = 1)."""
    l1 = kind is BasisKind.L1
    if p.is_zero:
        if not l1:
            return [(v,) for v in closure]
        return sorted(tuple(v[:i] for i in range(j, len(v) + 1))
                      for v in closure for j in range(len(v) + 1))
    families = [fam for fam in brute_families(closure) if fam]
    if not l1:
        return sorted({tuple(sorted((a for a, _ in fam), key=node_key))
                       for fam in families})
    return sorted(
        tuple(sorted((v[:i] for a, v in fam
                      for i in range(len(a), len(v) + 1)), key=node_key))
        for fam in families
    )


def full_block_min_lp(vectors, kind, p):
    """The block-min LP over every generating functional, as solve_lp
    arguments.  Variables: the weights a (sum a = 1), u_s >= |y(s)| per
    node s of the support closure in node_key order, and a bound t >= the
    sum of the u's over each inclusion-maximal support (u >= 0 makes the
    others redundant); t is minimized."""
    closure = prefix_closure(set().union(*(v.support for v in vectors)))
    nodes = sorted(closure, key=node_key)
    index = {s: j for j, s in enumerate(nodes)}
    w, n = len(vectors), len(nodes)
    zero, one = Fraction(0), Fraction(1)
    a_ub = []
    for j, s in enumerate(nodes):
        for sign in (1, -1):
            row = [sign * v[s] for v in vectors] + [zero] * (n + 1)
            row[w + j] = -one
            a_ub.append(row)
    supports = functional_supports(closure, kind, p)
    sets = [frozenset(u) for u in supports]
    for u, su in zip(supports, sets):
        if any(su < other for other in sets):
            continue
        row = [zero] * (w + n) + [-one]
        for s in u:
            row[w + index[s]] = one
        a_ub.append(row)
    return ([zero] * (w + n) + [one], a_ub, [zero] * len(a_ub),
            [[one] * w + [zero] * (n + 1)], [one])


def reference_block_min(vectors, kind, p):
    """Exact minimum norm over convex combinations, from the full LP:
    (weights of its Bland vertex, NormValue)."""
    value, sol = solve_lp(*full_block_min_lp(vectors, kind, p))
    return tuple(sol[:len(vectors)]), NormValue.exact(value, 1)


def step_block_min_lp(steps):
    """The cell LP block-min solved a dyadic-step window by before it
    joined the cutting-plane loop, as solve_lp arguments, entry for
    entry: with u_j >= |sum_i a_i f_i(j)| for every cell j of the common
    resolution and sum a = 1, minimize the mean of the u's."""
    res = max(f.resolution for f in steps)
    cells = 2**res
    w = len(steps)
    zero, one = Fraction(0), Fraction(1)
    a_ub = []
    for j, col in enumerate(zip(*(f.refine(res).values for f in steps))):
        for sign in (1, -1):
            row = [sign * x for x in col] + [zero] * cells
            row[w + j] = -one
            a_ub.append(row)
    return ([zero] * w + [Fraction(1, cells)] * cells, a_ub,
            [zero] * len(a_ub), [[one] * w + [zero] * cells], [one])


def reference_step_block_min(steps):
    """Exact least L1 norm over convex combinations of steps, from the
    cell LP: (weights of its Bland vertex, NormValue)."""
    value, sol = solve_lp(*step_block_min_lp(steps))
    return tuple(sol[:len(steps)]), NormValue.exact(value, 1)


def reference_trial_vectors(trials, size):
    """TrialCoeffs.vectors(size) by its definition, on Fractions: the
    sign patterns, then the grid product and the seeded random trials,
    each kept when it is nonzero, off the sign patterns' rays and the
    first on its ray, the ray being the sample over the sum of its
    absolute entries."""
    signs = [(Fraction(1),) + tuple(Fraction(s) for s in tail)
             for tail in itertools.product((1, -1), repeat=size - 1)]
    grid = itertools.product(map(Fraction, trials.grid), repeat=size)
    rng = random.Random(trials.seed)
    samples = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(size))
               for _ in range(trials.random_trials)]
    rays, kept = set(), []
    for c in itertools.chain(grid, samples):
        if not any(c) or c[0] > 0 and len(set(map(abs, c))) == 1:
            continue
        scale = sum(map(abs, c))
        ray = tuple(v / scale for v in c)
        if ray not in rays:
            rays.add(ray)
            kept.append(c)
    return signs + kept


def pairwise_clash(ys):
    """The SupportsNotIncomparable arguments (i, j, (s, t)) a scan of
    every pair of supports meets first, i < j ascending and s, t in
    node_key order; None when the supports are completely incomparable."""
    supports = [sorted(y.support, key=node_key) for y in ys]
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            for s in supports[i]:
                for t in supports[j]:
                    if comparable(s, t):
                        return i, j, (s, t)
    return None
