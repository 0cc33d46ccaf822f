"""Finite trees on the naturals: extension order, segments, derivation, rank.

Nodes are plain tuples of naturals.  A tree is a prefix-closed finite set
of nodes; the empty tuple is the root.  Everything here is immutable and
every operation is a pure function, so values are safe to share across
threads.
"""

import random as _random
from itertools import chain

from .errors import (
    BudgetExceeded,
    InvalidParameter,
    InvalidSegment,
    PrefixClosureViolation,
    Record,
    natural,
)

# Overflow contract: entries and depths beyond these bounds are rejected
# outright instead of silently degrading.  A chain's node list holds
# ~depth^2 / 2 entries, so depth sets the cost of every layer: at 2^12 a
# spine's `gen` and `norm` on its full-support vector take seconds and
# ~200 MB each, and every doubling multiplies that by four.
MAX_ENTRY = 2**32 - 1
MAX_DEPTH = 2**12


def node_key(node):
    """Length-lexicographic sort key; the canonical node ordering."""
    return (len(node), node)


def check_node(node):
    node = tuple(node)
    # one pass over plain int entries in range; anything else takes the
    # per-entry loop below, which names the first offending entry
    if (len(node) <= MAX_DEPTH and set(map(type, node)) <= {int}
            and (not node or (min(node) >= 0 and max(node) <= MAX_ENTRY))):
        return node
    if len(node) > MAX_DEPTH:
        raise InvalidParameter(f"node depth {len(node)} exceeds {MAX_DEPTH}")
    for e in node:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise InvalidParameter(f"node entries must be naturals, got {e!r}")
        if e > MAX_ENTRY:
            raise InvalidParameter(f"node entry {e} exceeds {MAX_ENTRY}")
    return node


def is_prefix(s, t):
    """True iff t extends s, i.e. s <= t in the tree order."""
    return len(s) <= len(t) and t[: len(s)] == s


def comparable(s, t):
    return is_prefix(s, t) or is_prefix(t, s)


class FiniteTree:
    """A prefix-closed finite set of nodes.

    Unless `_validated`, every node passes check_node, in input order,
    and then the first node in set order that lacks a prefix raises
    PrefixClosureViolation with its longest missing prefix; the set is
    never closed silently.  Iteration is in length-lexicographic order.
    """

    __slots__ = ("_nodes", "_sorted", "_compiled")

    def __init__(self, nodes, _validated=False):
        nodes = list(map(tuple, nodes))
        # one pass each for the depth, the entries' types (not values: True
        # == 1) and their range, else check_node names the first offender
        entries = chain.from_iterable
        if not _validated and nodes and not (
                max(map(len, nodes)) <= MAX_DEPTH
                and set(map(type, entries(nodes))) <= {int}
                and min(entries(nodes), default=0) >= 0
                and max(entries(nodes), default=0) <= MAX_ENTRY):
            for n in nodes:
                check_node(n)
        ns = frozenset(nodes)
        # a set is prefix-closed iff it holds each non-root node's parent
        if not _validated and not {n[:-1] for n in ns if n} <= ns:
            # every prefix walked so far is present, and so are its own
            # prefixes unless this walk raises: a node's walk from its
            # longest prefix down stops at the first one already walked,
            # and the first absent prefix it meets is still its longest
            closed = set()
            for n in ns:
                for i in range(len(n) - 1, -1, -1):
                    prefix = n[:i]
                    if prefix in closed:
                        break
                    if prefix not in ns:
                        raise PrefixClosureViolation(n, prefix)
                    closed.add(prefix)
        self._nodes = ns
        self._sorted = tuple(sorted(ns, key=node_key))
        self._compiled = None

    @property
    def nodes(self):
        return self._nodes

    def __len__(self):
        return len(self._nodes)

    def __iter__(self):
        return iter(self._sorted)

    def __contains__(self, node):
        return tuple(node) in self._nodes

    def __eq__(self, other):
        if not isinstance(other, FiniteTree):
            return NotImplemented
        return self is other or self._nodes == other._nodes

    def __hash__(self):
        # a frozenset caches its own hash
        return hash(self._nodes)

    def __repr__(self):
        return f"FiniteTree({list(self._sorted)!r})"

    @classmethod
    def _of(cls, order, index, kids, parent):
        """The tree whose compiled() form is (order, index, kids, parent),
        a form already known to be one: order a prefix-closed node tuple
        in node_key order."""
        tree = object.__new__(cls)
        tree._nodes = frozenset(order)
        tree._sorted = order
        tree._compiled = (order, index, kids, parent)
        return tree

    def compiled(self):
        """(order, index, kids, parent), built once and shared read-only:
        the nodes in node_key order, each node's position there, per
        position the positions of its children, ascending, and per
        position its parent's position, -1 at the root.  Every parent
        precedes its children."""
        if self._compiled is None:
            order = self._sorted
            index = {v: i for i, v in enumerate(order)}
            kids = [[] for _ in order]
            parent = [-1] * len(order)
            for i in range(1, len(order)):
                j = parent[i] = index[order[i][:-1]]
                kids[j].append(i)
            self._compiled = (order, index, kids, parent)
        return self._compiled

    def children(self, node):
        """Child nodes of `node` in ascending label order; () if absent."""
        order, index, kids, _ = self.compiled()
        i = index.get(tuple(node))
        return () if i is None else tuple(order[c] for c in kids[i])


EMPTY_TREE = FiniteTree((), _validated=True)


def make_tree(node_list):
    """Build a tree from a list of nodes, deduplicating and validating
    them as FiniteTree does."""
    return FiniteTree(node_list)


def prefix_closure(nodes):
    """Smallest prefix-closed set containing `nodes`, as a FiniteTree."""
    closed = set()
    for n in nodes:
        n = tuple(n)
        # walk up from the longest prefix; once one is present, so are
        # all of its own prefixes
        for i in range(len(n), -1, -1):
            prefix = n[:i]
            if prefix in closed:
                break
            closed.add(prefix)
    return FiniteTree(closed, _validated=True)


def derived_tree(tree, times=1):
    """`tree` derived `times` times, each derivation keeping the nodes
    with a proper extension: in a prefix-closed set, the prefixes
    n[:len(n) - times] of the nodes n at least `times` long."""
    natural(times, "times")
    return FiniteTree({n[:len(n) - times] for n in tree.nodes
                       if len(n) >= times}, _validated=True)


def order_index(tree):
    """Number of derivations until the tree is empty, 0 iff already
    empty: the greatest node length plus one."""
    return max(map(len, tree.nodes), default=-1) + 1


def subtree_at(tree, k):
    """The tree {s : (k) + s in tree}; empty when (k) is not a node."""
    natural(k, "k", 0, MAX_ENTRY)
    return FiniteTree(
        {n[1:] for n in tree.nodes if n and n[0] == k}, _validated=True
    )


def restricted_at(tree, k):
    """The plain node set {s in tree : (k) <= s}; not itself a tree."""
    natural(k, "k", 0, MAX_ENTRY)
    return frozenset(n for n in tree.nodes if n and n[0] == k)


class Segment(Record):
    """An order-convex chain, stored by its endpoints.

    The denoted node set is every prefix of max_node of length at least
    len(min_node); storing endpoints keeps membership O(depth).
    """

    __slots__ = ("min_node", "max_node")

    def __init__(self, min_node: tuple, max_node: tuple):
        min_node, max_node = tuple(min_node), tuple(max_node)
        if not is_prefix(min_node, max_node):
            raise InvalidSegment(f"{min_node} is not a prefix of {max_node}")
        object.__setattr__(self, "min_node", min_node)
        object.__setattr__(self, "max_node", max_node)

    @classmethod
    def _of(cls, min_node, max_node):
        """The segment of two tuples already known to be in prefix order."""
        seg = object.__new__(cls)
        object.__setattr__(seg, "min_node", min_node)
        object.__setattr__(seg, "max_node", max_node)
        return seg

    def nodes(self):
        lo, hi = len(self.min_node), len(self.max_node)
        return tuple(self.max_node[:i] for i in range(lo, hi + 1))

    def __contains__(self, node):
        node = tuple(node)
        return len(node) >= len(self.min_node) and is_prefix(
            node, self.max_node
        )


def segment_in_tree(tree, segment):
    """True iff every node the segment denotes belongs to `tree`.

    Because trees are prefix-closed it suffices that the max node belongs.
    """
    return segment.max_node in tree


def is_segment(tree, node_set):
    """True iff `node_set` is totally ordered and order-convex in `tree`."""
    nodes = [tuple(n) for n in node_set]
    for n in nodes:
        if n not in tree:
            raise InvalidSegment(f"{n} is not a node of the tree")
    if not nodes:
        return True
    nodes.sort(key=node_key)
    top = nodes[-1]
    if any(not is_prefix(n, top) for n in nodes):
        return False
    # Convexity: a tree holds every prefix of top, so the chain is convex
    # iff it holds one node per length from the shortest to top's.
    return len(set(nodes)) == len(top) - len(nodes[0]) + 1


def segments_incomparable(seg1, seg2):
    """Complete incomparability of two segments.

    Equivalent to incomparability of the min nodes: any comparable pair
    (s, t) with s in seg1, t in seg2 makes both min nodes prefixes of the
    longer of s, t, hence comparable; the converse is immediate.
    """
    return not comparable(seg1.min_node, seg2.min_node)


# ---------------------------------------------------------------------------
# generators

def _check_depth(name, d):
    """Refuse a generator depth outside [0, MAX_DEPTH] before building."""
    natural(d, "d", lo=None)
    if d < 0:
        raise InvalidParameter(f"{name} requires d >= 0")
    if d > MAX_DEPTH:
        raise InvalidParameter(f"{name} depth {d} exceeds {MAX_DEPTH}")


def full_kary(k, d):
    """The full k-ary tree of depth d."""
    natural(k, "k", 1)
    _check_depth("full_kary", d)
    nodes = [()]
    frontier = [()]
    for _ in range(d):
        frontier = [n + (i,) for n in frontier for i in range(k)]
        nodes.extend(frontier)
    return FiniteTree(nodes, _validated=True)


def spine(d):
    """The chain of length d: nodes (0,)*i for i = 0..d."""
    _check_depth("spine", d)
    return FiniteTree([(0,) * i for i in range(d + 1)], _validated=True)


def random_tree(n, seed):
    """A prefix-closed tree with exactly n nodes, deterministic per seed.

    Grows from the root by attaching, n-1 times, a fresh child (labelled
    by the current child count) to a node chosen uniformly among the
    existing ones.  The generator is random.Random(seed), CPython's
    Mersenne Twister, so corpora are reproducible across platforms.
    """
    if natural(n, "n") == 0:
        return EMPTY_TREE
    rng = _random.Random(seed)
    nodes = [()]
    child_count = {(): 0}
    for _ in range(n - 1):
        parent = nodes[rng.randrange(len(nodes))]
        child = parent + (child_count[parent],)
        child_count[parent] += 1
        child_count[child] = 0
        nodes.append(child)
    return FiniteTree(nodes, _validated=True)


# ---------------------------------------------------------------------------
# lazy trees and the well-foundedness probe

class Cofinite(Record):
    """Child descriptor: every natural except `excluded` is a child.

    The probe explores the least non-excluded label as a representative
    and treats its siblings as exchangeable; a children_of callback that
    returns Cofinite asserts that the subtrees below those siblings are
    identical up to relabelling.
    """

    __slots__ = ("excluded",)

    def __init__(self, excluded: tuple = ()):
        object.__setattr__(self, "excluded", excluded)

    def representative(self):
        k = 0
        banned = set(self.excluded)
        while k in banned:
            k += 1
        return k


class LazyTree:
    """A tree given by a child-enumeration callback, probed to finite depth.

    children_of(node) must return either an iterable of child labels or a
    Cofinite descriptor, for any node reachable from the root.
    """

    __slots__ = ("children_of", "depth_budget")

    def __init__(self, children_of, depth_budget=64):
        self.children_of = children_of
        self.depth_budget = natural(depth_budget, "depth_budget")


WELL_FOUNDED_CERTIFIED = "well_founded_certified"
BRANCH_CANDIDATE = "branch_candidate"


class ProbeVerdict(Record):
    """Outcome of a finite well-foundedness probe.

    The verdict is asymmetric on purpose: certification is a proof that no
    chain of the probed length exists, but a branch candidate is only a
    deep chain, never a proof of ill-foundedness.
    """

    __slots__ = ("status", "prefix")

    def __init__(self, status: str, prefix: tuple | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "prefix", prefix)

    @property
    def is_certified(self):
        return self.status == WELL_FOUNDED_CERTIFIED


def probe_wf(lazy, depth):
    """Explore `lazy` exhaustively below `depth`.

    Returns BranchCandidate(prefix) for the lexicographically least chain
    of length `depth` if one exists, else WellFoundedCertified.  Raises
    BudgetExceeded when depth exceeds the tree's declared budget and
    InvalidParameter when it lies outside [0, MAX_DEPTH], before any
    node is explored.
    """
    if natural(depth, "probe depth", lo=None) > lazy.depth_budget:
        raise BudgetExceeded(
            f"requested depth {depth} exceeds budget {lazy.depth_budget}"
        )
    natural(depth, "probe depth", 0, MAX_DEPTH)
    if depth == 0:
        return ProbeVerdict(BRANCH_CANDIDATE, ())
    stack = [()]
    while stack:
        node = stack.pop()
        if len(node) == depth:
            return ProbeVerdict(BRANCH_CANDIDATE, node)
        descriptor = lazy.children_of(node)
        if isinstance(descriptor, Cofinite):
            labels = (descriptor.representative(),)
        else:
            labels = sorted(descriptor)
        stack.extend(node + (natural(label, "child label", 0, MAX_ENTRY),)
                     for label in reversed(labels))
    return ProbeVerdict(WELL_FOUNDED_CERTIFIED)


def lazy_from_tree(tree, depth_budget=64):
    """View a finite tree through the lazy interface."""

    def children_of(node):
        return tuple(c[-1] for c in tree.children(node))

    return LazyTree(children_of, depth_budget)


def zeros_branch(depth_budget=64):
    """The single infinite branch of zeros."""

    def children_of(node):
        return (0,) if all(e == 0 for e in node) else ()

    return LazyTree(children_of, depth_budget)


def depth_bounded(d, depth_budget=64):
    """All nodes of length <= d; every internal node has cofinitely
    many (in fact all) naturals as children."""
    natural(d, "d")

    def children_of(node):
        return Cofinite() if len(node) < d else ()

    return LazyTree(children_of, depth_budget)
