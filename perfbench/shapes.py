"""The criterion-1 shape space, enumerated by the benchmark itself.

Criterion 1 sweeps every prefix-closed tree with at most 8 nodes whose
entries are below 3: 52,787 shapes.  The benchmark keeps its own copy of
that enumeration (it does not import the test helpers) so that it can
draw a uniform sample from the whole space instead of the size-ordered
prefix that criterion 1 reaches inside its 60 s budget.
"""

from array import array
from collections import Counter
from math import comb

MAX_NODES = 8
BRANCHING = 3


def node_order(node):
    """Length-lexicographic order, the library's canonical node order."""
    return (len(node), node)


def _shapes_of_size(n, smaller, branching):
    """Yield every shape of n nodes, each a tuple of node tuples in
    length-lexicographic order, given `smaller` = {m: [shape, ...]} for
    every m < n.

    A shape of n nodes is the root plus, for each child label below
    `branching`, either nothing or a shape of some size hung under that
    label, with the sizes summing to n - 1.
    """

    def hang(label, remaining, acc):
        if label == branching:
            if remaining == 0:
                yield tuple(sorted(acc, key=node_order))
            return
        yield from hang(label + 1, remaining, acc)
        for size in range(1, remaining + 1):
            for sub in smaller[size]:
                yield from hang(label + 1, remaining - size,
                                acc + [(label,) + node for node in sub])

    yield from hang(0, n - 1, [()])


def iter_shapes(max_nodes=MAX_NODES, branching=BRANCHING):
    """Every shape, smallest first, in a fixed order.  Only the shapes
    below the largest size are kept in memory: those of the largest size
    (43,263 of the 52,787) are generated one at a time."""
    smaller = {}
    for n in range(1, max_nodes + 1):
        shapes = _shapes_of_size(n, smaller, branching)
        if n < max_nodes:
            shapes = smaller[n] = list(shapes)
        yield from shapes


def all_shapes(max_nodes=MAX_NODES, branching=BRANCHING):
    """Every shape, smallest first, as a list."""
    return list(iter_shapes(max_nodes, branching))


def systematic_sample(count, start, max_nodes=MAX_NODES,
                      branching=BRANCHING):
    """`count` shapes drawn so that every shape has the same chance,
    count / N, of being drawn, and the draw is spread evenly over the
    shapes ordered by node count and then by `family_count`, the main
    source of the oracle's cost.  `start` in [0, 1) is the random part:
    with step = N / count, the shapes at positions int((start + j) * step)
    of that order are drawn, for j < count.

    A simple random sample of 40 shapes varies in mean family count by
    0.07 (quartile distance over median) from seed to seed; this one by
    0.017.  Node counts come out in the enumeration's proportions, to
    within one shape.  Returned in that order.
    """
    keys = array("l", (len(s) * 10_000 + family_count(s)
                       for s in iter_shapes(max_nodes, branching)))
    first = {}
    position = 0
    for key, n in sorted(Counter(keys).items()):
        first[key] = position
        position += n
    step = len(keys) / count
    wanted = {int((start + j) * step) for j in range(count)}
    seen = Counter()
    drawn = []
    for i, shape in enumerate(iter_shapes(max_nodes, branching)):
        key = keys[i]
        if first[key] + seen[key] in wanted:
            drawn.append((first[key] + seen[key], shape))
        seen[key] += 1
    return [shape for _, shape in sorted(drawn)]


def expected_count(n, branching=BRANCHING):
    """Number of shapes with exactly n nodes: the Fuss-Catalan number
    C(b*n, n) / ((b-1)*n + 1) counting b-ary trees."""
    return comb(branching * n, n) // ((branching - 1) * n + 1)


def family_count(nodes):
    """Number of segment families the oracle enumerates over a closure.

    A family is an antichain of start nodes with one downward segment per
    start node.  At a node v either no segment starts (the children choose
    independently: the product of their counts) or one segment starts at v
    and ends at one of the nodes of v's subtree.  The empty family is
    counted, as the oracle scans it too.
    """
    nodes = tuple(nodes)
    if not nodes:
        return 1
    children = {v: [] for v in nodes}
    for v in nodes:
        if v:
            children[v[:-1]].append(v)
    size = {}
    count = {}
    for v in sorted(nodes, key=lambda n: -len(n)):
        size[v] = 1 + sum(size[c] for c in children[v])
        product = 1
        for c in children[v]:
            product *= count[c]
        count[v] = product + size[v]
    return count[()]
