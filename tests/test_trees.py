import hashlib
import itertools
import time

import pytest

from bairelab import (
    Cofinite,
    FiniteTree,
    LazyTree,
    Segment,
    derived_tree,
    full_kary,
    is_segment,
    lazy_from_tree,
    make_tree,
    order_index,
    prefix_closure,
    probe_wf,
    random_tree,
    restricted_at,
    segments_incomparable,
    spine,
    subtree_at,
)
from bairelab.errors import (
    BudgetExceeded,
    InvalidParameter,
    InvalidSegment,
    PrefixClosureViolation,
)
from bairelab.trees import BRANCH_CANDIDATE, depth_bounded, zeros_branch
from bairelab.trees import MAX_DEPTH, check_node, comparable, is_prefix

from util import canonical_shapes, derived_oracle, random_subtree, seeded_rng


def test_make_tree_accepts_prefix_closed():
    t = make_tree([(), (0,), (1,)])
    assert len(t) == 3
    assert (0,) in t and (2,) not in t


def test_make_tree_rejects_missing_prefix():
    for build in (make_tree, FiniteTree):
        with pytest.raises(PrefixClosureViolation) as exc:
            build([(0, 1)])
        assert exc.value.node == (0, 1)
        assert exc.value.missing_prefix == (0,)


# SHA-256 over (error, node, missing_prefix, message) of every input of
# _unclosed_node_lists, one line each, recorded while FiniteTree still had
# a parent-only closure check of its own.
MAKE_TREE_DIAGNOSTICS_DIGEST = (
    "66c18b8155e7f877c5fda0a55b17a8a6353091f9311c4319704b2ec06089142c"
)


def _unclosed_node_lists():
    """Seeded node lists that are not prefix-closed: random nodes with
    duplicates, some with an entry check_node rejects, then chains
    missing exactly one prefix."""
    rng = seeded_rng(1511)
    count = 0
    while count < 20000:
        nodes = [tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
                 for _ in range(rng.randint(1, 24))]
        nodes.append(tuple(rng.randrange(3) for _ in range(rng.randint(2, 6))))
        present = set(nodes)
        if all(n[:-1] in present for n in nodes if n):
            continue
        count += 1
        nodes += rng.sample(nodes, rng.randrange(3))
        rng.shuffle(nodes)
        if rng.random() < 0.05:
            bad = rng.choice([(-1,), (0, 2**32), (1, True)])
            nodes.insert(rng.randrange(len(nodes) + 1), bad)
        yield nodes
    for depth in range(1, 41):
        for gap in range(depth):
            for label in (0, 7):
                nodes = [(label,) * i for i in range(depth + 1) if i != gap]
                yield nodes
                yield nodes[::-1]


def test_make_tree_diagnostics_are_pinned():
    digest = hashlib.sha256()
    closed = 0
    for nodes in _unclosed_node_lists():
        try:
            make_tree(nodes)
        except (PrefixClosureViolation, InvalidParameter) as exc:
            line = (type(exc).__name__, getattr(exc, "node", None),
                    getattr(exc, "missing_prefix", None), str(exc))
            digest.update(repr(line).encode() + b"\n")
        else:
            closed += 1
    assert closed == 0
    assert digest.hexdigest() == MAKE_TREE_DIAGNOSTICS_DIGEST


def test_make_tree_reads_entry_types_not_values():
    # True == 1 and 1.0 == 1, so a set of entry values would pass them
    for bad in (True, 1.0):
        with pytest.raises(InvalidParameter) as exc:
            make_tree([(), (1,), (1, 0), (bad, 0)])
        assert str(exc.value) == f"node entries must be naturals, got {bad!r}"


def test_make_tree_is_linear_on_a_chain():
    nodes = list(spine(2000))
    start = time.process_time()
    assert make_tree(nodes) == spine(2000)
    assert time.process_time() - start < 2.0


def _definitional_violation(nodes):
    """The first node in set order lacking a prefix, with its longest
    missing prefix, found by checking every prefix of every node."""
    ns = frozenset(nodes)
    for n in ns:
        for i in range(len(n) - 1, -1, -1):
            if n[:i] not in ns:
                return n, n[:i]
    return None


def test_deep_chain_gap_matches_the_definitional_rule():
    for gap in (1, 1000, 1500):
        chain = [(3,) * i for i in range(2001) if i != gap]
        for nodes in (chain, chain[::-1]):
            with pytest.raises(PrefixClosureViolation) as exc:
                make_tree(nodes)
            assert ((exc.value.node, exc.value.missing_prefix)
                    == _definitional_violation(nodes))
            assert exc.value.missing_prefix == (3,) * gap


def test_depth_limit_holds_at_the_bound():
    assert len(check_node((0,) * MAX_DEPTH)) == MAX_DEPTH
    assert len(spine(MAX_DEPTH)) == MAX_DEPTH + 1
    assert len(full_kary(1, MAX_DEPTH)) == MAX_DEPTH + 1
    for build in (lambda: check_node((0,) * (MAX_DEPTH + 1)),
                  lambda: spine(MAX_DEPTH + 1),
                  lambda: full_kary(1, MAX_DEPTH + 1),
                  lambda: full_kary(2, MAX_DEPTH + 1)):
        with pytest.raises(InvalidParameter, match="exceeds"):
            build()


def test_make_tree_collapses_duplicates():
    t = make_tree([(), (), (0,)])
    assert len(t) == 2


def test_make_tree_rejects_oversized_entries():
    with pytest.raises(InvalidParameter):
        make_tree([(), (2**32,)])


def test_derived_tree_examples():
    t = make_tree([(), (0,), (1,), (0, 0)])
    assert derived_tree(t).nodes == {(), (0,)}
    assert len(derived_tree(make_tree([()]))) == 0
    assert len(derived_tree(FiniteTree(()))) == 0


def test_derived_tree_matches_definitional_scan():
    for nodes in canonical_shapes(6):
        t = make_tree(nodes)
        assert derived_tree(t).nodes == derived_oracle(t)


def test_order_index_examples():
    assert order_index(make_tree([()])) == 1
    assert order_index(full_kary(2, 2)) == 3
    assert order_index(FiniteTree(())) == 0


def test_order_index_counts_derivations_sharply():
    rng = seeded_rng(7)
    for _ in range(50):
        t = random_tree(rng.randint(1, 25), rng.randint(0, 10**6))
        o = order_index(t)
        cur = t
        for step in range(o):
            assert len(cur) > 0
            cur = derived_tree(cur)
        assert len(cur) == 0


def test_repeated_derivation_matches_the_iterated_step():
    # derived_tree(t, k) against k one-step derivations
    rng = seeded_rng(23)
    trees = [make_tree(nodes) for nodes in canonical_shapes(6)]
    trees += [random_tree(rng.randint(0, 30), rng.randint(0, 10**6))
              for _ in range(40)]
    for t in trees:
        o = order_index(t)
        cur = t
        for times in range(o + 2):
            assert derived_tree(t, times) == cur
            assert (len(cur) == 0) == (times >= o)
            cur = derived_tree(cur)


def test_derivation_refuses_a_negative_count():
    with pytest.raises(InvalidParameter):
        derived_tree(full_kary(2, 1), -1)
    assert derived_tree(full_kary(2, 1), 0) == full_kary(2, 1)


def test_rank_and_derive_at_the_declared_depth():
    # both read each node once: at MAX_DEPTH they take ~0.3 s of CPU
    t, twice = spine(MAX_DEPTH), spine(MAX_DEPTH - 2)
    start = time.process_time()
    rank, derived = order_index(t), derived_tree(t, 2)
    assert time.process_time() - start < 1.0
    assert rank == MAX_DEPTH + 1 and derived == twice


def test_rank_of_full_kary():
    for k in range(1, 4):
        for d in range(0, 5):
            assert order_index(full_kary(k, d)) == d + 1


def test_monotone_rank_under_subtrees():
    rng = seeded_rng(13)
    for _ in range(100):
        t = random_tree(rng.randint(1, 25), rng.randint(0, 10**6))
        s = random_subtree(t, rng)
        assert s.nodes <= t.nodes
        assert order_index(s) <= order_index(t)


def test_localized_rank_drop():
    # o(T(k)) < o(T) for every root child, on seeded random trees
    rng = seeded_rng(99)
    for _ in range(200):
        t = random_tree(rng.randint(2, 30), rng.randint(0, 10**6))
        o = order_index(t)
        for child in t.children(()):
            assert order_index(subtree_at(t, child[0])) < o


def test_compiled_form_matches_the_definitions():
    rng = seeded_rng(7)
    trees = [make_tree(nodes) for nodes in canonical_shapes(6)]
    trees += [random_tree(rng.randint(0, 40), rng.randint(0, 10**6))
              for _ in range(50)]
    for t in trees:
        form = t.compiled()
        assert t.compiled() is form
        order, index, kids, parent = form
        assert order == tuple(t)
        assert len(index) == len(order)
        assert len(parent) == len(order)
        for i, v in enumerate(order):
            assert index[v] == i
            assert parent[i] == (index[v[:-1]] if v else -1)
            below = [j for j, u in enumerate(order)
                     if len(u) == len(v) + 1 and u[: len(v)] == v]
            assert kids[i] == below
            assert t.children(v) == tuple(order[j] for j in below)
            assert t.children(list(v)) == t.children(v)
        # a root child labelled past the node count is never in the tree
        assert t.children((len(t),)) == ()


def test_subtree_and_restriction_examples():
    t = make_tree([(), (0,), (1,), (0, 0)])
    assert subtree_at(t, 0).nodes == {(), (0,)}
    assert subtree_at(t, 1).nodes == {()}
    assert len(subtree_at(t, 5)) == 0
    assert restricted_at(t, 0) == {(0,), (0, 0)}
    assert restricted_at(t, 5) == frozenset()


def test_prefix_closure_preserved():
    for nodes in canonical_shapes(6):
        t = make_tree(nodes)
        make_tree(derived_tree(t).nodes)
        for k in {n[0] for n in t.nodes if n}:
            make_tree(subtree_at(t, k).nodes)


def test_is_segment_examples():
    chain = make_tree([(), (0,), (0, 0)])
    assert is_segment(chain, [(), (0,)])
    assert not is_segment(chain, [(), (0, 0)])
    forked = make_tree([(), (0,), (1,)])
    assert not is_segment(forked, [(0,), (1,)])
    assert is_segment(chain, [])
    with pytest.raises(InvalidSegment):
        is_segment(chain, [(5,)])


def test_is_segment_matches_its_definition():
    # totally ordered, and every tree node between two members is one;
    # a member listed twice changes nothing
    for nodes in canonical_shapes(6):
        tree = make_tree(nodes)
        for r in range(4):
            for subset in itertools.combinations(nodes, r):
                members = set(subset)
                chain = all(comparable(s, t) for s in subset for t in subset)
                convex = all(n in members for n in nodes for s in subset
                             for t in subset
                             if is_prefix(s, n) and is_prefix(n, t))
                expected = chain and convex
                assert is_segment(tree, subset) == expected, subset
                assert is_segment(tree, subset * 2) == expected, subset


def test_segment_endpoints_and_nodes():
    seg = Segment((0,), (0, 1, 2))
    assert seg.nodes() == ((0,), (0, 1), (0, 1, 2))
    assert (0, 1) in seg and () not in seg
    with pytest.raises(InvalidSegment):
        Segment((1,), (0, 1))


def test_segments_incomparable_examples():
    assert segments_incomparable(Segment((0,), (0,)), Segment((1,), (1,)))
    assert not segments_incomparable(Segment((), (0,)), Segment((1,), (1,)))
    assert segments_incomparable(Segment((0, 0), (0, 0)), Segment((0, 1), (0, 1)))


def _all_segments(tree):
    for v in tree:
        for i in range(len(v) + 1):
            yield Segment(v[:i], v)


def test_segment_incomparability_equals_min_node_incomparability():
    # exhaustive over canonical small trees: endpoint test == full scan
    for nodes in canonical_shapes(5):
        t = make_tree(nodes)
        segs = list(_all_segments(t))
        for s1, s2 in itertools.combinations(segs, 2):
            full_scan = not any(
                (a == b or a == b[: len(a)] or b == a[: len(b)])
                for a in s1.nodes()
                for b in s2.nodes()
            )
            assert segments_incomparable(s1, s2) == full_scan


def test_generate_tree_families():
    assert len(full_kary(2, 2)) == 7
    assert spine(3).nodes == {(), (0,), (0, 0), (0, 0, 0)}
    t = random_tree(10, 42)
    assert len(t) == 10
    make_tree(t.nodes)
    assert random_tree(10, 42) == t
    with pytest.raises(InvalidParameter):
        full_kary(0, 2)


def test_probe_wf_zeros_branch():
    verdict = probe_wf(zeros_branch(), 10)
    assert verdict.status == BRANCH_CANDIDATE
    assert verdict.prefix == (0,) * 10


def test_probe_wf_certifies_bounded_depth():
    verdict = probe_wf(depth_bounded(3), 10)
    assert verdict.is_certified


def test_probe_wf_budget():
    lazy = zeros_branch(depth_budget=5)
    with pytest.raises(BudgetExceeded):
        probe_wf(lazy, 6)


def test_probe_wf_refuses_a_depth_outside_its_range():
    # refused before any node is explored, whatever the budget allows
    for depth in (-1, -2, MAX_DEPTH + 1, 100_000):
        start = time.process_time()
        with pytest.raises(InvalidParameter, match="outside"):
            probe_wf(zeros_branch(depth_budget=10**6), depth)
        assert time.process_time() - start < 0.5
    with pytest.raises(InvalidParameter, match="outside"):
        probe_wf(lazy_from_tree(full_kary(2, 1)), -2)
    with pytest.raises(BudgetExceeded):
        probe_wf(zeros_branch(), MAX_DEPTH + 1)
    verdict = probe_wf(zeros_branch(depth_budget=MAX_DEPTH), MAX_DEPTH)
    assert verdict.prefix == (0,) * MAX_DEPTH


def test_derivations_past_the_tree_size_leave_it_empty():
    # the order index never exceeds the node count, so every derivation
    # past len(tree) leaves the empty tree
    rng = seeded_rng(11)
    for _ in range(30):
        t = random_tree(rng.randint(0, 20), rng.randint(0, 10**6))
        assert order_index(t) <= len(t)
    assert order_index(spine(7)) == len(spine(7))


def test_probe_wf_on_finite_tree():
    t = full_kary(2, 3)
    assert probe_wf(lazy_from_tree(t), 10).is_certified
    cand = probe_wf(lazy_from_tree(t), 3)
    assert cand.status == BRANCH_CANDIDATE
    assert cand.prefix == (0, 0, 0)


def test_probe_wf_cofinite_representative():
    seen = []

    def children_of(node):
        seen.append(node)
        return Cofinite(excluded=(0, 1)) if len(node) < 2 else ()

    verdict = probe_wf(LazyTree(children_of), 5)
    assert verdict.is_certified
    # only the representative child (label 2) was descended into
    assert (2,) in seen and (0,) not in seen


def test_prefix_closure_helper():
    t = prefix_closure([(2, 1)])
    assert t.nodes == {(), (2,), (2, 1)}


# ---------------------------------------------------------------------------
# refusal paths and plain branches

@pytest.mark.parametrize("call", [
    lambda: random_tree(-1, 0),
    lambda: LazyTree(lambda node: (), -1),
], ids=["random-tree-negative-size", "lazy-tree-negative-budget"])
def test_malformed_tree_input_is_refused(call):
    with pytest.raises(InvalidParameter):
        call()


def test_empty_random_tree_and_depth_zero_probe():
    assert len(random_tree(0, 7)) == 0
    verdict = probe_wf(zeros_branch(), 0)
    assert verdict.status == BRANCH_CANDIDATE and verdict.prefix == ()


def test_tree_equality_hash_and_repr():
    t = make_tree([(1,), (), (0,)])
    assert t.__eq__([(), (0,), (1,)]) is NotImplemented and t != "t"
    assert hash(t) == hash(full_kary(2, 1))
    assert repr(t) == "FiniteTree([(), (0,), (1,)])"
