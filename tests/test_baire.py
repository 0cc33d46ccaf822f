import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

from bairelab import (
    BaireContext,
    BaireVector,
    BasisKind,
    P_ZERO,
    Segment,
    TrialCoeffs,
    VectorFamily,
    abs_obstruction_falsify,
    baire_norm,
    baire_norm_oracle,
    baire_norm_witness,
    baire_norm_zero,
    basis_norm,
    bs_obstruction_check,
    cesaro_mean,
    check_branch_isometry,
    check_incomparable_additivity,
    check_root_decomposition,
    delta,
    exact_mode,
    linear_combination,
    make_tree,
    prefix_closure,
    random_tree,
    segment_vector,
    spine,
    subtree_at,
    vector_combine,
)
from bairelab.baire import MAX_ORACLE_NODES, ExponentP, _segment_families
from bairelab.bases import NormValue, approx_equal, triangle_leq
from bairelab.errors import (
    InvalidParameter,
    InvalidSegment,
    NonzeroRootCoefficient,
    SupportNotChain,
    SupportsNotIncomparable,
    TooLargeForOracle,
    TreeMismatch,
)
from bairelab.verdicts import CheckReport

from util import (
    brute_families,
    canonical_shapes,
    pairwise_clash,
    random_rational_vector,
    seeded_rng,
    tree_shapes,
    zero_oracle,
)

L1, L2, C0 = BasisKind.L1, BasisKind.L2, BasisKind.C0

EXACT_PAIRS = [(L1, 1), (L1, 2), (C0, 1), (C0, 2), (L2, 2)]
APPROX_PAIRS = [(L2, 1), (L1, Fraction(3, 2)), (C0, 3)]

FORK = make_tree([(), (0,), (1,)])
FORK_CHAIN = make_tree([(), (0,), (1,), (0, 0)])


def test_vector_combine_examples():
    x = vector_combine(1, delta(FORK, (0,)), 1, delta(FORK, (1,)))
    assert dict(x.coeffs) == {(0,): 1, (1,): 1}
    y = delta(FORK, (0,), Fraction(1, 2))
    assert vector_combine(1, y, -1, y).is_zero()
    z = vector_combine(2, y, 0, delta(FORK, (1,)))
    assert dict(z.coeffs) == {(0,): 1}


def test_vector_combine_requires_shared_tree():
    with pytest.raises(TreeMismatch):
        vector_combine(1, delta(FORK, (0,)), 1, delta(spine(1), (0,)))


def _unit_ball(x):
    """x divided by its coefficient l1 sum, which bounds every norm here."""
    total = sum(abs(c) for c in x.coeffs.values())
    return linear_combination([(1 / total, x)]) if total else x


def _pinned_combinations():
    """Seeded linear combinations: int, str, Fraction and float
    coefficients (zeros included), full cancellations, inputs on equal
    but distinct trees, generator input, limit_denominator(10**12)
    coefficients and combinations of combinations."""
    rng = seeded_rng(1510)
    for seed in range(8):
        tree = random_tree(7, seed)
        twin = make_tree(list(tree))
        xs = [random_rational_vector(tree, rng, allow_zero=True)
              for _ in range(4)]
        xs.append(BaireVector(twin, xs[0].coeffs))
        xs.append(BaireVector(tree, {}))
        for _ in range(6):
            coeffs = [
                rng.choice([
                    rng.randint(-3, 3),
                    f"{rng.randint(-5, 5)}/{rng.randint(1, 6)}",
                    Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                    rng.choice([0.5, -0.25, 0.1, 1 / 3, -1e-3, 0.0]),
                    Fraction(rng.uniform(-1, 1)).limit_denominator(10**12),
                ])
                for _ in xs
            ]
            combo = linear_combination(zip(coeffs, xs))
            yield combo
            yield linear_combination(
                [(Fraction(1, 3), combo), (2, xs[1]), (0, xs[2])])
        yield linear_combination([(1, xs[0]), (-1, xs[4])])
        yield vector_combine(Fraction(2, 7), xs[1], Fraction(-2, 7), xs[1])
        yield vector_combine(0, xs[2], 0, xs[3])
        yield linear_combination([(5, xs[3])])


def _pinned_families(rng):
    """Mixed-support five-vector families inside the unit ball."""
    for seed in range(3):
        tree = random_tree(6, 20 + seed)
        vectors = []
        for _ in range(5):
            x = random_rational_vector(tree, rng, allow_zero=True)
            keep = {n: c for n, c in x.coeffs.items() if rng.random() < 0.6}
            vectors.append(_unit_ball(BaireVector(tree, keep)))
        yield vectors


def _pinned_verdicts():
    rng = seeded_rng(1511)
    contexts = [(L1, 1), (L1, 2), (C0, P_ZERO), (L2, 2),
                (L2, 1), (L1, Fraction(3, 2)), (C0, 3)]
    trials = TrialCoeffs(grid=(Fraction(-1), Fraction(1, 2), Fraction(1)),
                         random_trials=4, seed=5)
    for vectors in _pinned_families(rng):
        for kind, p in contexts:
            fam = VectorFamily(vectors, BaireContext(kind, p))
            for idx in ([0], [1, 3], [0, 2, 3, 4]):
                for alternating in (False, True):
                    yield cesaro_mean(fam, idx, alternating)
            for eps in (Fraction(1, 100), Fraction(1, 3)):
                yield bs_obstruction_check(fam, eps)
                yield abs_obstruction_falsify(fam, eps, trials)


# SHA-256 over repr(v), repr(sorted(v.coeffs.items())) and
# repr(v.scaled()) of every _pinned_combinations vector, then
# repr(out) of every _pinned_verdicts output, one line each; recorded
# with the Fraction-summing linear_combination.
LINEAR_COMBINATION_DIGEST = (
    "ec56725eead3f533b93c54533898ae7393fae4b35359e59f8c7aadf6e7a7d827"
)


def test_linear_combination_is_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for v in _pinned_combinations():
        for part in (v, sorted(v.coeffs.items()), v.scaled()):
            digest.update(repr(part).encode() + b"\n")
    for out in _pinned_verdicts():
        digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == LINEAR_COMBINATION_DIGEST


def test_linear_combination_scaled_matches_its_coefficients():
    for v in _pinned_combinations():
        d = math.lcm(*(c.denominator for c in v.coeffs.values())) \
            if v.coeffs else 1
        assert v.scaled() == (d, {n: c * d for n, c in v.coeffs.items()})
        assert all(type(i) is int for i in v.scaled()[1].values())
        assert all(type(c) is Fraction and c for c in v.coeffs.values())
    with pytest.raises(InvalidParameter, match="empty combination"):
        linear_combination(iter(()))
    with pytest.raises(TreeMismatch, match="different trees"):
        linear_combination([(1, delta(FORK, (0,))),
                            (0, BaireVector(spine(1), {}))])


def test_a_vector_stores_only_its_scaled_form():
    # one canonical form, whether the vector was read from Fractions or
    # mixed: integer numerators over the lcm of the reduced denominators
    assert not {"_coeffs", "_scaled"} & set(BaireVector.__slots__)
    for v in _pinned_combinations():
        d, ints = v.scaled()
        assert v.scaled() is v.scaled()
        assert d > 0 and math.gcd(d, *ints.values()) == 1
        assert all(ints.values())
        rebuilt = BaireVector(v.tree, v.coeffs)
        assert rebuilt.scaled() == v.scaled() and rebuilt == v
        assert hash(rebuilt) == hash(v)
        assert all(v[n] == c for n, c in v.coeffs.items())
    x = delta(FORK, (0,), Fraction(2, 3))
    assert x.scaled() == (3, {(0,): 2}) and x[(1,)] == 0
    assert BaireVector(FORK, {(0,): 0}).scaled() == (1, {})
    assert linear_combination([(1, x), (-1, x)]).scaled() == (1, {})


def test_full_support_closure_is_the_tree_itself():
    tree = random_tree(30, 4)
    full = BaireVector(tree, {n: i + 1 for i, n in enumerate(tree)})
    assert full.support_closure() is tree
    assert baire_norm(full, L1, 2) == baire_norm(
        BaireVector(prefix_closure(tree.nodes), dict(full.coeffs)), L1, 2)
    deepest = max(tree, key=len)
    partial = BaireVector(tree, {deepest: 1})
    assert partial.support_closure() is not tree
    assert partial.support_closure() == prefix_closure([deepest])
    # a zero coefficient is dropped, so that support is partial too
    almost = BaireVector(tree, {**full.coeffs, deepest: 0})
    assert almost.support_closure() == prefix_closure(almost.support)
    assert len(almost.support_closure()) < len(tree)


def test_vector_rejects_foreign_nodes():
    with pytest.raises(InvalidParameter):
        BaireVector(FORK, {(2,): 1})


def test_non_rational_coefficients_raise_invalid_parameter():
    # a bool is an int and NaN and inf are floats, but none is rational;
    # the exponent is read by the same rule (True would read as p = 1)
    x, y = delta(FORK, (0,)), delta(FORK, (1,))
    for c in (True, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidParameter, match="must be rational"):
            BaireVector(FORK, {(1,): c})
        with pytest.raises(InvalidParameter, match="must be rational"):
            linear_combination([(c, x)])
        with pytest.raises(InvalidParameter, match="must be rational"):
            check_incomparable_additivity([x, y], [c, 1], L1, 2)
        with pytest.raises(InvalidParameter, match="must be rational"):
            ExponentP.of(c)


def test_segment_vector_examples():
    chain = spine(2)
    x = BaireVector(chain, {(): 1, (0,): 1, (0, 0): 1})
    assert segment_vector(x, Segment((), (0, 0))) == [1, 1, 1]
    assert segment_vector(x, Segment((0,), (0,))) == [1]
    y = BaireVector(chain, {(0, 0): 3})
    assert segment_vector(y, Segment((), (0, 0))) == [0, 0, 3]
    with pytest.raises(InvalidSegment):
        segment_vector(x, Segment((0,), (0, 1)))


def test_baire_norm_examples():
    x = BaireVector(FORK, {(0,): Fraction(3, 4), (1,): 1})
    nv = baire_norm(x, L1, 2)
    assert nv.power_base == Fraction(25, 16) and nv.inv_exp == 2
    assert nv.approx == pytest.approx(1.25)

    ones_chain = BaireVector(spine(2), {(): 1, (0,): 1, (0, 0): 1})
    assert baire_norm(ones_chain, L1, 2).power_base == 9

    q = Fraction(-7, 3)
    assert baire_norm(delta(FORK, (), q), L1, 2).power_base == q * q

    ones = BaireVector(FORK_CHAIN, dict.fromkeys(FORK_CHAIN, Fraction(1)))
    nv = baire_norm(ones, L1, 2)
    assert nv.power_base == 9
    _, witness = baire_norm_witness(ones, L1, 2)
    assert witness == (Segment((), (0, 0)),)


def test_chain_admits_single_segments_only():
    # two incomparable segments cannot coexist on a chain
    ones = BaireVector(spine(1), {(): 1, (0,): 1})
    assert baire_norm(ones, C0, 1).power_base == 1
    assert baire_norm_oracle(ones, C0, 1).power_base == 1


def test_oracle_matches_examples_bit_for_bit():
    x = BaireVector(FORK, {(0,): Fraction(3, 4), (1,): 1})
    assert baire_norm_oracle(x, L1, 2) == baire_norm(x, L1, 2)
    ones_chain = BaireVector(spine(2), {(): 1, (0,): 1, (0, 0): 1})
    assert baire_norm_oracle(ones_chain, L1, 2) == baire_norm(ones_chain, L1, 2)
    ones = BaireVector(FORK_CHAIN, dict.fromkeys(FORK_CHAIN, Fraction(1)))
    assert baire_norm_oracle(ones, L1, 2) == baire_norm(ones, L1, 2)


def test_oracle_zero_vector_and_size_bound():
    zero = BaireVector(FORK, {})
    assert baire_norm_oracle(zero, L1, 2).power_base == 0
    long_chain = spine(14)
    ones = BaireVector(long_chain, dict.fromkeys(long_chain, Fraction(1)))
    with pytest.raises(TooLargeForOracle):
        baire_norm_oracle(ones, L1, 2)


def test_oracle_runs_at_its_bound():
    assert MAX_ORACLE_NODES == 14
    at_bound = spine(13)
    ones = BaireVector(at_bound, dict.fromkeys(at_bound, Fraction(1)))
    assert len(ones.support_closure()) == MAX_ORACLE_NODES
    assert baire_norm_oracle(ones, L1, 2) == baire_norm(ones, L1, 2)
    # one carrier whose closure holds 15 nodes
    deep = BaireVector(spine(14), {(0,) * 14: 1})
    with pytest.raises(TooLargeForOracle):
        baire_norm_oracle(deep, L1, 2)


def test_zero_variant_examples():
    ones = BaireVector(FORK_CHAIN, dict.fromkeys(FORK_CHAIN, Fraction(1)))
    assert baire_norm_zero(ones, C0).power_base == 1
    assert baire_norm_zero(ones, L1).power_base == 3
    assert baire_norm_zero(delta(FORK, (0,), -2), L2).power_base == 4
    with pytest.raises(InvalidParameter):
        baire_norm_zero(ones, "l2")
    with pytest.raises(InvalidParameter):
        baire_norm(ones, "l2", 1)


def test_zero_variant_witness():
    ones = BaireVector(FORK_CHAIN, dict.fromkeys(FORK_CHAIN, Fraction(1)))
    nv, seg = baire_norm_zero(ones, L1, with_witness=True)
    assert nv.power_base == 3
    assert seg == Segment((), (0, 0))


def test_zero_variant_matches_segment_scan():
    rng = seeded_rng(61)
    for nodes in canonical_shapes(6):
        tree = make_tree(nodes)
        x = random_rational_vector(tree, rng, allow_zero=True)
        # a thinned copy puts zero nodes above and between the carriers
        thin = BaireVector(
            tree, {n: c for n, c in x.coeffs.items() if rng.random() < 0.5}
        )
        for y in (x, thin):
            for kind in (L1, L2, C0):
                nv, seg = baire_norm_zero(y, kind, with_witness=True)
                ref_nv, ref_seg = zero_oracle(y, kind)
                assert nv == ref_nv and seg == ref_seg
                nv, family = baire_norm_witness(y, kind, P_ZERO)
                assert nv == ref_nv
                assert family == (() if ref_seg is None else (ref_seg,))
                assert baire_norm(y, kind, P_ZERO) == ref_nv


def test_p_zero_routed_to_zero_norm():
    ones = BaireVector(FORK_CHAIN, dict.fromkeys(FORK_CHAIN, Fraction(1)))
    assert baire_norm(ones, L1, P_ZERO) == baire_norm_zero(ones, L1)
    with pytest.raises(InvalidParameter):
        baire_norm_oracle(ones, L1, 0)
    with pytest.raises(InvalidParameter):
        ExponentP.of(Fraction(1, 2))


def test_oracle_equivalence_exact_small_scale():
    # exhaustive canonical shapes up to 6 nodes, seeded vectors, all
    # exact-mode pairs; acceptance repeats this at its own scale
    rng = seeded_rng(2024)
    for nodes in canonical_shapes(6):
        tree = make_tree(nodes)
        for _ in range(6):
            x = random_rational_vector(tree, rng)
            for kind, p in EXACT_PAIRS:
                assert baire_norm(x, kind, p) == baire_norm_oracle(x, kind, p)


def test_oracle_equivalence_with_sparse_support():
    rng = seeded_rng(77)
    for nodes in itertools.islice(tree_shapes(6, 3), 0, None, 7):
        tree = make_tree(nodes)
        x = random_rational_vector(tree, rng, allow_zero=True)
        for kind, p in EXACT_PAIRS:
            assert baire_norm(x, kind, p) == baire_norm_oracle(x, kind, p)
            assert baire_norm_witness(x, kind, p)[1] == baire_norm_oracle(
                x, kind, p, with_witness=True
            )[1]


def test_segment_families_match_definitional_brute_force():
    for nodes in canonical_shapes(6):
        tree = make_tree(nodes)
        families = _segment_families(tree)
        as_sets = [frozenset(f) for f in families]
        assert len(set(as_sets)) == len(families) == len(set(families))
        assert set(as_sets) == set(brute_families(tree))


# SHA-256 over repr(baire_norm_oracle(x, kind, p, with_witness=w)), one
# line per call, taken with the Fraction-based oracle that preceded the
# integer segment powers.  Loop order: tree_shapes(5, 3); per shape two
# vectors drawn in turn from seeded_rng(1508), the second with zeros
# allowed; the five exact and three binary64 pairs; w False, then True.
ORACLE_DIGEST = (
    "0dfb2e6f0a9adaa29725ea5d7ad93322656ed8fe9692b31ca385299c878dbca6"
)


def test_oracle_outputs_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    rng = seeded_rng(1508)
    for nodes in tree_shapes(5, 3):
        tree = make_tree(nodes)
        for allow_zero in (False, True):
            x = random_rational_vector(tree, rng, allow_zero=allow_zero)
            for kind, p in EXACT_PAIRS + APPROX_PAIRS:
                for w in (False, True):
                    out = baire_norm_oracle(x, kind, p, with_witness=w)
                    digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == ORACLE_DIGEST


def test_approx_mode_agrees_with_oracle():
    rng = seeded_rng(5)
    tree = make_tree([(), (0,), (1,), (0, 0), (0, 1)])
    for _ in range(25):
        x = random_rational_vector(tree, rng)
        for kind, p in APPROX_PAIRS:
            a = baire_norm(x, kind, p)
            b = baire_norm_oracle(x, kind, p)
            assert not a.is_exact and not exact_mode(kind, ExponentP.of(p))
            assert a.approx == pytest.approx(b.approx, abs=1e-9)


def test_approx_comparisons_scale_with_magnitude():
    # near 1e10 one ulp exceeds the absolute floor APPROX_TOL, so the DP's
    # and the oracle's float sums only agree to a relative tolerance
    rng = seeded_rng(97)
    p = Fraction(3, 2)
    for trial in range(300):
        tree = random_tree(7, trial)
        x = BaireVector(tree, {
            n: Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 4))
            for n in tree
        })
        dp = baire_norm(x, L1, p)
        oracle = baire_norm_oracle(x, L1, p)
        assert dp.equals(oracle) and oracle.equals(dp), (trial, dp, oracle)
        q = Fraction(oracle.approx)
        assert dp.at_least(q) and dp.at_most(q)
        assert triangle_leq(dp, oracle, NormValue.approximate(0.0))
        rootless = BaireVector(tree, {n: c for n, c in x.coeffs.items() if n})
        assert check_root_decomposition(rootless, L1, p).passed
        branches = [
            BaireVector(tree, {n: c for n, c in rootless.coeffs.items()
                               if n[0] == lam})
            for lam in sorted({n[0] for n in rootless.support})
        ]
        report = check_incomparable_additivity(
            branches, [1] * len(branches), L1, p)
        assert report.passed, (trial, report)


def test_binary64_witness_is_least_up_to_rounding():
    # two single segments share the exact sum 28/3; the DP's float sums
    # differ by an ulp, so DP and oracle may name different maximizers
    tree = make_tree([(), (1,), (1, 1), (1, 2), (1, 1, 1), (1, 1, 1, 1)])
    x = BaireVector(tree, {
        (): Fraction(-4, 3), (1,): -5, (1, 1): Fraction(1, 3),
        (1, 1, 1): 1, (1, 1, 1, 1): Fraction(-5, 3), (1, 2): 3,
    })
    p = Fraction(3, 2)
    nv = baire_norm(x, L1, p)
    witnesses = [baire_norm_witness(x, L1, p)[1],
                 baire_norm_oracle(x, L1, p, with_witness=True)[1]]
    for family in witnesses:
        assert len(family) == 1
        assert sum(abs(c) for c in segment_vector(x, family[0])) == \
            Fraction(28, 3)
        blocks = [basis_norm(L1, segment_vector(x, s)).approx ** float(p)
                  for s in family]
        aggregate = math.fsum(blocks) ** (1 / float(p))
        assert math.isclose(aggregate, nv.approx, rel_tol=1e-12)


def test_norm_axioms():
    rng = seeded_rng(11)
    trees = [make_tree(n) for n in canonical_shapes(5)]
    for i in range(120):
        tree = trees[i % len(trees)]
        x = random_rational_vector(tree, rng)
        y = random_rational_vector(tree, rng)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for kind, p in EXACT_PAIRS:
            nx = baire_norm(x, kind, p)
            # homogeneity, exactly at the power level
            scaled = baire_norm(linear_combination([(q, x)]), kind, p)
            assert scaled.power_base == nx.scale(q).power_base
            # triangle via exact cross-comparison
            whole = baire_norm(vector_combine(1, x, 1, y), kind, p)
            ny = baire_norm(y, kind, p)
            from bairelab.bases import triangle_leq

            assert triangle_leq(whole, nx, ny)
            # definiteness
            assert nx.power_base > 0
        assert baire_norm(BaireVector(tree, {}), L1, 1).power_base == 0


def test_dominance_and_single_segment_lower_bound():
    rng = seeded_rng(17)
    for nodes in canonical_shapes(5):
        tree = make_tree(nodes)
        x = random_rational_vector(tree, rng)
        for kind, p in EXACT_PAIRS:
            nv = baire_norm(x, kind, p)
            assert baire_norm_zero(x, kind).compare(nv) <= 0
            for v in tree:
                for i in range(len(v) + 1):
                    seg = Segment(v[:i], v)
                    block = basis_norm(kind, segment_vector(x, seg))
                    assert block.compare(nv) <= 0


def test_monotone_support():
    rng = seeded_rng(23)
    for nodes in canonical_shapes(5):
        tree = make_tree(nodes)
        x = random_rational_vector(tree, rng)
        for node in x.support:
            smaller = BaireVector(
                tree, {n: c for n, c in x.coeffs.items() if n != node}
            )
            for kind, p in EXACT_PAIRS:
                assert baire_norm(smaller, kind, p).compare(
                    baire_norm(x, kind, p)
                ) <= 0


# ---------------------------------------------------------------------------
# exact identities

def _band_tree(bands, depth=2):
    nodes = [()]
    for lam in range(2 * bands):
        nodes.append((lam,))
        for d in range(depth):
            nodes.append((lam,) + (0,) * (d + 1))
            nodes.append((lam,) + (0,) * d + (1,))
    return make_tree(nodes)


def _band_vector(tree, lam, rng):
    # two incomparable nodes inside branch lam, coefficients 3/4 each:
    # the norm power lands in (1/2, 2) for every exact-mode pair
    a = (lam, 0)
    b = (lam, 1)
    del rng
    return BaireVector(tree, {a: Fraction(3, 4), b: Fraction(3, 4)})


def test_incomparable_additivity_examples():
    tree = FORK_CHAIN
    y1 = BaireVector(tree, {(0,): 1, (0, 0): 1})
    y2 = delta(tree, (1,))
    report = check_incomparable_additivity([y1, y2], [1, 1], L1, 2)
    assert report.passed and report.lhs == report.rhs == 5

    with pytest.raises(SupportsNotIncomparable) as exc:
        check_incomparable_additivity(
            [delta(tree, ()), delta(tree, (0,))], [1, 1], L1, 2
        )
    assert (exc.value.i, exc.value.j) == (0, 1)

    single = check_incomparable_additivity([y1], [1], L1, 2)
    assert single.passed


def test_incomparability_matches_the_pairwise_scan():
    # the walk names the least clashing pair and the witness a scan of
    # every pair of supports meets first, with the same message
    rng = seeded_rng(2501)
    clashing = 0
    for trial in range(400):
        tree = random_tree(rng.randint(1, 12), trial)
        nodes = sorted(tree.nodes)
        ys = [BaireVector(tree, {n: rng.randint(1, 3) for n in rng.sample(
                  nodes, rng.randint(0, min(3, len(nodes))))})
              for _ in range(rng.randint(1, 6))]
        expected = pairwise_clash(ys)
        if expected is None:
            assert check_incomparable_additivity(
                ys, [1] * len(ys), L1, 1).passed, trial
            continue
        clashing += 1
        with pytest.raises(SupportsNotIncomparable) as exc:
            check_incomparable_additivity(ys, [1] * len(ys), L1, 1)
        assert (exc.value.i, exc.value.j, exc.value.witness) == expected
        assert str(exc.value) == str(SupportsNotIncomparable(*expected))
    assert 100 < clashing < 350


def test_incomparability_witness_matches_the_pairwise_scan_on_large_supports():
    # two or three vectors of up to 15 nodes each, so a witness may come
    # from a prefix, an extension or a node both supports hold
    rng = seeded_rng(2601)
    kinds = set()
    for trial in range(300):
        tree = random_tree(rng.randint(2, 40), trial)
        nodes = sorted(tree.nodes)
        ys = [BaireVector(tree, dict.fromkeys(rng.sample(
                  nodes, rng.randint(1, min(15, len(nodes)))), 1))
              for _ in range(rng.randint(2, 3))]
        expected = pairwise_clash(ys)
        if expected is None:
            continue
        with pytest.raises(SupportsNotIncomparable) as exc:
            check_incomparable_additivity(ys, [1] * len(ys), L1, 1)
        assert (exc.value.i, exc.value.j, exc.value.witness) == expected
        s, t = expected[2]
        kinds.add((len(s) > len(t)) - (len(s) < len(t)))
    assert kinds == {-1, 0, 1}


def test_a_late_clash_of_large_supports_is_named_fast():
    # 3,000 antichain nodes each, comparable only at (2999,) and (2999, 0)
    a = [(k,) for k in range(3000)]
    b = [(3000 + k,) for k in range(2999)] + [(2999, 0)]
    tree = prefix_closure(a + b)
    ys = [BaireVector(tree, dict.fromkeys(a, 1)),
          BaireVector(tree, dict.fromkeys(b, 1))]
    start = time.process_time()
    with pytest.raises(SupportsNotIncomparable) as exc:
        check_incomparable_additivity(ys, [1, 1], L1, 1)
    assert time.process_time() - start < 0.5
    assert str(exc.value) == str(
        SupportsNotIncomparable(0, 1, ((2999,), (2999, 0))))


def test_incomparable_additivity_at_4000_vectors_is_fast():
    nodes = [(k,) for k in range(4000)]
    tree = prefix_closure(nodes)
    ys = [delta(tree, n, Fraction(k + 1, 3)) for k, n in enumerate(nodes)]
    start = time.process_time()
    report = check_incomparable_additivity(ys, [1] * len(ys), L1, 1)
    assert time.process_time() - start < 1.0
    assert report.passed and report.lhs == Fraction(4000 * 4001, 6)


def test_additivity_on_random_admissible_instances():
    rng = seeded_rng(41)
    for trial in range(60):
        bands = rng.randint(2, 4)
        tree = _band_tree(bands)
        ys = [_band_vector(tree, 2 * b + rng.randint(0, 1), rng) for b in range(bands)]
        coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([-1, 1])
                  for _ in range(bands)]
        kind, p = EXACT_PAIRS[trial % len(EXACT_PAIRS)]
        report = check_incomparable_additivity(ys, coeffs, kind, p)
        assert report.passed, (kind, p, report)


def test_block_window_bounds():
    # disjoint-band vectors with norm power inside (1/2, 2) aggregate
    # within the stated two-sided bounds, exactly
    rng = seeded_rng(43)
    for kind, p in EXACT_PAIRS:
        bands = 4
        tree = _band_tree(bands)
        ys = [_band_vector(tree, b, rng) for b in range(bands)]
        for y in ys:
            power = baire_norm(y, kind, p).power_base
            assert Fraction(1, 2) < power < 2
        coeffs = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([-1, 1])
                  for _ in range(bands)]
        combo = linear_combination(zip(coeffs, ys))
        power = baire_norm(combo, kind, p).power_base
        pint = ExponentP.coerce(p).value.numerator
        coeff_power = sum(abs(c) ** pint for c in coeffs)
        assert Fraction(1, 2) * coeff_power <= power <= 2 * coeff_power


def test_branch_isometry_examples():
    chain = spine(2)
    x = BaireVector(chain, {(): 1, (0,): 1, (0, 0): 1})
    report = check_branch_isometry(x, L1, 2)
    assert report.passed and report.lhs.power_base == 9

    y = BaireVector(chain, {(): 1, (0,): -1})
    report = check_branch_isometry(y, L2, 2)
    assert report.passed and report.lhs.power_base == 2

    with pytest.raises(SupportNotChain):
        check_branch_isometry(
            BaireVector(FORK, {(0,): 1, (1,): 1}), L1, 2
        )


def test_branch_isometry_on_random_chains():
    rng = seeded_rng(47)
    for trial in range(80):
        depth = rng.randint(0, 6)
        chain = spine(depth)
        coeffs = {}
        for i in range(depth + 1):
            if rng.random() < 0.8:
                coeffs[(0,) * i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        x = BaireVector(chain, coeffs)
        kind, p = EXACT_PAIRS[trial % len(EXACT_PAIRS)]
        assert check_branch_isometry(x, kind, p).passed
        assert check_branch_isometry(x, kind, P_ZERO).passed


def test_root_decomposition_examples():
    x = BaireVector(FORK, {(0,): 1, (1,): 1})
    report = check_root_decomposition(x, L2, 2)
    assert report.passed and report.lhs == 2 and report.rhs == 2

    inside = BaireVector(FORK_CHAIN, {(0,): 1, (0, 0): Fraction(1, 2)})
    assert check_root_decomposition(inside, L1, 2).passed

    with pytest.raises(NonzeroRootCoefficient):
        check_root_decomposition(delta(FORK, ()), L1, 2)


def test_root_decomposition_on_random_instances():
    rng = seeded_rng(53)
    shapes = [n for n in canonical_shapes(6) if len(n) > 1]
    for trial in range(100):
        tree = make_tree(shapes[trial % len(shapes)])
        x = random_rational_vector(tree, rng)
        x = BaireVector(tree, {n: c for n, c in x.coeffs.items() if n != ()})
        kind, p = EXACT_PAIRS[trial % len(EXACT_PAIRS)]
        report = check_root_decomposition(x, kind, p)
        assert report.passed, (kind, p, report)


def _decomposition_by_subtrees(x, kind, p):
    """The root decomposition rebuilt per root label of the whole tree,
    each nonzero branch on its full subtree, summed in label order."""
    exact = exact_mode(kind, ExponentP.of(p))

    def power(y):
        nv = baire_norm(y, kind, p)
        return nv.power_base if exact else nv.approx ** float(p)

    rhs = Fraction(0) if exact else 0.0
    for lam in sorted({n[0] for n in x.tree.nodes if n}):
        coeffs = {n[1:]: c for n, c in x.coeffs.items() if n[0] == lam}
        if coeffs:
            rhs += power(BaireVector(subtree_at(x.tree, lam), coeffs))
    lhs = power(x)
    return CheckReport(lhs == rhs if exact else approx_equal(lhs, rhs),
                       lhs, rhs, exact)


def test_root_decomposition_matches_the_per_subtree_rebuild():
    """Branches read from the stored form and measured on their support
    closures give the per-subtree report exactly, binary64 floats
    included, in every kind and p."""
    rng = seeded_rng(71)
    for trial in range(60):
        tree = random_tree(rng.randint(2, 30), trial)
        nodes = sorted((n for n in tree if n), key=lambda n: (len(n), n))
        support = rng.sample(nodes, rng.randint(0, len(nodes)))
        x = BaireVector(tree, {n: Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 7))
                               for n in support})
        for kind in (L1, L2, C0):
            for p in (1, 2, Fraction(3, 2), 3):
                assert check_root_decomposition(x, kind, p) == \
                    _decomposition_by_subtrees(x, kind, p), (trial, kind, p)


def test_root_decomposition_at_4000_branches_is_fast():
    nodes = [(k,) for k in range(4000)]
    x = BaireVector(prefix_closure(nodes),
                    {n: Fraction(k + 1, 3) for k, n in enumerate(nodes)})
    start = time.process_time()
    report = check_root_decomposition(x, L1, 1)
    assert time.process_time() - start < 1.0
    assert report.passed and report.lhs == Fraction(4000 * 4001, 6)


def test_identity_checks_reject_zero_exponent():
    x = BaireVector(FORK, {(0,): 1})
    with pytest.raises(InvalidParameter):
        check_incomparable_additivity([x], [1], L1, P_ZERO)
    with pytest.raises(InvalidParameter):
        check_root_decomposition(x, L1, 0)


def test_support_closure_is_cached_and_correct():
    x = BaireVector(FORK_CHAIN, {(0, 0): 1})
    closure = x.support_closure()
    assert closure.nodes == {(), (0,), (0, 0)}
    assert closure == prefix_closure(x.support)


def test_float_views_beyond_binary64_raise_invalid_parameter():
    # (l1, 1) is exact, but the float view of 10^400 overflows; p = 2000
    # runs in binary64, where 2.0 ** 2000 overflows; (l2, 3/2) squares
    # 10^200 in binary64, which is inf without an OverflowError
    tree = make_tree([(), (0,)])
    for coef, kind, p in ((Fraction(10**400), L1, 1),
                          (Fraction(2), L1, 2000),
                          (Fraction(10**200), L2, Fraction(3, 2))):
        x = BaireVector(tree, {(0,): coef})
        for evaluate in (baire_norm, baire_norm_witness, baire_norm_oracle):
            with pytest.raises(InvalidParameter, match="binary64 range"):
                evaluate(x, kind, p)


# ---------------------------------------------------------------------------
# refusal paths and plain branches

_FORK = make_tree([(), (0,), (1,)])
_STALK = make_tree([(), (0,)])


@pytest.mark.parametrize("call, error", [
    (lambda: BaireVector([(), (0,)], {}), InvalidParameter),
    (lambda: check_incomparable_additivity(
        [delta(_FORK, (0,))], [1, 1], L1, 1), InvalidParameter),
    (lambda: check_incomparable_additivity([], [], L1, 1), InvalidParameter),
    (lambda: check_incomparable_additivity(
        [delta(_FORK, (0,)), delta(_STALK, (0,))], [1, 1], L1, 1),
     TreeMismatch),
], ids=["vector-on-a-non-tree", "additivity-count-mismatch",
        "additivity-no-vectors", "additivity-two-trees"])
def test_malformed_library_input_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_vector_equality_hash_and_repr():
    x = BaireVector(_FORK, {(1,): Fraction(1, 2), (0,): 1})
    assert x.__eq__(_FORK) is NotImplemented and x != "x"
    assert hash(x) == hash(BaireVector(_FORK, {(0,): 1, (1,): Fraction(1, 2)}))
    assert repr(x) == ("BaireVector([((0,), Fraction(1, 1)), "
                       "((1,), Fraction(1, 2))])")
