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
    DyadicStep,
    P_ZERO,
    StepContext,
    TrialCoeffs,
    VectorFamily,
    abs_obstruction_falsify,
    bs_obstruction_check,
    cell_indicator,
    cesaro_mean,
    convex_block_min,
    delta,
    delta_antichain_family,
    linear_combination,
    make_tree,
    prefix_closure,
    random_tree,
    spine,
    weak_null_probe,
)
from bairelab.baire import ExponentP
from bairelab.bases import approx_equal
from bairelab.simplex import Tableau
from bairelab import checkers
from bairelab.errors import (
    BadIndexList,
    FamilyTooLarge,
    FamilyTooSmall,
    FunctionalSetTooLarge,
    InvalidParameter,
    NotInUnitBall,
    WindowOutOfRange,
)
from util import (
    canonical_shapes,
    functional_supports,
    grid_min,
    random_rational_vector,
    reference_block_min,
    reference_step_block_min,
    reference_trial_vectors,
    seeded_rng,
    simplex_grid,
)

F = Fraction
L1, L2, C0 = BasisKind.L1, BasisKind.L2, BasisKind.C0


def test_cesaro_mean_examples():
    fam = delta_antichain_family(4, L1, 2)
    mean, nv = cesaro_mean(fam, [0, 1, 2, 3])
    assert nv.power_base == F(1, 4) and nv.inv_exp == 2
    assert mean[(0,)] == F(1, 4)

    fam0 = delta_antichain_family(4, C0, P_ZERO)
    _, nv = cesaro_mean(fam0, [0, 1, 2, 3])
    assert nv.power_base == F(1, 4)

    single, nv = cesaro_mean(fam, [1], alternating=True)
    assert single[(1,)] == -1
    assert nv.power_base == 1


def test_delta_antichain_family_takes_n_distinct_natural_labels():
    fam = delta_antichain_family(2, L1, 1, [5, 2])
    assert [v.support for v in fam.vectors] == [{(5,)}, {(2,)}]
    assert fam.vectors[0].tree == prefix_closure([(5,), (2,)])
    for n, labels in ((3, [0, 1]), (2, [0, 1, 2]), (2, [1, 1]),
                      (2, [0.5, 1.7]), (2, [-1, 3]), (1, [True]),
                      (1, ["1"])):
        with pytest.raises(InvalidParameter):
            delta_antichain_family(n, L1, 1, labels)


def test_cesaro_mean_index_validation():
    fam = delta_antichain_family(3, L1, 1)
    with pytest.raises(BadIndexList):
        cesaro_mean(fam, [])
    with pytest.raises(BadIndexList):
        cesaro_mean(fam, [1, 1])
    with pytest.raises(BadIndexList):
        cesaro_mean(fam, [0, 5])


def test_cesaro_mean_rejects_non_integer_indices():
    # booleans are ints to isinstance, so they need their own check
    fam = delta_antichain_family(3, L1, 1)
    for idx in ([False, True], [0, True], [0, 1.0], [F(1)], ["1"]):
        with pytest.raises(BadIndexList, match="must be an integer"):
            cesaro_mean(fam, idx)


def test_cesaro_scaling_covariance():
    fam = delta_antichain_family(4, L1, 2)
    scaled = VectorFamily(
        [BaireVector(v.tree, {n: F(-3, 2) * c for n, c in v.coeffs.items()})
         for v in fam.vectors],
        fam.context,
    )
    _, nv = cesaro_mean(fam, [0, 2, 3])
    _, nv_scaled = cesaro_mean(scaled, [0, 2, 3])
    assert nv_scaled.power_base == nv.scale(F(-3, 2)).power_base


def test_bs_obstruction_passes_on_summable_antichain():
    for size in range(2, 7):
        fam = delta_antichain_family(size, L1, 1)
        verdict = bs_obstruction_check(fam, 1)
        assert verdict.is_pass


def test_bs_obstruction_violated_in_square_mode():
    fam = delta_antichain_family(4, L2, 2)
    verdict = bs_obstruction_check(fam, 1)
    assert verdict.is_violated
    w = verdict.witness
    assert w["m"] == 2 and w["ell"] == 1 and w["indices"] == [0, 1]
    assert w["value"].power_base == F(1, 2)


def test_bs_obstruction_zero_vectors_violate_immediately():
    tree = prefix_closure([(0,), (1,)])
    zero = BaireVector(tree, {})
    fam = VectorFamily([zero, zero], BaireContext(L1, 1))
    verdict = bs_obstruction_check(fam, 1)
    assert verdict.is_violated and verdict.witness["m"] == 1


def test_bs_obstruction_preconditions():
    big = delta_antichain_family(11, L1, 1)
    with pytest.raises(FamilyTooLarge):
        bs_obstruction_check(big, 1)
    tree = prefix_closure([(0,)])
    fam = VectorFamily([delta(tree, (0,), 2)], BaireContext(L1, 1))
    with pytest.raises(NotInUnitBall):
        bs_obstruction_check(fam, 1)


def test_bs_obstruction_scaling_covariance():
    fam = delta_antichain_family(4, L2, 2)
    scaled = VectorFamily(
        [BaireVector(v.tree, {n: F(1, 2) * c for n, c in v.coeffs.items()})
         for v in fam.vectors],
        fam.context,
    )
    v1 = bs_obstruction_check(fam, 1)
    v2 = bs_obstruction_check(scaled, F(1, 2))
    assert v1.status == v2.status
    assert v1.witness["indices"] == v2.witness["indices"]
    assert v1.witness["m"] == v2.witness["m"]


def test_abs_falsifier_inconclusive_on_summable_basis():
    fam = delta_antichain_family(6, L1, 1)
    verdict = abs_obstruction_falsify(fam, F(1, 2))
    assert verdict.is_inconclusive
    assert "sign patterns" in verdict.tested


def test_abs_falsifier_finds_sup_norm_violation():
    fam = delta_antichain_family(8, C0, P_ZERO)
    verdict = abs_obstruction_falsify(fam, F(1, 2))
    assert verdict.is_violated
    w = verdict.witness
    assert w["ell"] == 2
    assert w["indices"] == [1, 2, 3, 4]
    assert w["coeffs"] == [1, 1, 1, 1]
    assert w["lhs"].power_base == 1 and w["rhs"] == 2


def test_abs_falsifier_large_epsilon():
    fam = delta_antichain_family(4, C0, P_ZERO)
    verdict = abs_obstruction_falsify(fam, 2)
    assert verdict.is_violated and verdict.witness["ell"] == 1


def test_abs_falsifier_requires_two_vectors():
    tree = prefix_closure([(0,)])
    fam = VectorFamily([delta(tree, (0,))], BaireContext(C0, P_ZERO))
    with pytest.raises(FamilyTooSmall):
        abs_obstruction_falsify(fam, 1)


def test_abs_falsifier_monotone_under_larger_sampler():
    fam = delta_antichain_family(8, C0, P_ZERO)
    small = abs_obstruction_falsify(fam, F(1, 2), TrialCoeffs())
    grid = TrialCoeffs(grid=(F(0), F(1, 2), F(1)))
    large = abs_obstruction_falsify(fam, F(1, 2), grid)
    assert small.is_violated and large.is_violated


def _seeded_grids(count, seed):
    rng = seeded_rng(seed)
    return [tuple(F(rng.randint(-6, 6), rng.randint(1, 6))
                  for _ in range(rng.randint(1, 4))) for _ in range(count)]


@pytest.mark.parametrize("grid", [
    (), (F(-1), F(1)), (F(0), F(1, 2), F(1)), (F(-1), F(0), F(1)),
    *_seeded_grids(6, 25)])
def test_trial_vectors_match_the_fraction_reference(grid):
    # rays keyed by integer numerators keep the samples, their order and
    # the first on each ray that dividing by the sum of |entries| keeps:
    # (-1, 1) repeats every pattern, (1/2, 1) repeats (1, 1)
    for seed, random_trials in ((0, 0), (5, 30), (17, 60)):
        trials = TrialCoeffs(grid=grid, random_trials=random_trials,
                             seed=seed)
        for size in range(1, 9):
            if len(grid) ** size <= 1000:
                assert trials.vectors(size) == \
                    reference_trial_vectors(trials, size), (seed, size)


def test_abs_falsifier_draws_the_rays_once_per_block_size(monkeypatch):
    calls = []
    draw = TrialCoeffs._rays

    def counted(self, size):
        calls.append(size)
        return draw(self, size)

    monkeypatch.setattr(TrialCoeffs, "_rays", counted)
    trials = TrialCoeffs(grid=(F(1, 2), F(1)), random_trials=5, seed=2)
    fam = delta_antichain_family(10, L1, 1)
    assert abs_obstruction_falsify(fam, F(1, 2), trials).is_inconclusive
    assert calls == [2, 4, 8]


class _CountingFamily(VectorFamily):
    def __init__(self, family):
        super().__init__(family.vectors, family.context)
        self.mixes = 0

    def mix(self, coeff_index_pairs):
        self.mixes += 1
        return super().mix(coeff_index_pairs)


def test_abs_falsifier_count_is_the_candidates_tested():
    # the l1 p = 1 antichain never violates, so every candidate runs
    grid = TrialCoeffs(grid=(F(0), F(1, 2), F(1)), random_trials=5, seed=2)
    for trials in (TrialCoeffs(), grid):
        for n in range(2, 10):
            fam = _CountingFamily(delta_antichain_family(n, L1, 1))
            assert abs_obstruction_falsify(fam, F(1, 2), trials) \
                .is_inconclusive
            assert fam.mixes == sum(
                math.comb(n - ell + 1, 2**ell) * len(trials.vectors(2**ell))
                for ell in (1, 2, 3) if ell - 1 + 2**ell <= n)


def test_a_grid_past_4096_points_is_swept_in_full():
    # 9^4 = 6561 grid points at size 4: every one is tested, and the
    # verdict's `tested` names the grid for ell = 2
    trials = TrialCoeffs(grid=tuple(F(k, 4) for k in range(-4, 5)))
    assert len(trials.vectors(4)) == 5856
    fam = _CountingFamily(delta_antichain_family(6, L1, 1))
    verdict = abs_obstruction_falsify(fam, F(1, 2), trials)
    assert verdict.is_inconclusive and "ell=2: sign patterns (2^3), grid" \
        in verdict.tested
    assert fam.mixes == math.comb(6, 2) * len(trials.vectors(2)) + \
        math.comb(5, 4) * len(trials.vectors(4))


def test_a_grid_past_the_candidate_bound_is_refused_before_it_is_built(
        monkeypatch):
    # ell = 3 would expand 9^8 = 43 million grid vectors; the draw stops
    # at the first ray past the bound (ell = 2 has 5,856 rays)
    monkeypatch.setattr(checkers, "MAX_ABS_CANDIDATES", 6000)
    trials = TrialCoeffs(grid=tuple(F(k, 4) for k in range(-4, 5)))
    fam = _CountingFamily(delta_antichain_family(10, L1, 1))
    start = time.process_time()
    with pytest.raises(FamilyTooLarge,
                       match="^over 6000 grid rays of size 8$"):
        abs_obstruction_falsify(fam, F(1, 2), trials)
    assert time.process_time() - start < 1.0 and fam.mixes == 0


def test_abs_falsifier_refuses_past_its_candidate_bound():
    # n = 14 runs its 69,262 candidates; n = 20 has 6,189,468 and is
    # refused before any is tested
    for n, count in ((15, 172954), (20, 6189468)):
        fam = _CountingFamily(delta_antichain_family(n, L1, 1))
        start = time.process_time()
        with pytest.raises(FamilyTooLarge,
                           match=f"^{count} candidates exceed the bound "
                                 f"{checkers.MAX_ABS_CANDIDATES}$"):
            abs_obstruction_falsify(fam, F(1, 2))
        assert time.process_time() - start < 1.0 and fam.mixes == 0


# ---------------------------------------------------------------------------
# convex blocks

def test_convex_block_min_examples():
    fam = delta_antichain_family(4, C0, P_ZERO)
    coeffs, value = convex_block_min(fam, (0, 3))
    assert value.power_base == F(1, 4)
    assert list(coeffs) == [F(1, 4)] * 4

    fam1 = delta_antichain_family(4, L1, 1)
    _, value = convex_block_min(fam1, (0, 3))
    assert value.power_base == 1

    coeffs, value = convex_block_min(fam1, (2, 0))
    assert list(coeffs) == [1] and value.power_base == 1

    with pytest.raises(WindowOutOfRange):
        convex_block_min(fam1, (2, 3))


def test_nineteen_vector_antichains_solve_in_under_a_second():
    # the functionals number 3^19 + 1 in c0 p = 1 and 3^19 + 77 in l1
    # p = 1, but the loop meets only those its LP points attain
    for kind in (L1, C0):
        for p, value in ((P_ZERO, F(1, 19)), (1, F(1))):
            start = time.process_time()
            coeffs, nv = convex_block_min(
                delta_antichain_family(19, kind, p), (0, 18))
            assert time.process_time() - start < 1.0
            assert nv.power_base == value and nv.inv_exp == 1
            assert list(coeffs) == [F(1, 19)] * 19


def _assert_attained_and_below_the_vertices(fam, coeffs, value):
    """The value is the norm of the returned combination and no larger
    than the uniform combination's or any single vector's norm."""
    w = len(coeffs)
    assert sum(coeffs) == 1 and min(coeffs) >= 0
    assert fam.norm(fam.mix(zip(coeffs, range(w)))) == value
    assert value.compare(cesaro_mean(fam, range(w))[1]) <= 0
    assert all(value.compare(fam.norm(x)) <= 0 for x in fam.vectors)


def test_p_one_families_past_twenty_closure_nodes_solve():
    rng = seeded_rng(1601)
    for tree in (random_tree(120, 0), random_tree(120, 1), spine(30)):
        vectors = [random_rational_vector(tree, rng) for _ in range(3)]
        for kind in (L1, C0):
            fam = VectorFamily(vectors, BaireContext(kind, 1))
            start = time.process_time()
            coeffs, value = convex_block_min(fam, (0, 2))
            assert time.process_time() - start < 1.0
            _assert_attained_and_below_the_vertices(fam, coeffs, value)


def test_weak_null_probe_on_a_thirty_vector_l1_antichain():
    # every block has norm 1 in l1 p = 1, so each window length stops at
    # its first block: 30 block-mins over windows of 1..30 vectors
    start = time.process_time()
    verdict = weak_null_probe(delta_antichain_family(30, L1, 1), F(1, 2))
    assert time.process_time() - start < 1.0
    assert verdict.is_inconclusive


def test_convex_block_min_of_zero_vectors():
    # every combination has norm 0, so the tie rule returns the uniform
    # mean
    tree = prefix_closure([(0,), (1,)])
    for kind in (L1, C0):
        for p in (P_ZERO, 1):
            fam = VectorFamily([BaireVector(tree, {})] * 2,
                               BaireContext(kind, p))
            coeffs, value = convex_block_min(fam, (0, 1))
            assert coeffs == (F(1, 2), F(1, 2)) and value.power_base == 0


def test_cutting_planes_match_the_full_functional_lp():
    # exact equality with the LP over every generating functional, and
    # the tie rule: the uniform mean exactly when it attains the minimum
    rng = seeded_rng(1602)
    for nodes in canonical_shapes(6):
        tree = make_tree(nodes)
        for kind, p in ((L1, P_ZERO), (L1, 1), (C0, P_ZERO), (C0, 1)):
            p = ExponentP.coerce(p)
            w = rng.randint(2, 4)
            vectors = [random_rational_vector(tree, rng, allow_zero=True)
                       for _ in range(w)]
            fam = VectorFamily(vectors, BaireContext(kind, p))
            coeffs, value = convex_block_min(fam, (0, w - 1))
            assert value == reference_block_min(vectors, kind, p)[1]
            _assert_attained_and_below_the_vertices(fam, coeffs, value)
            uniform = cesaro_mean(fam, range(w))[1]
            assert (coeffs == (F(1, w),) * w) == (uniform == value)


def test_convex_block_min_matches_grid_oracle():
    for kind, p in [(C0, P_ZERO), (L1, 1), (C0, 1), (L1, P_ZERO)]:
        for n in range(2, 5):
            fam = delta_antichain_family(n, kind, p)
            window = (0, n - 1)
            _, value = convex_block_min(fam, window)
            oracle = grid_min(fam, window)
            assert value.compare(oracle) <= 0
            assert value.equals(oracle), (kind, p, n)


def test_convex_block_min_on_mixed_sign_family():
    tree = prefix_closure([(0,), (1,)])
    ctx = BaireContext(L1, 1)
    fam = VectorFamily(
        [delta(tree, (0,)), delta(tree, (0,), -1), delta(tree, (1,))], ctx
    )
    coeffs, value = convex_block_min(fam, (0, 1))
    assert value.power_base == 0
    assert list(coeffs) == [F(1, 2), F(1, 2)]
    assert value.equals(grid_min(fam, (0, 1)))


def test_convex_block_min_step_family():
    up = cell_indicator(1, 1, height=2)
    down = cell_indicator(1, 2, height=2)
    fam = VectorFamily([up, down], StepContext())
    coeffs, value = convex_block_min(fam, (0, 1))
    assert value.power_base == 1  # any convex mix integrates to 1

    fam2 = VectorFamily([up, StepContext().mix([(-1, up)])], StepContext())
    coeffs, value = convex_block_min(fam2, (0, 1))
    assert value.power_base == 0
    assert list(coeffs) == [F(1, 2), F(1, 2)]


def test_step_windows_meet_the_cell_lp():
    # seeded windows of rational steps at mixed resolutions: the loop's
    # least norm is the cell LP's, attained at its weights
    rng = seeded_rng(2203)
    for _ in range(40):
        res, w = rng.randint(1, 4), rng.randint(2, 5)
        steps = [DyadicStep(r, tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(2**r)))
                 for r in (rng.randint(0, res) for _ in range(w))]
        fam = VectorFamily(steps, StepContext())
        coeffs, value = convex_block_min(fam, (0, w - 1))
        assert value.equals(reference_step_block_min(steps)[1])
        assert sum(coeffs) == 1 and min(coeffs) >= 0
        assert fam.norm(fam.mix(zip(coeffs, range(w)))).equals(value)


def test_step_lp_is_refused_before_it_is_built():
    res = checkers.MAX_STEP_LP_CELLS.bit_length() - 1
    at_bound = VectorFamily([cell_indicator(res, 1, 2**res),
                             cell_indicator(0, 1)], StepContext())
    assert convex_block_min(at_bound, (0, 1))[1].power_base == 1
    for r in (res + 1, 20):
        fam = VectorFamily([cell_indicator(r, 1, 2**r), cell_indicator(0, 1)],
                           StepContext())
        start = time.process_time()
        with pytest.raises(FunctionalSetTooLarge):
            convex_block_min(fam, (0, 1))
        assert time.process_time() - start < 0.5


def test_convex_block_min_subgradient_mode():
    fam = delta_antichain_family(4, L2, 2)
    coeffs, value = convex_block_min(fam, (0, 3))
    assert not value.is_exact
    assert value.approx == pytest.approx(0.5, abs=1e-4)
    assert sum(coeffs) == pytest.approx(1.0, abs=1e-9)


def _assert_subgradient_minimum(fam, window):
    """The linearised loop's result is a point of the simplex whose
    combination has the returned norm, no larger than the uniform
    combination's or any single vector's."""
    start, length = window
    coeffs, value = convex_block_min(fam, window)
    assert not value.is_exact
    assert all(c >= 0 for c in coeffs) and len(coeffs) == length + 1
    assert approx_equal(sum(coeffs), 1.0)
    combo = fam.mix([(F(c), start + i) for i, c in enumerate(coeffs)])
    assert approx_equal(value.approx, fam.norm(combo).approx)
    uniform = fam.mix([(F(1, length + 1), start + i)
                       for i in range(length + 1)])
    assert value.compare(fam.norm(uniform)) <= 0
    assert all(value.compare(fam.norm(x)) <= 0
               for x in fam.vectors[start : start + length + 1])
    return value


def test_convex_block_min_subgradient_in_c0():
    value = _assert_subgradient_minimum(delta_antichain_family(4, C0, 2),
                                        (0, 3))
    assert value.approx == pytest.approx(0.5, abs=1e-4)
    rng = seeded_rng(1512)
    for seed in range(3):
        tree = random_tree(6, seed)
        vectors = [random_rational_vector(tree, rng, allow_zero=True)
                   for _ in range(4)]
        fam = VectorFamily(vectors, BaireContext(C0, F(3, 2)))
        _assert_subgradient_minimum(fam, (0, 3))
        _assert_subgradient_minimum(fam, (1, 1))


def test_linearised_cuts_find_a_zero_minimum():
    # 30 full-support vectors on 10 nodes have 0 in their convex hull,
    # while their uniform mean has norm 1.30
    rng = seeded_rng(1700)
    tree = random_tree(10, 0)
    vectors = [random_rational_vector(tree, rng) for _ in range(30)]
    fam = VectorFamily(vectors, BaireContext(L2, 2))
    start = time.process_time()
    value = _assert_subgradient_minimum(fam, (0, 29))
    assert time.process_time() - start < 1.0
    assert value.approx <= 1e-4 * cesaro_mean(fam, range(30))[1].approx


def _pairwise_descent(fam, w):
    """A convex combination of small norm, built independently of the
    loop: the best point of a coarse simplex grid, improved by moving
    weight between two coordinates while that lowers the norm."""
    def norm(a):
        return fam.norm(fam.mix(zip(a, range(w)))).approx

    a = min(simplex_grid(w, 4), key=norm)
    best, step = norm(a), F(1, 8)
    while step > F(1, 2**16):
        moved = False
        for i, j in itertools.permutations(range(w), 2):
            d = min(step, a[j])
            if not d:
                continue
            b = list(a)
            b[i], b[j] = b[i] + d, b[j] - d
            value = norm(b)
            if value < best:
                a, best, moved = tuple(b), value, True
        if not moved:
            step /= 2
    return best


def test_linearised_cuts_reach_a_constructed_combination():
    rng = seeded_rng(1702)
    for seed in range(6):
        vectors = [random_rational_vector(random_tree(10, seed), rng)
                   for _ in range(6)]
        fam = VectorFamily(vectors, BaireContext(L1, F(3, 2)))
        value = _assert_subgradient_minimum(fam, (0, 5))
        assert value.approx <= (1 + 1e-4) * _pairwise_descent(fam, 6)


def test_linearised_cuts_scale_with_the_coefficients():
    rng = seeded_rng(1703)
    tree = random_tree(8, 3)
    for kind, p in ((L2, 2), (L1, F(3, 2)), (C0, 2), (L2, P_ZERO)):
        vectors = [random_rational_vector(tree, rng) for _ in range(4)]
        value = _assert_subgradient_minimum(
            VectorFamily(vectors, BaireContext(kind, p)), (0, 3)).approx
        for k in (40, -40):
            scaled = [BaireVector(tree, {s: x[s] * F(2)**k for s in tree})
                      for x in vectors]
            nv = _assert_subgradient_minimum(
                VectorFamily(scaled, BaireContext(kind, p)), (0, 3))
            assert nv.approx == pytest.approx(value * 2.0**k, rel=1e-4)


def test_linearised_cuts_stop_at_the_cut_cap(monkeypatch):
    monkeypatch.setattr(checkers, "BLOCK_MIN_GAP", 0)
    solves = []

    class Counted(Tableau):
        """Counts the first solve and each re-solve after a cut."""

        def __init__(self, *args):
            solves.append(len(args[1]))
            super().__init__(*args)

        def add_row(self, a, b):
            solves.append(len(self.basis) + 1)
            super().add_row(a, b)

    monkeypatch.setattr(checkers, "Tableau", Counted)
    rng = seeded_rng(1704)
    vectors = [random_rational_vector(random_tree(8, 1), rng)
               for _ in range(4)]
    _assert_subgradient_minimum(
        VectorFamily(vectors, BaireContext(L2, 2)), (0, 3))
    # a gap of 0 is never met here, so the cap alone stops the loop
    assert len(solves) == checkers.MAX_BLOCK_CUTS + 1


#: every context a cut is built in: the four polyhedral ones, then four
#: linearised ones (smooth, single-segment and non-integer p)
CUT_CONTEXTS = ((L1, P_ZERO), (L1, 1), (C0, P_ZERO), (C0, 1),
                (L2, P_ZERO), (L2, 2), (L1, F(3, 2)), (C0, 2))


def _simplex_point(rng, w):
    """A seeded rational point of the probability simplex."""
    raw = [rng.randint(0, 8) for _ in range(w)]
    raw[rng.randrange(w)] += 1
    return tuple(F(r, sum(raw)) for r in raw)


def test_an_exact_cut_row_reads_each_vector_over_its_own_support():
    # every entry is a Fraction, also where the functional misses the
    # vector, and a wide sparse window stays cheap
    tree = prefix_closure([(0,), (1,)])
    vectors = [delta(tree, (0,)), delta(tree, (1,), F(1, 3))]
    value, row, b = checkers._cut(vectors[0], vectors, BaireContext(L1, 1),
                                  1.0)
    assert (value, row, b) == (1, [1, 0, -1], 0)
    assert all(type(r) is Fraction for r in row)
    start = time.process_time()
    a, least = convex_block_min(delta_antichain_family(320, C0, 1), (0, 319))
    assert time.process_time() - start < 1.0
    assert a == (F(1, 320),) * 320 and least.power_base == 1


def test_a_large_antichain_family_builds_in_linear_time():
    # every vector's tree is the first's own object, so checking that
    # they share it costs no walk over the nodes
    start = time.process_time()
    fam = delta_antichain_family(20_000, L1, 1)
    assert time.process_time() - start < 2.0
    assert len(fam) == 20_000 and len(fam.vectors[0].tree) == 20_001


def test_every_cut_stays_below_the_norm():
    # README's lower bound: a polyhedral row is at most the exact norm at
    # every simplex point, with equality at the cut's own point; a
    # linearised row less its right-hand side is at most the norm over s
    rng = seeded_rng(1900)
    checks = 0
    for seed in range(40):
        tree = random_tree(rng.randint(1, 10), seed)
        for kind, p in CUT_CONTEXTS:
            ctx = BaireContext(kind, p)
            w = rng.randint(2, 4)
            vectors = [random_rational_vector(tree, rng, allow_zero=True)
                       for _ in range(w)]
            u = ctx.norm(linear_combination(
                zip((F(1, w),) * w, vectors))).approx
            scale = 2.0 ** round(math.log2(u)) if u else 1.0
            for _ in range(3):
                a = _simplex_point(rng, w)
                combo = linear_combination(zip(a, vectors))
                value, row, b = checkers._cut(combo, vectors, ctx, scale)
                assert row[-1] == -1
                if ctx.polyhedral:
                    assert b == 0
                    assert value == ctx.norm(combo).power_base
                    assert sum(r * c for r, c in zip(row, a)) == value
                for _ in range(6):
                    c = _simplex_point(rng, w)
                    nv = ctx.norm(linear_combination(zip(c, vectors)))
                    lhs = sum(r * ci for r, ci in zip(row, c))
                    if ctx.polyhedral:
                        assert lhs <= nv.power_base
                    else:
                        assert lhs - b <= F(nv.approx) / F(scale)
                    checks += 1
    assert checks == 40 * len(CUT_CONTEXTS) * 3 * 6


def test_weak_null_probe_examples():
    fam = delta_antichain_family(8, C0, P_ZERO)
    verdict = weak_null_probe(fam, F(1, 3))
    assert verdict.is_pass
    assert verdict.witness["window_length"] == 4
    assert len(verdict.witness["blocks"]) == 2
    for block in verdict.witness["blocks"]:
        assert block["value"].below(F(1, 3))

    fam1 = delta_antichain_family(8, L1, 1)
    assert weak_null_probe(fam1, F(1, 2)).is_inconclusive

    big_eps = weak_null_probe(delta_antichain_family(3, C0, P_ZERO), 2)
    assert big_eps.is_pass and big_eps.witness["window_length"] == 1


def test_weak_null_probe_requires_two_vectors():
    tree = prefix_closure([(0,)])
    fam = VectorFamily([delta(tree, (0,))], BaireContext(C0, P_ZERO))
    with pytest.raises(FamilyTooSmall):
        weak_null_probe(fam, 1)


def test_weak_null_probe_passes_eventually_in_sup_context():
    # length >= ceil(1/eps) suffices for the sup-norm antichain family
    for eps, length in [(F(1, 2), 3), (F(1, 4), 5), (F(1, 5), 6)]:
        fam = delta_antichain_family(length, C0, P_ZERO)
        assert weak_null_probe(fam, eps).is_pass
        fam1 = delta_antichain_family(length, L1, 1)
        assert weak_null_probe(fam1, eps).is_inconclusive


# ---------------------------------------------------------------------------
# golden digest

# SHA-256 over repr of every output of _checker_outputs, one line each,
# re-recorded when the linearised cutting planes replaced the projected
# subgradient steps: only the three lines of the linearised contexts
# moved, each value by less than 1e-4 relative.  The support lines come
# from util.functional_supports, the enumeration the exact block-min LP
# was built over before it moved to cutting planes.
CHECKERS_DIGEST = (
    "73d374f91f21e7ed539e3ee510521ce31a9fa7c4cc4812c992d81ebd70379852"
)


def _checker_outputs():
    rng = seeded_rng(1509)
    # the exact LP contexts
    for seed in range(3):
        tree = random_tree(6, seed)
        for kind, p in ((L1, P_ZERO), (L1, 1), (C0, P_ZERO), (C0, 1)):
            vectors = [random_rational_vector(tree, rng, allow_zero=True)
                       for _ in range(3)]
            yield convex_block_min(
                VectorFamily(vectors, BaireContext(kind, p)), (0, 2))
    # the linearised contexts
    tree = random_tree(5, 7)
    for kind, p in ((L2, P_ZERO), (L2, 2), (L1, F(3, 2))):
        vectors = [random_rational_vector(tree, rng) for _ in range(3)]
        yield convex_block_min(
            VectorFamily(vectors, BaireContext(kind, p)), (0, 2))
    steps = [DyadicStep(2, tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                 for _ in range(4))) for _ in range(3)]
    yield convex_block_min(VectorFamily(steps, StepContext()), (0, 2))
    # grid trials: 9 values run in full at sizes 2 and 4 (5,856 vectors
    # at size 4, ~3 s of this corpus)
    grid = TrialCoeffs(grid=tuple(F(k, 4) for k in range(-4, 5)))
    seeded = TrialCoeffs(random_trials=20, seed=3)
    tree = random_tree(6, 11)
    mixed = VectorFamily([random_rational_vector(tree, rng) for _ in range(6)],
                         BaireContext(L1, 1))
    for fam in (delta_antichain_family(6, L1, 1),
                delta_antichain_family(6, C0, P_ZERO), mixed):
        for trials in (grid, seeded):
            yield abs_obstruction_falsify(fam, F(1, 2), trials)
    for nodes in canonical_shapes(6):
        closure = make_tree(nodes)
        for kind in (L1, L2, C0):
            for p in (P_ZERO, ExponentP.of(1), ExponentP.of(2)):
                yield functional_supports(closure, kind, p)


def test_checker_outputs_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for out in _checker_outputs():
        digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == CHECKERS_DIGEST


# ---------------------------------------------------------------------------
# refusal paths

from functools import partial  # noqa: E402

from bairelab.errors import InvalidParameter, TreeMismatch  # noqa: E402


@pytest.mark.parametrize("call, error", [
    (lambda: VectorFamily([], StepContext()), InvalidParameter),
    (lambda: VectorFamily(
        [delta(make_tree([(), (0,)]), (0,)), delta(spine(2), (0,))],
        BaireContext(L1, 1)), TreeMismatch),
    *[(partial(check, delta_antichain_family(3, L1, 1), epsilon),
       InvalidParameter)
      for check in (bs_obstruction_check, abs_obstruction_falsify,
                    weak_null_probe)
      for epsilon in (0, F(-1, 2))],
], ids=["empty-family", "family-on-two-trees",
        *[f"{name}-epsilon-{e}" for name in ("bs", "abs", "weak-null")
          for e in ("0", "-1/2")]])
def test_malformed_checker_input_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_vectors_refuse_a_grid_past_the_candidate_bound(monkeypatch):
    # 5,856 rays at size 4 against a bound of 1000: refused, not built
    monkeypatch.setattr(checkers, "MAX_ABS_CANDIDATES", 1000)
    trials = TrialCoeffs(grid=tuple(F(k, 4) for k in range(-4, 5)))
    with pytest.raises(FamilyTooLarge):
        trials.vectors(4)
