import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import (
    BushLevels,
    DyadicStep,
    StepContext,
    bush_check,
    cell_indicator,
    constant_step,
    l1_norm,
    level_difference,
    rademacher_bush,
    step_combine,
)
from bairelab.errors import InvalidParameter, KOutOfRange, ValidationError
from bairelab.steps import MAX_RESOLUTION, step_linear_combination

F = Fraction

steps_strategy = st.builds(
    lambda res, vals: DyadicStep(res, tuple(vals[: 2**res])),
    st.integers(0, 3),
    st.lists(
        st.fractions(min_value=F(-4), max_value=F(4), max_denominator=8),
        min_size=8,
        max_size=8,
    ),
)


def test_combine_examples():
    left = cell_indicator(1, 1)
    right = cell_indicator(1, 2)
    assert step_combine(1, left, 1, right) == constant_step(1)
    f = DyadicStep(2, (1, F(1, 2), 0, -1))
    assert step_combine(1, f, -1, f) == constant_step(0)


def test_refine_commutes_with_combine():
    f = DyadicStep(1, (1, -2))
    g = DyadicStep(2, (F(1, 2), 0, 3, 1))
    direct = step_combine(2, f, 3, g)
    refined = step_combine(2, f.refine(3), 3, g.refine(3))
    assert direct == refined


def test_l1_norm_examples():
    assert l1_norm(constant_step(1)) == 1
    for k in (1, 3, 5):
        assert l1_norm(cell_indicator(k, 2, height=2**k)) == 1
    bush = rademacher_bush(4)
    for k in range(1, 5):
        assert l1_norm(level_difference(bush, k)) == 2**k


def test_l1_norm_is_refinement_invariant():
    f = DyadicStep(2, (1, F(-1, 3), 0, F(5, 2)))
    assert l1_norm(f) == l1_norm(f.refine(5))


@settings(max_examples=100, derandomize=True)
@given(steps_strategy, steps_strategy)
def test_l1_triangle_exact(f, g):
    assert l1_norm(step_combine(1, f, 1, g)) <= l1_norm(f) + l1_norm(g)


def test_semantic_equality_and_hash():
    f = DyadicStep(0, (F(2),))
    g = DyadicStep(2, (2, 2, 2, 2))
    assert f == g and hash(f) == hash(g)
    assert f != DyadicStep(1, (2, 1))


def test_rademacher_bush_construction():
    bush = rademacher_bush(1)
    assert bush.entry(0, 1) == constant_step(1)
    assert bush.entry(1, 1) == cell_indicator(1, 1, height=2)
    assert bush.entry(1, 2) == cell_indicator(1, 2, height=2)
    with pytest.raises(KOutOfRange):
        rademacher_bush(0)
    with pytest.raises(KOutOfRange):
        rademacher_bush(17)


def test_canonical_bush_laws():
    # levels of the depth-10 bush restrict to every smaller K, so the
    # per-level laws below cover all K <= 10
    K = 10
    bush = rademacher_bush(K)
    for k in range(1, K + 1):
        for l in range(1, 2 ** (k - 1) + 1):
            mid = step_combine(
                F(1, 2), bush.entry(k, 2 * l - 1),
                F(1, 2), bush.entry(k, 2 * l),
            )
            assert mid == bush.entry(k - 1, l)
        assert l1_norm(level_difference(bush, k)) == 2**k
    assert all(
        l1_norm(bush.entry(k, l)) == 1
        for k in range(K + 1)
        for l in range(1, 2**k + 1)
    )
    for K_small in (1, 2, 3):
        small = rademacher_bush(K_small)
        assert bush_check(small, F(1, 2), 1).is_pass
        assert bush_check(small, 1, 1).is_violated


def test_bush_check_examples():
    assert bush_check(rademacher_bush(8), F(1, 2), 1).is_pass

    verdict = bush_check(rademacher_bush(3), 1, 1)
    assert verdict.is_violated
    assert verdict.witness["condition"] == "difference-norm"
    assert verdict.witness["k"] == 1
    assert verdict.witness["quantity"] == 2

    bush = rademacher_bush(3)
    levels = [list(level) for level in bush.levels]
    levels[1][0] = step_combine(1, levels[1][0], 1, constant_step(F(1, 100)))
    perturbed = BushLevels(tuple(tuple(level) for level in levels))
    verdict = bush_check(perturbed, F(1, 2), 2)
    assert verdict.is_violated and verdict.witness["condition"] == "midpoint"
    assert (verdict.witness["k"], verdict.witness["l"]) == (1, 1)


def test_bush_check_bound_condition():
    bush = rademacher_bush(2)
    verdict = bush_check(bush, F(1, 2), F(1, 2))
    assert verdict.is_violated and verdict.witness["condition"] == "bound"


def test_bush_check_monotone_in_delta():
    bush = rademacher_bush(5)
    for num in (1, 2, 3):
        delta = F(num, 4)
        if bush_check(bush, delta, 1).is_pass:
            assert bush_check(bush, delta / 2, 1).is_pass
    assert bush_check(bush, F(99, 100), 1).is_pass
    assert bush_check(bush, 1, 1).is_violated


def test_bush_check_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        bush_check(rademacher_bush(2), 0, 1)
    with pytest.raises(InvalidParameter):
        bush_check(rademacher_bush(2), F(1, 2), 0)


def test_bush_levels_validation():
    with pytest.raises(ValidationError):
        BushLevels(((constant_step(1),),))
    with pytest.raises(ValidationError):
        BushLevels(((constant_step(1),), (constant_step(2),)))


def test_step_validation():
    with pytest.raises(ValidationError):
        DyadicStep(2, (1, 2, 3))
    with pytest.raises(InvalidParameter):
        DyadicStep(1, (1, 2)).refine(0)


def _random_step(rng):
    res = rng.randint(0, 4)
    return DyadicStep(res, tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                                 for _ in range(2**res)))


def _step_mixer_outputs():
    rng = random.Random(4099)

    def coef():
        return F(rng.randint(-5, 5), rng.randint(1, 3))

    for _ in range(150):
        pairs = [(coef(), _random_step(rng)) for _ in range(rng.randint(0, 4))]
        yield StepContext().mix(pairs)
        yield step_combine(coef(), _random_step(rng), coef(), _random_step(rng))
    for top in range(1, 5):
        bush = BushLevels(tuple(
            tuple(_random_step(rng) for _ in range(2**k))
            for k in range(top + 1)))
        for k in range(1, top + 1):
            yield level_difference(bush, k)
    for top in range(1, 8):
        for delta in (F(1, 2), F(1)):
            yield bush_check(rademacher_bush(top), delta, 1)


# SHA-256 over the reprs of _step_mixer_outputs, recorded with the three
# separate mixing loops (StepContext.mix, step_combine, and step_sum over
# step_combine in level_difference) that step_linear_combination replaced
STEP_MIXERS_DIGEST = (
    "651b33e647d25e2e537a9664236b5a8f7b7e569553d620d0df877a380b2b05a8"
)


def test_step_mixer_outputs_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for out in _step_mixer_outputs():
        digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == STEP_MIXERS_DIGEST


def test_out_of_range_resolutions_are_refused_before_building():
    with pytest.raises(InvalidParameter):
        cell_indicator(64, 1)
    with pytest.raises(InvalidParameter):
        constant_step(1, 64)
    with pytest.raises(InvalidParameter):
        DyadicStep(0, (1,)).refine(30)
    with pytest.raises(InvalidParameter):
        DyadicStep(0, (1,)).refine(MAX_RESOLUTION + 1)
    top = cell_indicator(MAX_RESOLUTION, 2**MAX_RESOLUTION)
    assert l1_norm(top.refine(MAX_RESOLUTION)) == F(1, 2**MAX_RESOLUTION)


@pytest.mark.parametrize("bad", [True, False, math.nan, math.inf, -math.inf],
                         ids=["true", "false", "nan", "inf", "-inf"])
def test_step_values_and_coefficients_are_strict(bad):
    with pytest.raises(InvalidParameter):
        DyadicStep(0, (bad,))
    with pytest.raises(InvalidParameter):
        DyadicStep(1, (1, bad))
    with pytest.raises(InvalidParameter):
        constant_step(bad)
    with pytest.raises(InvalidParameter):
        cell_indicator(1, 1, height=bad)
    with pytest.raises(InvalidParameter):
        step_linear_combination([(bad, constant_step(1))])
    with pytest.raises(InvalidParameter):
        step_combine(1, constant_step(1), bad, constant_step(1))
    assert DyadicStep(0, (0.5,)) == constant_step(F(1, 2))


# A dense reference, with the formulas of the layout that stored every
# cell: a step is (resolution, tuple of its 2**resolution values).

def dense_refine(step, resolution):
    res, values = step
    times = 2 ** (resolution - res)
    return tuple(v for v in values for _ in range(times))


def dense_combination(pairs):
    r = max((res for _, (res, _) in pairs), default=0)
    acc = [F(0)] * 2**r
    for a, step in pairs:
        acc = [c + F(a) * v for c, v in zip(acc, dense_refine(step, r))]
    return r, tuple(acc)


def dense_canonical(step):
    res, values = step
    while res > 0 and all(
        values[2 * i] == values[2 * i + 1] for i in range(len(values) // 2)
    ):
        values = values[::2]
        res -= 1
    return res, values


def dense_equal(f, g):
    r = max(f[0], g[0])
    return dense_refine(f, r) == dense_refine(g, r)


def dense_l1(step):
    res, values = step
    return sum((abs(v) for v in values), F(0)) * F(1, 2**res)


# mostly zero cells, so sparse maps, coarsenings and equal refinements
# all occur
cell_values = st.one_of(
    st.just(F(0)), st.just(F(0)), st.sampled_from((F(1), F(-1), F(1, 2))),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
dense_steps = st.integers(0, 4).flatmap(lambda r: st.tuples(
    st.just(r),
    st.lists(cell_values, min_size=2**r, max_size=2**r).map(tuple)))
step_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def assert_matches_dense(step, dense):
    assert (step.resolution, step.values) == dense
    assert l1_norm(step) == dense_l1(dense)
    canonical = step.canonical()
    assert (canonical.resolution, canonical.values) == dense_canonical(dense)
    assert hash(step) == hash(dense_canonical(dense))


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.tuples(step_coefficients, dense_steps), max_size=4),
       st.booleans())
def test_sparse_combination_matches_the_dense_reference(terms, cancel):
    if cancel:
        # every term meets its negative: the sum is the zero step
        terms = terms + [(-a, f) for a, f in terms]
    got = step_linear_combination([(a, DyadicStep(*f)) for a, f in terms])
    want = dense_combination(terms)
    assert_matches_dense(got, want)
    if cancel:
        assert got == constant_step(0) and l1_norm(got) == 0
    for a, f in terms:
        assert (DyadicStep(*f) == got) == dense_equal(f, want)


@settings(max_examples=200, derandomize=True)
@given(dense_steps, st.integers(0, 3), st.integers(0, 2**7 - 1),
       cell_values)
def test_sparse_refine_and_equality_match_the_dense_reference(
        f, extra, cell, value):
    step = DyadicStep(*f)
    assert_matches_dense(step, f)
    r = f[0] + extra
    refined = dense_refine(f, r)
    assert_matches_dense(step.refine(r), (r, refined))
    assert step == step.refine(r) and hash(step) == hash(step.refine(r))
    # one cell of the refinement changed, maybe to the value it had
    cell %= 2**r
    g = (r, refined[:cell] + (value,) + refined[cell + 1:])
    assert (step == DyadicStep(*g)) == dense_equal(f, g)
    assert (DyadicStep(*g) == step) == dense_equal(f, g)
    if dense_equal(f, g):
        assert hash(step) == hash(DyadicStep(*g))


def test_sparse_zero_steps():
    zero = DyadicStep(3, (0,) * 8)
    assert zero == constant_step(0) == cell_indicator(5, 7, height=0)
    assert zero.canonical().resolution == 0
    assert l1_norm(zero) == 0 and hash(zero) == hash((0, (F(0),)))
    assert step_linear_combination([]) == zero
    assert step_linear_combination([]).values == (F(0),)


def test_l1_norm_is_the_plain_fraction_sum():
    rng = random.Random(2207)
    for r in range(9):
        for _ in range(5):
            values = [F(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12, 1024)))
                      if rng.random() < 0.6 else F(0) for _ in range(2**r)]
            want = sum((abs(v) for v in values), F(0)) / 2**r
            assert l1_norm(DyadicStep(r, tuple(values))) == want


def test_bush_check_at_k12_runs_in_under_two_cpu_seconds():
    start = time.process_time()
    assert bush_check(rademacher_bush(12), F(1, 2), 1).is_pass
    assert time.process_time() - start < 2


# ---------------------------------------------------------------------------
# refusal paths

@pytest.mark.parametrize("call, error", [
    (lambda: cell_indicator(2, 0), InvalidParameter),
    (lambda: level_difference(rademacher_bush(2), 0), InvalidParameter),
    (lambda: BushLevels(((constant_step(1),), (constant_step(1), 1))),
     ValidationError),
], ids=["cell-index-zero", "level-zero", "bush-entry-not-a-step"])
def test_malformed_step_input_is_refused(call, error):
    with pytest.raises(error):
        call()
