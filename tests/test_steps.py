import hashlib
import random
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
