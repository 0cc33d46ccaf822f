import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import BasisKind, NormValue, basis_norm, deleted_first
from bairelab.bases import triangle_leq
from bairelab.errors import InvalidParameter

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
coeff_lists = st.lists(rationals, min_size=0, max_size=7)


def test_norm_examples():
    assert basis_norm(BasisKind.L1, [1, -2, 3]).power_base == 6
    nv = basis_norm(BasisKind.L2, [3, 4])
    assert nv.power_base == 25 and nv.inv_exp == 2
    assert nv.approx == pytest.approx(5.0)
    assert basis_norm(BasisKind.C0, [1, -2]).power_base == 2


def test_empty_combination_is_zero():
    for kind in BasisKind:
        assert basis_norm(kind, []).power_base == 0


def test_deleted_first_is_identity_on_symmetric_bases():
    for kind in BasisKind:
        assert deleted_first(kind) is kind


@settings(max_examples=150, derandomize=True)
@given(coeff_lists, st.sampled_from(list(BasisKind)))
def test_unconditionality(coeffs, kind):
    flipped = [-c if i % 2 else c for i, c in enumerate(coeffs)]
    assert basis_norm(kind, coeffs).power_base == basis_norm(kind, flipped).power_base


@settings(max_examples=150, derandomize=True)
@given(coeff_lists, st.sampled_from(list(BasisKind)), st.data())
def test_contractive_interval_projection(coeffs, kind, data):
    if not coeffs:
        return
    lo = data.draw(st.integers(0, len(coeffs) - 1))
    hi = data.draw(st.integers(lo, len(coeffs) - 1))
    zeroed = [
        Fraction(0) if lo <= i <= hi else c for i, c in enumerate(coeffs)
    ]
    assert basis_norm(kind, zeroed).compare(basis_norm(kind, coeffs)) <= 0


@settings(max_examples=200, derandomize=True)
@given(coeff_lists, coeff_lists, st.sampled_from(list(BasisKind)))
def test_triangle_by_cross_multiplication(xs, ys, kind):
    n = max(len(xs), len(ys))
    xs = xs + [Fraction(0)] * (n - len(xs))
    ys = ys + [Fraction(0)] * (n - len(ys))
    whole = basis_norm(kind, [a + b for a, b in zip(xs, ys)])
    assert triangle_leq(whole, basis_norm(kind, xs), basis_norm(kind, ys))


@settings(max_examples=150, derandomize=True)
@given(coeff_lists, rationals, st.sampled_from(list(BasisKind)))
def test_absolute_homogeneity(coeffs, q, kind):
    scaled = basis_norm(kind, [q * c for c in coeffs])
    assert scaled.power_base == basis_norm(kind, coeffs).scale(q).power_base


def test_norm_value_comparisons():
    three = NormValue.exact(3, 1)
    nine = NormValue.exact(9, 2)
    assert three.equals(nine)
    assert NormValue.exact(Fraction(25, 16), 2).equals(NormValue.exact(Fraction(5, 4), 1))
    assert three.at_least(3) and three.at_most(3)
    assert three.below(Fraction(7, 2)) and not three.below(3)
    approx = NormValue.approximate(3.0000000001)
    assert approx.compare(three) == 0  # inside the documented tolerance


def test_norm_value_rejects_bad_arguments():
    with pytest.raises(InvalidParameter):
        NormValue.exact(-1, 2)
    with pytest.raises(InvalidParameter):
        NormValue.exact(1, 0)
    with pytest.raises(InvalidParameter):
        NormValue.exact(1, Fraction(3, 2))
    with pytest.raises(InvalidParameter, match="binary64 range"):
        NormValue.exact(10**400, 1)
    for value in (math.inf, math.nan, Fraction(10**400)):
        with pytest.raises(InvalidParameter, match="binary64 range"):
            NormValue.approximate(value)
    assert NormValue.exact(Fraction(5, 3), Fraction(2)) == NormValue.exact(
        Fraction(5, 3), 2
    )


# ---------------------------------------------------------------------------
# refusal paths and plain branches

@pytest.mark.parametrize("call", [
    lambda: basis_norm("l2", [1]),
], ids=["basis-tag-not-a-kind"])
def test_malformed_basis_input_is_refused(call):
    with pytest.raises(InvalidParameter):
        call()


def test_approximate_scale_and_negative_thresholds():
    assert NormValue.approximate(1.5).scale(-2) == NormValue.approximate(3.0)
    nv = NormValue.exact(0, 2)
    assert nv.at_least(-1) and not nv.at_most(-1) and not nv.below(-1)
