"""errors.rational is the one reader of a caller's rational: every
library parameter that takes one refuses a bool, a NaN, an infinity and
anything Fraction cannot read (None, "1/0", a list) with
InvalidParameter instead of coercing it or failing bare."""

from fractions import Fraction as F

import pytest

from bairelab import (
    BaireVector,
    BasisKind,
    DyadicStep,
    NormValue,
    TrialCoeffs,
    abs_obstruction_falsify,
    basis_norm,
    bs_obstruction_check,
    bush_check,
    cell_indicator,
    constant_step,
    delta,
    delta_antichain_family,
    linear_combination,
    make_tree,
    rademacher_bush,
    weak_null_probe,
)
from bairelab.errors import InvalidParameter, rational
from bairelab.steps import step_linear_combination

_TREE = make_tree([(), (0,)])


def _family():
    return delta_antichain_family(2, BasisKind.L1, 1)


# each reader, called with the value under test in one parameter
READERS = {
    "NormValue.exact-base": lambda v: NormValue.exact(v, 1),
    "NormValue.exact-exponent": lambda v: NormValue.exact(1, v),
    "NormValue.at_least": lambda v: NormValue.exact(1, 1).at_least(v),
    "NormValue.at_most": lambda v: NormValue.exact(1, 1).at_most(v),
    "NormValue.below": lambda v: NormValue.approximate(1.5).below(v),
    "NormValue.scale": lambda v: NormValue.exact(1, 1).scale(v),
    "basis_norm": lambda v: basis_norm(BasisKind.L1, [1, v]),
    "bush_check-delta": lambda v: bush_check(rademacher_bush(1), v, 1),
    "bush_check-bound": lambda v: bush_check(rademacher_bush(1), F(1, 2), v),
    "bs_obstruction_check": lambda v: bs_obstruction_check(_family(), v),
    "abs_obstruction_falsify":
        lambda v: abs_obstruction_falsify(_family(), v),
    "weak_null_probe": lambda v: weak_null_probe(_family(), v),
    "TrialCoeffs.vectors": lambda v: TrialCoeffs(grid=(1, v)).vectors(2),
    "TrialCoeffs.count": lambda v: TrialCoeffs(grid=(1, v)).count(2),
    "DyadicStep": lambda v: DyadicStep(1, (1, v)),
    "constant_step": lambda v: constant_step(v),
    "cell_indicator": lambda v: cell_indicator(1, 1, v),
    "step_linear_combination":
        lambda v: step_linear_combination([(v, constant_step(1))]),
    "linear_combination":
        lambda v: linear_combination([(v, delta(_TREE, (0,)))]),
    "BaireVector": lambda v: BaireVector(_TREE, {(0,): v}),
}


@pytest.mark.parametrize(
    "value", [True, float("nan"), float("inf"), None, "1/0", [1]],
    ids=["true", "nan", "inf", "none", "one-over-zero", "list"])
@pytest.mark.parametrize("reader", list(READERS.values()), ids=list(READERS))
def test_every_rational_parameter_refuses_what_is_not_a_rational(
        reader, value):
    """A bool, a non-finite float, None, a zero-denominator string and a
    list each raise InvalidParameter from every reader."""
    with pytest.raises(InvalidParameter, match="must be rational"):
        reader(value)


def test_rational_returns_a_fraction_as_it_is():
    q = F(3, 4)
    assert rational(q) is q
    assert rational(0.5) == F(1, 2) and rational("2/3") == F(2, 3)
