"""errors.rational is the one reader of a caller's rational: every
library parameter that takes one refuses a bool, a NaN, an infinity, a
decimal exponent past 4300 and anything Fraction cannot read (None,
"1/0", a list) with InvalidParameter instead of coercing it or failing
bare.  errors.natural is the one reader of a caller's integer: every
integer parameter refuses a bool, a float, a string and None, and a
value outside its range, with InvalidParameter or its site's own
class.  BasisKind.of is the one check of a basis kind, and
errors.format_fraction the one writer of an exact number."""

import time
from fractions import Fraction as F

import pytest

from bairelab import (
    BaireContext,
    BaireVector,
    BasisKind,
    DyadicStep,
    LazyTree,
    NormValue,
    P_ZERO,
    TrialCoeffs,
    abs_obstruction_falsify,
    baire_norm,
    baire_norm_oracle,
    baire_norm_witness,
    baire_norm_zero,
    basis_norm,
    bs_obstruction_check,
    bush_check,
    cell_indicator,
    cesaro_mean,
    check_branch_isometry,
    check_incomparable_additivity,
    check_root_decomposition,
    constant_step,
    convex_block_min,
    delta,
    delta_antichain_family,
    derived_tree,
    exact_mode,
    full_kary,
    level_difference,
    linear_combination,
    make_tree,
    probe_wf,
    rademacher_bush,
    random_tree,
    restricted_at,
    spine,
    subtree_at,
    weak_null_probe,
)
from bairelab import serialize
from bairelab.baire import ExponentP
from bairelab.checkers import MAX_ABS_CANDIDATES
from bairelab.errors import (
    BadIndexList,
    InvalidParameter,
    KOutOfRange,
    WindowOutOfRange,
    format_fraction,
    natural,
    rational,
)
from bairelab.steps import MAX_RESOLUTION, step_linear_combination
from bairelab.trees import MAX_DEPTH, MAX_ENTRY, depth_bounded, zeros_branch

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
    "value", [True, float("nan"), float("inf"), None, "1/0", [1], "1e4301"],
    ids=["true", "nan", "inf", "none", "one-over-zero", "list",
         "huge-exponent"])
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


# ---------------------------------------------------------------------------
# integers

def _lazy_labelled(label):
    """A lazy tree whose root has the one child `label`."""
    return LazyTree(lambda node: (label,) if node == () else ())


# each integer parameter: (reader called with the value under test, a value
# outside its range, the class refusing a non-integer, the class refusing
# the out-of-range value); None where the parameter has no range
INTEGER_READERS = {
    "derived_tree-times": (lambda v: derived_tree(full_kary(2, 1), v), -1,
                           InvalidParameter, InvalidParameter),
    "subtree_at": (lambda v: subtree_at(full_kary(2, 1), v), -1,
                   InvalidParameter, InvalidParameter),
    "restricted_at": (lambda v: restricted_at(full_kary(2, 1), v),
                      MAX_ENTRY + 1, InvalidParameter, InvalidParameter),
    "full_kary-k": (lambda v: full_kary(v, 1), 0,
                    InvalidParameter, InvalidParameter),
    "full_kary-d": (lambda v: full_kary(2, v), -1,
                    InvalidParameter, InvalidParameter),
    "spine": (lambda v: spine(v), MAX_DEPTH + 1,
              InvalidParameter, InvalidParameter),
    "random_tree": (lambda v: random_tree(v, 0), -1,
                    InvalidParameter, InvalidParameter),
    "LazyTree-depth_budget": (lambda v: LazyTree(lambda node: (), v), -1,
                              InvalidParameter, InvalidParameter),
    "probe_wf-depth": (lambda v: probe_wf(zeros_branch(), v), -1,
                       InvalidParameter, InvalidParameter),
    "probe_wf-child-label": (lambda v: probe_wf(_lazy_labelled(v), 2), -1,
                             InvalidParameter, InvalidParameter),
    "depth_bounded": (lambda v: probe_wf(depth_bounded(v), 2), -3,
                      InvalidParameter, InvalidParameter),
    "DyadicStep-resolution": (lambda v: DyadicStep(v, (1,)), -1,
                              InvalidParameter, InvalidParameter),
    "constant_step-resolution": (lambda v: constant_step(1, v),
                                 MAX_RESOLUTION + 1,
                                 InvalidParameter, InvalidParameter),
    "refine": (lambda v: constant_step(1).refine(v), MAX_RESOLUTION + 1,
               InvalidParameter, InvalidParameter),
    "cell_indicator-k": (lambda v: cell_indicator(v, 1), -1,
                         InvalidParameter, InvalidParameter),
    "cell_indicator-l": (lambda v: cell_indicator(1, v), 3,
                         InvalidParameter, InvalidParameter),
    "rademacher_bush": (lambda v: rademacher_bush(v), 17,
                        KOutOfRange, KOutOfRange),
    "level_difference": (lambda v: level_difference(rademacher_bush(2), v),
                         3, InvalidParameter, InvalidParameter),
    "delta_antichain_family-n": (
        lambda v: delta_antichain_family(v, BasisKind.L1, 1), -1,
        InvalidParameter, InvalidParameter),
    "delta_antichain_family-labels": (
        lambda v: delta_antichain_family(2, BasisKind.L1, 1, [0, v]), -1,
        InvalidParameter, InvalidParameter),
    "cesaro_mean": (lambda v: cesaro_mean(_family(), [0, v]), 2,
                    BadIndexList, BadIndexList),
    "convex_block_min-start": (lambda v: convex_block_min(_family(), (v, 0)),
                               -1, InvalidParameter, WindowOutOfRange),
    "convex_block_min-length": (
        lambda v: convex_block_min(_family(), (0, v)), 2,
        InvalidParameter, WindowOutOfRange),
    "TrialCoeffs-random_trials": (lambda v: TrialCoeffs(random_trials=v),
                                  MAX_ABS_CANDIDATES + 1,
                                  InvalidParameter, InvalidParameter),
    "TrialCoeffs-seed": (lambda v: TrialCoeffs(seed=v), None,
                         InvalidParameter, None),
}


def _refused_fast(reader, value, error, match=None):
    start = time.process_time()
    with pytest.raises(error, match=match):
        reader(value)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("value", [True, 2.5, "3", None],
                         ids=["true", "float", "string", "none"])
@pytest.mark.parametrize("site", list(INTEGER_READERS.values()),
                         ids=list(INTEGER_READERS))
def test_every_integer_parameter_refuses_what_is_not_an_integer(
        site, value):
    """A bool, a float, a string and None each raise the site's class
    from every integer reader, within 0.5 s of CPU."""
    reader, _, error, _ = site
    _refused_fast(reader, value, error, match="must be an integer")


@pytest.mark.parametrize("site", [s for s in INTEGER_READERS.values()
                                  if s[1] is not None],
                         ids=[k for k, s in INTEGER_READERS.items()
                              if s[1] is not None])
def test_every_integer_parameter_refuses_a_value_out_of_its_range(site):
    reader, outside, _, error = site
    _refused_fast(reader, outside, error)


def test_natural_returns_an_integer_as_it_is():
    assert natural(7, "n") == 7 and natural(-7, "n", lo=None) == -7
    with pytest.raises(InvalidParameter, match=r"^n 8 outside \[0, 7\]$"):
        natural(8, "n", 0, 7)
    with pytest.raises(InvalidParameter, match=r"^n -1 outside \[0, inf\)$"):
        natural(-1, "n")


@pytest.mark.parametrize("window", [5, None, (0,), (0, 1, 2)],
                         ids=["int", "none", "one-entry", "three-entries"])
def test_convex_block_min_refuses_a_window_that_is_not_a_pair(window):
    _refused_fast(lambda w: convex_block_min(_family(), w), window,
                  WindowOutOfRange,
                  match=r"^window .* is not a \(start, length\) pair$")


# ---------------------------------------------------------------------------
# basis kinds

_CHAIN = BaireVector(spine(2), {(0,): 3, (0, 0): 4})
_FORK = make_tree([(), (0,), (1,)])

# every evaluator and identity, and each constructor that takes a kind
KIND_READERS = {
    "baire_norm": lambda k: baire_norm(_CHAIN, k, 2),
    "baire_norm_witness": lambda k: baire_norm_witness(_CHAIN, k, 2),
    "baire_norm_zero": lambda k: baire_norm_zero(_CHAIN, k),
    "baire_norm_oracle": lambda k: baire_norm_oracle(_CHAIN, k, 2),
    "check_incomparable_additivity": lambda k: check_incomparable_additivity(
        [delta(_FORK, (0,)), delta(_FORK, (1,))], [1, 1], k, 2),
    "check_branch_isometry": lambda k: check_branch_isometry(_CHAIN, k, 2),
    "check_root_decomposition":
        lambda k: check_root_decomposition(_CHAIN, k, 2),
    "exact_mode": lambda k: exact_mode(k, ExponentP.of(2)),
    "basis_norm": lambda k: basis_norm(k, [3, 4]),
    "BaireContext": lambda k: BaireContext(k, 1),
    "delta_antichain_family": lambda k: delta_antichain_family(2, k, 1),
}


@pytest.mark.parametrize("kind", ["l2", None, 7],
                         ids=["tag", "none", "int"])
@pytest.mark.parametrize("reader", list(KIND_READERS.values()),
                         ids=list(KIND_READERS))
def test_every_evaluator_refuses_what_is_not_a_basis_kind(reader, kind):
    """A tag string, None and an integer each raise InvalidParameter
    from every evaluator, identity and context; none is read as l1."""
    with pytest.raises(InvalidParameter,
                       match=f"^unknown basis kind {kind!r}$"):
        reader(kind)


def test_basis_kind_of_returns_a_member_as_it_is():
    for kind in BasisKind:
        assert BasisKind.of(kind) is kind
    assert baire_norm_oracle(_CHAIN, BasisKind.L2, 2) == NormValue.exact(25, 2)


# ---------------------------------------------------------------------------
# exponents

# every evaluator and identity, and whether it takes the single-segment
# p = 0: the oracle sums families, and the two identities hold for p >= 1
EXPONENT_READERS = {
    "baire_norm": (baire_norm, True),
    "baire_norm_witness": (baire_norm_witness, True),
    "BaireContext.norm": (lambda x, k, p: BaireContext(k, p).norm(x), True),
    "check_branch_isometry": (check_branch_isometry, True),
    "baire_norm_oracle": (baire_norm_oracle, False),
    "check_incomparable_additivity": (
        lambda x, k, p: check_incomparable_additivity([x], [2], k, p), False),
    "check_root_decomposition": (check_root_decomposition, False),
}


@pytest.mark.parametrize("p", [P_ZERO, 1, 2, F(3, 2)],
                         ids=["zero", "1", "2", "3/2"])
@pytest.mark.parametrize("x", [_CHAIN, BaireVector(_CHAIN.tree, {})],
                         ids=["vector", "zero-vector"])
@pytest.mark.parametrize("kind", list(BasisKind), ids=lambda k: k.value)
@pytest.mark.parametrize("call, takes_zero", list(EXPONENT_READERS.values()),
                         ids=list(EXPONENT_READERS))
def test_every_evaluator_takes_the_exponents_it_states(call, takes_zero, kind,
                                                       x, p):
    if p is P_ZERO and not takes_zero:
        with pytest.raises(InvalidParameter, match="p >= 1"):
            call(x, kind, p)
    else:
        assert call(x, kind, p) is not None


# ---------------------------------------------------------------------------
# the writer of exact numbers

def test_format_fraction_is_the_one_writer_and_writes_what_str_does():
    assert serialize.format_fraction is format_fraction
    for q in (F(0), F(-3), F(3, 4), F(-7, 2), F(10**4299), F(1, 10**4299)):
        assert format_fraction(q) == str(q)
    assert format_fraction(2) == "2" and format_fraction("0.5") == "1/2"


# each library text that prints a rational, given a value past the
# integer-string digit limit
WRITERS = {
    "format_fraction": lambda: format_fraction(F(1, 10**4300)),
    "bs_obstruction_check":
        lambda: bs_obstruction_check(_family(), "1e-4300"),
    "weak_null_probe": lambda: weak_null_probe(_family(), "1e-4300"),
    "bush_check-delta": lambda: bush_check(rademacher_bush(1), "1e-4300", 1),
    "bush_check-bound":
        lambda: bush_check(rademacher_bush(1), F(1, 2), "1e4300"),
    "TrialCoeffs.describe": lambda: abs_obstruction_falsify(
        _family(), F(1, 2), TrialCoeffs(grid=("1e-4300", 1))),
    "BaireContext.describe":
        lambda: BaireContext(BasisKind.L1, "1e4300").describe(),
}


@pytest.mark.parametrize("write", list(WRITERS.values()), ids=list(WRITERS))
def test_a_rational_past_the_digit_limit_is_refused_where_it_is_written(
        write):
    start = time.process_time()
    with pytest.raises(InvalidParameter, match="4300 digits"):
        write()
    assert time.process_time() - start < 0.5
