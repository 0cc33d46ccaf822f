"""Ingredient bases and exact evaluation of finite-combination norms.

Three 1-unconditional, 1-symmetric normalized bases are supported: the
standard bases of the summable, square-summable and null sequence spaces.
Norm results are carried as NormValue: either an exact nonnegative
rational `power_base` meaning value = power_base ** (1/inv_exp) for a
positive integer `inv_exp`, or a binary64 approximation.  Square-summable
values stay squared end to end; roots are taken only when a float is
demanded.
"""

import enum
import math
from fractions import Fraction

from .errors import (
    InvalidParameter,
    Record,
    int_text,
    rational,
    within_binary64,
)

#: Tolerances of every comparison involving an approximate value: two
#: floats agree when they are within APPROX_REL_TOL of the larger
#: magnitude, or within APPROX_TOL absolutely near zero.
APPROX_TOL = 1e-9
APPROX_REL_TOL = 1e-9


def approx_equal(a, b):
    """Scale-aware float equality with math.isclose semantics."""
    return math.isclose(a, b, rel_tol=APPROX_REL_TOL, abs_tol=APPROX_TOL)


class BasisKind(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    C0 = "c0"

    @classmethod
    def of(cls, kind):
        """kind itself; anything not a member raises InvalidParameter."""
        if not isinstance(kind, cls):
            raise InvalidParameter(f"unknown basis kind {kind!r}")
        return kind

    @classmethod
    def from_tag(cls, tag):
        for kind in cls:
            if kind.value == tag:
                return kind
        raise InvalidParameter(f"unknown basis tag {tag!r}")


def deleted_first(kind):
    """The same basis with its first term deleted.

    All three supported bases are symmetric, so deletion is an isometry
    and the tag is returned unchanged.
    """
    return kind


class NormValue(Record):
    __slots__ = ("power_base", "inv_exp", "approx")

    def __init__(self, power_base: Fraction | None, inv_exp: Fraction,
                 approx: float):
        object.__setattr__(self, "power_base", power_base)
        object.__setattr__(self, "inv_exp", inv_exp)
        object.__setattr__(self, "approx", approx)

    @classmethod
    @within_binary64
    def exact(cls, base, p):
        base = rational(base, "power base")
        p = rational(p, "inverse exponent")
        if base < 0:
            raise InvalidParameter("power base must be nonnegative")
        if p <= 0 or p.denominator != 1:
            raise InvalidParameter("inverse exponent must be a positive integer")
        return cls(base, p, float(base) ** (1 / float(p)))

    @classmethod
    @within_binary64
    def _of(cls, num, den, inv_exp):
        """exact(Fraction(num, den), inv_exp) for integers num >= 0 and
        den > 0 and a positive integer Fraction inv_exp, unchecked.  An
        integer true division is correctly rounded, so the float is
        exact()'s bit for bit, with no Fraction in between."""
        return cls(Fraction(num, den), inv_exp,
                   (num / den) ** (1 / inv_exp.numerator))

    @classmethod
    @within_binary64
    def approximate(cls, value):
        value = float(value)
        if not math.isfinite(value):  # a binary64 sum or square overflowed
            raise OverflowError(value)
        return cls(None, Fraction(1), value)

    @property
    def is_exact(self):
        return self.power_base is not None

    def compare(self, other):
        """Three-way comparison: exact when both sides admit it, else
        float comparison within approx_equal's tolerance."""
        if self.is_exact and other.is_exact:
            p, q = self.inv_exp.numerator, other.inv_exp.numerator
            lhs = self.power_base**q
            rhs = other.power_base**p
            return (lhs > rhs) - (lhs < rhs)
        if approx_equal(self.approx, other.approx):
            return 0
        return 1 if self.approx > other.approx else -1

    def equals(self, other):
        return self.compare(other) == 0

    @within_binary64
    def _cmp_scalar(self, q):
        """Three-way comparison against a rational threshold q; a value is
        above every q < 0.  Exact mode compares integers: a / b against
        (c / e) ** k, for power_base = a / b, q = c / e and k = inv_exp,
        as a * e ** k against c ** k * b."""
        q = rational(q, "threshold")
        if self.is_exact:
            c, e = q.as_integer_ratio()
            if c < 0:
                return 1
            a, b = self.power_base.as_integer_ratio()
            k = self.inv_exp.numerator
            lhs, rhs = a * e**k, c**k * b
            return (lhs > rhs) - (lhs < rhs)
        q = float(q)
        if approx_equal(self.approx, q):
            return 0
        return 1 if self.approx > q else -1

    def at_least(self, q):
        return self._cmp_scalar(q) >= 0

    def at_most(self, q):
        return self._cmp_scalar(q) <= 0

    def below(self, q):
        return self._cmp_scalar(q) < 0

    def scale(self, c):
        """The norm of the |c|-scaled vector: absolute homogeneity."""
        c = rational(c, "scale")
        if self.is_exact:
            base = self.power_base * abs(c) ** self.inv_exp.numerator
            return NormValue.exact(base, self.inv_exp)
        return NormValue.approximate(self.approx * abs(float(c)))

    def __repr__(self):
        if self.is_exact:
            b = self.power_base
            base = int_text(b.numerator) + (
                "" if b.denominator == 1 else f"/{int_text(b.denominator)}")
            return f"NormValue({base}^(1/{self.inv_exp}))"
        return f"NormValue(~{self.approx!r})"


def basis_norm(kind, coeffs):
    """Exact norm of a finite coefficient combination in the given basis."""
    kind = BasisKind.of(kind)
    cs = [rational(c) for c in coeffs]
    if kind is BasisKind.L1:
        return NormValue.exact(sum((abs(c) for c in cs), Fraction(0)), 1)
    if kind is BasisKind.L2:
        return NormValue.exact(sum((c * c for c in cs), Fraction(0)), 2)
    return NormValue.exact(max((abs(c) for c in cs), default=Fraction(0)), 1)


def triangle_leq(whole, part1, part2):
    """Check ||x+y|| <= ||x|| + ||y|| given the three norm values.

    Exact mode requires a shared integer inverse exponent in {1, 2};
    for 2 the square-root-free route is A <= B + C + 2*sqrt(B*C), decided
    by one cross-multiplied squaring.  Falls back to floats, where a sum
    the whole exceeds only within approx_equal's tolerance still passes.
    """
    if (
        whole.is_exact
        and part1.is_exact
        and part2.is_exact
        and whole.inv_exp == part1.inv_exp == part2.inv_exp
    ):
        p = whole.inv_exp.numerator
        a, b, c = whole.power_base, part1.power_base, part2.power_base
        if p == 1:
            return a <= b + c
        if p == 2:
            gap = a - b - c
            if gap <= 0:
                return True
            return gap * gap <= 4 * b * c
    bound = part1.approx + part2.approx
    return whole.approx <= bound or approx_equal(whole.approx, bound)
