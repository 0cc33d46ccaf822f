"""Exception taxonomy, and the Record base of the immutable value classes.

Every domain error raised by the library derives from BaireLabError, so
callers (and the CLI) can distinguish contract violations from genuine
bugs: BaireLabError maps to exit code 2, anything else to exit code 1.
"""

import functools
import math
import operator
import re
import sys
from fractions import Fraction


class Record:
    """Base of the immutable value classes.

    A subclass names its fields in __slots__ and sets them in __init__
    through object.__setattr__.  Its instances then compare, hash and
    print by those fields, in that order, as a frozen dataclass's do, and
    refuse assignment and deletion with AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = operator.attrgetter(*cls.__slots__)
        cls._fields = get if len(cls.__slots__) > 1 else staticmethod(
            lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={safe_repr(getattr(self, name))}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


class BaireLabError(Exception):
    """Base class for all contract and validation errors."""


class PrefixClosureViolation(BaireLabError):
    def __init__(self, node, missing_prefix):
        self.node = tuple(node)
        self.missing_prefix = tuple(missing_prefix)
        super().__init__(
            f"node {self.node} requires prefix {self.missing_prefix}, which is absent"
        )


class InvalidParameter(BaireLabError):
    pass


#: Largest decimal exponent magnitude a rational string may carry.
#: Fraction expands the exponent in full ("1e10000000" costs seconds), so
#: the bound is the 4300-digit cap Python puts on integer strings.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def exponent_too_large(text):
    """True iff the string `text` ends in a decimal exponent beyond
    MAX_DECIMAL_EXPONENT in magnitude."""
    exp = _EXPONENT.search(text)
    digits = exp.group(1).replace("_", "").lstrip("0") if exp else ""
    return (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
            or int(digits or 0) > MAX_DECIMAL_EXPONENT)


def rational(c, what="coefficients", positive=False):
    """c as a Fraction, the one reader of a caller's rational: a Fraction
    is returned as it is, and a bool, a non-finite float, a string whose
    decimal exponent is too large or anything Fraction cannot read raises
    InvalidParameter instead of being coerced or failing bare; so does a
    value that is not above 0 when `positive`."""
    if type(c) is not Fraction:
        if isinstance(c, bool) or isinstance(c, str) and exponent_too_large(c):
            raise InvalidParameter(f"{what} must be rational, got {c!r}")
        try:
            c = Fraction(c)
        except (ValueError, OverflowError, TypeError, ZeroDivisionError):
            raise InvalidParameter(
                f"{what} must be rational, got {c!r}") from None
    if positive and c <= 0:
        raise InvalidParameter(f"{what} must be positive")
    return c


def format_fraction(q, d=None):
    """The one writer of an exact number, q or the integers' ratio q / d
    (d > 0): "p" for an integer, else "p/q", the text str(Fraction) gives.
    A numerator or denominator past Python's integer-string digit limit
    raises InvalidParameter, not ValueError."""
    if d is None:
        if type(q) is not Fraction:
            q = Fraction(q)
        q, d = q.numerator, q.denominator
    else:
        g = math.gcd(q, d)
        q, d = q // g, d // g
    try:
        return str(q) if d == 1 else f"{q}/{d}"
    except ValueError:
        raise InvalidParameter(
            "a rational past the integer-string limit of "
            f"{sys.get_int_max_str_digits()} digits cannot be written"
        ) from None


def int_text(n):
    """str(n), or its sign and bit length past Python's integer-string
    digit limit: a repr names such a number's size rather than raise."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


def safe_repr(v):
    """repr(v), with every int and Fraction in it, through tuples, lists
    and dicts, written by int_text."""
    t = type(v)
    if t is int:
        return int_text(v)
    if t is Fraction:
        return f"Fraction({int_text(v.numerator)}, {int_text(v.denominator)})"
    if t is dict:
        return "{" + ", ".join(f"{safe_repr(k)}: {safe_repr(x)}"
                               for k, x in v.items()) + "}"
    if t is list:
        return f"[{', '.join(map(safe_repr, v))}]"
    if t is tuple:
        inner = ", ".join(map(safe_repr, v))
        return f"({inner},)" if len(v) == 1 else f"({inner})"
    return repr(v)


def natural(n, what, lo=0, hi=None, error=InvalidParameter):
    """n as it is, the one reader of a caller's integer: a bool, a float,
    a string, None or anything else that is not an int raises `error`,
    and so does, unless lo is None, a value outside [lo, hi] (no upper
    bound when hi is None)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise error(f"{what} must be an integer, got {n!r}")
    if lo is not None and not (lo <= n and (hi is None or n <= hi)):
        bounds = f"[{lo}, inf)" if hi is None else f"[{lo}, {hi}]"
        raise error(f"{what} {n} outside {bounds}")
    return n


def within_binary64(func):
    """`func`, raising InvalidParameter where a float view it forms
    overflows binary64 instead of a bare OverflowError."""

    @functools.wraps(func)
    def checked(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except OverflowError:
            raise InvalidParameter(
                "a float view leaves the binary64 range "
                f"(magnitude at most {sys.float_info.max!r})"
            ) from None

    return checked


class BudgetExceeded(BaireLabError):
    pass


class TreeMismatch(BaireLabError):
    pass


class InvalidSegment(BaireLabError):
    pass


class TooLargeForOracle(BaireLabError):
    pass


class SupportsNotIncomparable(BaireLabError):
    def __init__(self, i, j, witness):
        self.i = i
        self.j = j
        self.witness = witness
        super().__init__(
            f"supports of vectors {i} and {j} share the comparable pair {witness}"
        )


class SupportNotChain(BaireLabError):
    pass


class NonzeroRootCoefficient(BaireLabError):
    pass


class BadIndexList(BaireLabError):
    pass


class NotInUnitBall(BaireLabError):
    def __init__(self, index, norm=None):
        self.index = index
        self.norm = norm
        super().__init__(f"vector {index} lies outside the unit ball")


class FamilyTooLarge(BaireLabError):
    pass


class FamilyTooSmall(BaireLabError):
    pass


class WindowOutOfRange(BaireLabError):
    pass


class FunctionalSetTooLarge(BaireLabError):
    pass


class KOutOfRange(BaireLabError):
    pass


class ParseError(BaireLabError):
    def __init__(self, path, location, message):
        self.path = str(path)
        self.location = str(location)
        super().__init__(f"{path}: {location}: {message}")


class ValidationError(BaireLabError):
    pass
