"""Exception taxonomy, and the Record base of the immutable value classes.

Every domain error raised by the library derives from BaireLabError, so
callers (and the CLI) can distinguish contract violations from genuine
bugs: BaireLabError maps to exit code 2, anything else to exit code 1.
"""

import functools
import operator
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
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
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


def rational(c, what="coefficients"):
    """c as a Fraction, the one reader of a caller's rational: a Fraction
    is returned as it is, and a bool or a non-finite float raises
    InvalidParameter instead of being coerced or failing bare."""
    if type(c) is Fraction:
        return c
    if isinstance(c, bool):
        raise InvalidParameter(f"{what} must be rational, got {c!r}")
    try:
        return Fraction(c)
    except (ValueError, OverflowError):
        raise InvalidParameter(f"{what} must be rational, got {c!r}") from None


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
