"""Dyadic step functions on [0,1) with exact L1 norm, and the canonical
dyadic bush construction together with its validator.

A step function of resolution k is constant on each of the 2**k cells
[(i)2^-k, (i+1)2^-k).  Refining a function leaves every functional below
unchanged, so equality is semantic: two steps are equal when they agree
at a common refinement.

A step keeps only its non-zero cells, as a map {cell index: value}, and
every operation below is index arithmetic on those maps: its cost
follows the non-zero cells at the common resolution, not the 2**k cells.
"""

import math
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    InvalidParameter,
    KOutOfRange,
    Record,
    ValidationError,
    format_fraction,
    natural,
    rational,
)
from .verdicts import Verdict

MAX_RESOLUTION = 20
_ZERO = Fraction(0)


def _check_resolution(resolution, count=None):
    """A resolution in range, with 2**resolution cell values if counted."""
    natural(resolution, "resolution", 0, MAX_RESOLUTION)
    if count is not None and count != 2**resolution:
        raise ValidationError(
            f"resolution {resolution} requires {2**resolution} "
            f"values, got {count}"
        )


class _CellMap(Record):
    """The slot holding a step's non-zero cells, outside its fields."""

    __slots__ = ("_cells",)


class DyadicStep(_CellMap):
    """A step function: `values` is the dense tuple of its 2**resolution
    cell values, built on its first read and kept in its slot."""

    __slots__ = ("resolution", "values")

    def __init__(self, resolution: int, values: tuple):
        values = tuple(values)
        _check_resolution(resolution, len(values))
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "_cells", {
            i: c for i, v in enumerate(values)
            if (c := rational(v, "step values"))})

    @classmethod
    def _of(cls, resolution, cells):
        """The step with the given map of non-zero Fraction cells."""
        step = object.__new__(cls)
        object.__setattr__(step, "resolution", resolution)
        object.__setattr__(step, "_cells", cells)
        return step

    def __getattr__(self, name):
        if name != "values":
            raise AttributeError(
                f"{type(self).__qualname__!r} object has no attribute {name!r}"
            )
        values = [_ZERO] * 2**self.resolution
        for i, v in self._cells.items():
            values[i] = v
        values = tuple(values)
        object.__setattr__(self, "values", values)
        return values

    def cells(self):
        """The non-zero cells, as a read-only map {cell index: value}."""
        return MappingProxyType(self._cells)

    def refine(self, resolution):
        _check_resolution(resolution)
        if resolution < self.resolution:
            raise InvalidParameter("cannot refine to a coarser resolution")
        shift = resolution - self.resolution
        return DyadicStep._of(resolution, {
            j: v for i, v in self._cells.items()
            for j in range(i << shift, (i + 1) << shift)})

    def canonical(self):
        """Coarsest representation of the same function."""
        cells = self._cells
        res = self.resolution
        while res > 0 and all(cells.get(i ^ 1) == v for i, v in cells.items()):
            cells = {i >> 1: v for i, v in cells.items() if not i & 1}
            res -= 1
        return DyadicStep._of(res, cells)

    def __eq__(self, other):
        if not isinstance(other, DyadicStep):
            return NotImplemented
        if self.resolution != other.resolution:
            self, other = self.canonical(), other.canonical()
        return (self.resolution == other.resolution
                and self._cells == other._cells)

    def __hash__(self):
        # the hash of the canonical fields, as a record's hash is of its
        # fields: only the coarsest form's dense tuple is built
        c = self.canonical()
        return hash((c.resolution, c.values))


def constant_step(c, resolution=0):
    _check_resolution(resolution)
    c = rational(c, "step values")
    return DyadicStep._of(
        resolution, dict.fromkeys(range(2**resolution), c) if c else {})


def cell_indicator(k, l, height=1):
    """height * 1 on the l-th dyadic cell of resolution k, l = 1..2**k."""
    _check_resolution(k)
    natural(l, "cell index", 1, 2**k)
    height = rational(height, "step values")
    return DyadicStep._of(k, {l - 1: height} if height else {})


def step_linear_combination(pairs):
    """Pointwise sum of a*f over the (a, f) pairs at the common
    refinement; the zero step when there are no pairs."""
    pairs = [(rational(a, "step coefficients"), f) for a, f in pairs]
    r = max((f.resolution for _, f in pairs), default=0)
    acc = {}
    for a, f in pairs:
        shift = r - f.resolution
        for i, v in f._cells.items():
            av = a * v
            for j in range(i << shift, (i + 1) << shift):
                acc[j] = acc[j] + av if j in acc else av
    return DyadicStep._of(r, {i: v for i, v in acc.items() if v})


def step_combine(a, f, b, g):
    """Pointwise a*f + b*g at the common refinement."""
    return step_linear_combination(((a, f), (b, g)))


def l1_norm(f):
    """Exact integral of |f| over [0,1): the cells' integer numerators
    summed over the lcm of their denominators."""
    cells = f._cells.values()
    d = math.lcm(*(v.denominator for v in cells))
    total = sum(abs(v.numerator) * (d // v.denominator) for v in cells)
    return Fraction(total, d << f.resolution)


class BushLevels(Record):
    """A finite stack of dyadic-indexed levels: level k holds 2**k steps."""

    __slots__ = ("levels",)

    def __init__(self, levels: tuple):
        lv = tuple(tuple(level) for level in levels)
        if len(lv) < 2:
            raise ValidationError("a bush needs levels 0..K with K >= 1")
        for k, level in enumerate(lv):
            if len(level) != 2**k:
                raise ValidationError(
                    f"level {k} must hold {2**k} entries, got {len(level)}"
                )
            for f in level:
                if not isinstance(f, DyadicStep):
                    raise ValidationError("bush entries must be DyadicStep")
        object.__setattr__(self, "levels", lv)

    @property
    def top_level(self):
        return len(self.levels) - 1

    def entry(self, k, l):
        """x_k^l with l = 1..2**k."""
        return self.levels[k][l - 1]


def rademacher_bush(K):
    """The canonical bush: x_k^l = 2**k on the l-th cell of resolution k.

    Midpoint exactness and unit L1 norm hold by construction; the level-k
    alternating difference has constant modulus 2**k.
    """
    natural(K, "K", 1, 16, KOutOfRange)
    levels = []
    for k in range(K + 1):
        height = Fraction(2**k)
        levels.append(
            tuple(cell_indicator(k, l, height) for l in range(1, 2**k + 1))
        )
    return BushLevels(tuple(levels))


def level_difference(bush, k):
    """sum over l of x_k^{2l-1} - x_k^{2l} at level k >= 1."""
    natural(k, "level", 1, bush.top_level)
    return step_linear_combination(
        (1 if l % 2 else -1, f) for l, f in enumerate(bush.levels[k], 1)
    )


def bush_check(bush, delta, bound):
    """Validate the three defining conditions exactly.

    Checked in order: the midpoint identity at every (k, l), then the
    strict level-difference lower bound > 2**k * delta at every k >= 1,
    then the norm bound on every entry.  The verdict carries the first
    failing condition and its location.
    """
    delta = rational(delta, "delta", positive=True)
    bound = rational(bound, "bound", positive=True)
    top = bush.top_level
    for k in range(1, top + 1):
        for l in range(1, 2 ** (k - 1) + 1):
            mid = step_combine(
                Fraction(1, 2), bush.entry(k, 2 * l - 1),
                Fraction(1, 2), bush.entry(k, 2 * l),
            )
            if mid != bush.entry(k - 1, l):
                return Verdict.violated(condition="midpoint", k=k, l=l)
    for k in range(1, top + 1):
        quantity = l1_norm(level_difference(bush, k))
        threshold = 2**k * delta
        if not quantity > threshold:
            return Verdict.violated(
                condition="difference-norm", k=k,
                quantity=quantity, threshold=threshold,
            )
    for k in range(top + 1):
        for l in range(1, 2**k + 1):
            norm = l1_norm(bush.entry(k, l))
            if norm > bound:
                return Verdict.violated(
                    condition="bound", k=k, l=l, norm=norm,
                )
    return Verdict.passed(
        tested=f"levels 0..{top}: midpoint identity, strict level-difference "
               f"bound at delta={format_fraction(delta)}, norm bound "
               f"{format_fraction(bound)}"
    )
