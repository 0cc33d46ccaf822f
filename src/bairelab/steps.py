"""Dyadic step functions on [0,1) with exact L1 norm, and the canonical
dyadic bush construction together with its validator.

A step function of resolution k is constant on each of the 2**k cells
[(i)2^-k, (i+1)2^-k).  Refining a function leaves every functional below
unchanged, so equality is semantic: two steps are equal when they agree
at a common refinement.
"""

from fractions import Fraction

from .errors import InvalidParameter, KOutOfRange, Record, ValidationError
from .verdicts import Verdict

MAX_RESOLUTION = 20


class DyadicStep(Record):
    __slots__ = ("resolution", "values")

    def __init__(self, resolution: int, values: tuple):
        if not (0 <= resolution <= MAX_RESOLUTION):
            raise InvalidParameter(
                f"resolution must lie in [0, {MAX_RESOLUTION}]"
            )
        vals = tuple(
            v if type(v) is Fraction else Fraction(v) for v in values
        )
        if len(vals) != 2**resolution:
            raise ValidationError(
                f"resolution {resolution} requires {2**resolution} "
                f"values, got {len(vals)}"
            )
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "values", vals)

    def refine(self, resolution):
        if resolution < self.resolution:
            raise InvalidParameter("cannot refine to a coarser resolution")
        times = 2 ** (resolution - self.resolution)
        return DyadicStep(
            resolution, tuple(v for v in self.values for _ in range(times))
        )

    def canonical(self):
        """Coarsest representation of the same function."""
        values = self.values
        res = self.resolution
        while res > 0 and all(
            values[2 * i] == values[2 * i + 1] for i in range(len(values) // 2)
        ):
            values = values[::2]
            res -= 1
        return DyadicStep(res, values)

    def __eq__(self, other):
        if not isinstance(other, DyadicStep):
            return NotImplemented
        if self.resolution == other.resolution:
            return self.values == other.values
        r = max(self.resolution, other.resolution)
        return self.refine(r).values == other.refine(r).values

    def __hash__(self):
        c = self.canonical()
        return hash((c.resolution, c.values))


def constant_step(c, resolution=0):
    return DyadicStep(resolution, (Fraction(c),) * 2**resolution)


def cell_indicator(k, l, height=1):
    """height * 1 on the l-th dyadic cell of resolution k, l = 1..2**k."""
    if not (1 <= l <= 2**k):
        raise InvalidParameter(f"cell index {l} out of range for resolution {k}")
    values = [Fraction(0)] * 2**k
    values[l - 1] = Fraction(height)
    return DyadicStep(k, tuple(values))


def step_linear_combination(pairs):
    """Pointwise sum of a*f over the (a, f) pairs at the common
    refinement; the zero step when there are no pairs."""
    pairs = [(Fraction(a), f) for a, f in pairs]
    r = max((f.resolution for _, f in pairs), default=0)
    acc = [Fraction(0)] * 2**r
    for a, f in pairs:
        acc = [c + a * v for c, v in zip(acc, f.refine(r).values)]
    return DyadicStep(r, tuple(acc))


def step_combine(a, f, b, g):
    """Pointwise a*f + b*g at the common refinement."""
    return step_linear_combination(((a, f), (b, g)))


def l1_norm(f):
    """Exact integral of |f| over [0,1)."""
    width = Fraction(1, 2**f.resolution)
    return sum((abs(v) for v in f.values), Fraction(0)) * width


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
    if not (1 <= K <= 16):
        raise KOutOfRange(f"K must lie in [1, 16], got {K}")
    levels = []
    for k in range(K + 1):
        levels.append(
            tuple(cell_indicator(k, l, height=2**k) for l in range(1, 2**k + 1))
        )
    return BushLevels(tuple(levels))


def level_difference(bush, k):
    """sum over l of x_k^{2l-1} - x_k^{2l} at level k >= 1."""
    if not (1 <= k <= bush.top_level):
        raise InvalidParameter(f"level {k} out of range")
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
    delta = Fraction(delta)
    bound = Fraction(bound)
    if delta <= 0:
        raise InvalidParameter("delta must be positive")
    if bound <= 0:
        raise InvalidParameter("bound must be positive")
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
               f"bound at delta={delta}, norm bound {bound}"
    )
