"""Two-phase simplex over exact rationals, fraction-free, resumed by the
dual simplex under the dual Bland rule when a `Tableau` takes a row.

Minimizes c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.  Bland's
rule is used for both the entering and the leaving choice, which rules
out cycling.  Each tableau row, the reduced-cost row of the running phase
included, is a list of Python ints: a positive multiple of its rational
row, divided by the gcd of its entries after every update.  A constraint
row's multiple is its basic column's entry, which stays positive.  The
pivoting choices are then integer tests: a negative reduced-cost entry,
and ratios compared by cross-multiplication.  The optimal value and the
solution become `Fraction`s only when read.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import BaireLabError, rational


class LPInfeasible(BaireLabError):
    pass


class LPUnbounded(BaireLabError):
    pass


def _integers(row):
    """A positive integer multiple of a list of rationals."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _eliminate(row, prow, col):
    """Clears `row[col]` with `prow`, whose entry at `col` is positive."""
    q = row[col]
    if not q:
        return row
    p = prow[col]
    new = [p * a - q * b for a, b in zip(row, prow)]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def _pivot(rows, basis, row, col):
    """Makes `col` basic in `row` and clears it from every other row, the
    reduced-cost row included when `rows` ends with one."""
    prow = rows[row]
    if prow[col] < 0:
        prow = rows[row] = [-v for v in prow]
    for i, r in enumerate(rows):
        if i != row:
            rows[i] = _eliminate(r, prow, col)
    basis[row] = col


def _reduce(row, rows, basis):
    """`row` (ints) with every basic column cleared: for a cost row and a
    right-hand side 0, its reduced-cost row."""
    for r, b in zip(rows, basis):
        row = _eliminate(row, r, b)
    return row


def _run(rows, basis, allowed):
    """Bland-rule simplex loop on the reduced-cost row `rows[-1]`."""
    while True:
        z = rows[-1]
        entering = next((j for j in allowed if z[j] < 0), None)
        if entering is None:
            return
        leaving = -1
        for i, r in enumerate(rows[:-1]):
            a = r[entering]
            # least ratio r[-1] / a by cross-multiplication, ties to the
            # smallest basic index
            if a > 0 and (leaving < 0 or (r[-1] * best_a, basis[i])
                          < (best_b * a, basis[leaving])):
                leaving, best_b, best_a = i, r[-1], a
        if leaving < 0:
            raise LPUnbounded("objective unbounded below")
        _pivot(rows, basis, leaving, entering)


class Tableau:
    """An LP solved to optimality that takes further rows a.x <= b."""

    def __init__(self, c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
        c = [rational(v) for v in c]
        n = len(c)
        data = [([rational(v) for v in a], rational(b), is_ub)
                for is_ub, lhs, rhs in ((True, a_ub, b_ub),
                                        (False, a_eq, b_eq))
                for a, b in zip(lhs, rhs)]
        width = n + sum(1 for *_, is_ub in data if is_ub)
        n_art = sum(1 for _, b, is_ub in data if b < 0 or not is_ub)
        total = width + n_art

        # the slack of an inequality with b >= 0 starts basic; every other
        # row gets an artificial, numbered in row order
        rows, basis = [], []
        slack_at, art_at = n, width
        for a, b, is_ub in data:
            row = a + [0] * (total - n) + [b]
            if is_ub:
                row[slack_at] = 1
                slack_at += 1
            if b < 0:
                row = [-v for v in row]
            if is_ub and b >= 0:
                basis.append(slack_at - 1)
            else:
                row[art_at] = 1
                basis.append(art_at)
                art_at += 1
            rows.append(_integers(row))

        if n_art:
            rows.append(_reduce([0] * width + [1] * n_art + [0], rows, basis))
            _run(rows, basis, range(total))
            rows.pop()
            if any(b >= width and r[-1] for r, b in zip(rows, basis)):
                raise LPInfeasible("no feasible point")
            # drive surviving artificials out where possible; a row left
            # with only its artificial is zero elsewhere and goes with it
            for i in [i for i, b in enumerate(basis) if b >= width]:
                col = next((j for j in range(width) if rows[i][j]), None)
                if col is not None:
                    _pivot(rows, basis, i, col)
            kept = [(r[:width] + r[-1:], b) for r, b in zip(rows, basis)
                    if b < width]
            rows, basis = [r for r, _ in kept], [b for _, b in kept]

        self.n, self.cost = n, c + [0] * (width - n)
        rows.append(_reduce(_integers(self.cost) + [0], rows, basis))
        _run(rows, basis, range(width))
        self.rows, self.basis = rows, basis

    def add_row(self, a, b):
        """Adds the row a.x <= b over the original variables, with its own
        basic slack, and re-solves by the dual simplex under the dual
        Bland rule: the infeasible row with the least basic index leaves,
        and the column of least ratio z_j / |r_j| over r_j < 0 enters,
        ties to the least column.  LPInfeasible when no point is left."""
        rows, basis, cost = self.rows, self.basis, self.cost
        for r in rows:
            r.insert(-1, 0)
        row = _integers([rational(v) for v in a]
                        + [0] * (len(cost) - self.n) + [1, rational(b)])
        rows.insert(-1, _reduce(row, rows, basis))
        basis.append(len(cost))
        cost.append(0)
        while bad := [i for i, r in enumerate(rows[:-1]) if r[-1] < 0]:
            leaving = min(bad, key=basis.__getitem__)
            r, z, entering = rows[leaving], rows[-1], -1
            for j, q in enumerate(r[:-1]):
                if q < 0 and (entering < 0 or z[j] * best_q > best_z * q):
                    entering, best_z, best_q = j, z[j], q
            if entering < 0:
                raise LPInfeasible("no feasible point")
            _pivot(rows, basis, leaving, entering)

    def optimum(self):
        """(optimal value, solution for the original variables)."""
        x = [Fraction(0)] * len(self.cost)
        for r, b in zip(self.rows, self.basis):
            x[b] = Fraction(r[-1], r[b])
        return sum(self.cost[b] * x[b] for b in self.basis), x[:self.n]


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Returns (optimal value, solution for the original variables)."""
    return Tableau(c, a_ub, b_ub, a_eq, b_eq).optimum()
