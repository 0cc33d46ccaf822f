"""Two-phase simplex over exact rationals, fraction-free.

Minimizes c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.  Bland's
rule is used for both the entering and the leaving choice, which rules
out cycling.  Each tableau row, the reduced-cost row of the running phase
included, is a list of Python ints: a positive multiple of its rational
row, divided by the gcd of its entries after every update.  A constraint
row's multiple is its basic column's entry, which stays positive.  The
pivoting choices are then integer tests: a negative reduced-cost entry,
and ratios compared by cross-multiplication.  The optimal value and the
solution become `Fraction`s once, at the end.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import BaireLabError


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


def _objective(rows, basis, cost):
    """The reduced-cost row of `cost` (ints) for the current basis."""
    z = cost + [0]
    for r, b in zip(rows, basis):
        z = _eliminate(z, r, b)
    return z


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


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Returns (optimal value, solution for the original variables)."""
    c = [Fraction(v) for v in c]
    n = len(c)
    data = [([Fraction(v) for v in a], Fraction(b), True)
            for a, b in zip(a_ub, b_ub)]
    data += [([Fraction(v) for v in a], Fraction(b), False)
             for a, b in zip(a_eq, b_eq)]
    m = len(data)
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
        rows.append(_objective(rows, basis, [0] * width + [1] * n_art))
        _run(rows, basis, range(total))
        rows.pop()
        if any(b >= width and r[-1] for r, b in zip(rows, basis)):
            raise LPInfeasible("no feasible point")
        # drive surviving artificials out where possible; rows that carry
        # only the artificial are redundant and stay harmlessly basic
        for i in range(m):
            if basis[i] >= width:
                col = next((j for j in range(width) if rows[i][j]), None)
                if col is not None:
                    _pivot(rows, basis, i, col)

    cost = c + [Fraction(0)] * (total - n)
    rows.append(_objective(rows, basis, _integers(cost)))
    _run(rows, basis, range(width))
    solution = [Fraction(0)] * total
    for r, b in zip(rows, basis):
        solution[b] = Fraction(r[-1], r[b])
    value = sum(cost[b] * solution[b] for b in basis)
    return value, solution[:n]
