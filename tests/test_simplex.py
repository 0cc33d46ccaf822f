import hashlib
import itertools
from fractions import Fraction

import pytest

from bairelab import (
    BaireVector,
    BasisKind,
    DyadicStep,
    P_ZERO,
    StepContext,
    VectorFamily,
    convex_block_min,
    random_tree,
    simplex,
)
from bairelab.baire import ExponentP
from bairelab.simplex import LPInfeasible, LPUnbounded, Tableau, solve_lp

from util import (
    full_block_min_lp,
    reference_step_block_min,
    seeded_rng,
    step_block_min_lp,
)

F = Fraction
L1, C0 = BasisKind.L1, BasisKind.C0


def test_basic_vertex_optimum():
    value, x = solve_lp(
        c=[F(-1), F(-1)],
        a_ub=[[F(1), F(2)], [F(3), F(1)]],
        b_ub=[F(4), F(6)],
    )
    # optimum at the intersection (8/5, 6/5)
    assert x == [F(8, 5), F(6, 5)]
    assert value == F(-14, 5)


def test_equality_constraint():
    value, x = solve_lp(
        c=[F(1), F(0)],
        a_eq=[[F(1), F(1)]],
        b_eq=[F(1)],
    )
    assert value == 0
    assert x == [F(0), F(1)]


def test_negative_rhs_normalization():
    # x >= 1 encoded as -x <= -1
    value, x = solve_lp(c=[F(1)], a_ub=[[F(-1)]], b_ub=[F(-1)])
    assert value == 1 and x == [F(1)]


def test_infeasible():
    with pytest.raises(LPInfeasible):
        solve_lp(c=[F(0)], a_ub=[[F(1)], [F(-1)]], b_ub=[F(1), F(-2)])


def test_unbounded():
    with pytest.raises(LPUnbounded):
        solve_lp(c=[F(-1)])


def test_game_value_lp():
    # min t subject to a1 + a2 = 1, +-(a1 - a2) <= t
    value, x = solve_lp(
        c=[F(0), F(0), F(1)],
        a_ub=[[F(1), F(-1), F(-1)], [F(-1), F(1), F(-1)]],
        b_ub=[F(0), F(0)],
        a_eq=[[F(1), F(1), F(0)]],
        b_eq=[F(1)],
    )
    assert value == 0
    assert x[0] == x[1] == F(1, 2)


def test_degenerate_problem_terminates():
    value, x = solve_lp(
        c=[F(-1), F(0)],
        a_ub=[[F(1), F(0)], [F(1), F(0)], [F(1), F(1)]],
        b_ub=[F(1), F(1), F(1)],
    )
    assert value == -1 and x[0] == 1


def test_redundant_equality_keeps_an_artificial_basic():
    # the second row duplicates the first: after phase 1 it is zero outside
    # its artificial column, which therefore stays basic at value 0
    value, x = solve_lp(
        c=[F(1), F(2)],
        a_eq=[[F(1), F(1)], [F(1), F(1)]],
        b_eq=[F(1), F(1)],
    )
    assert value == 1 and x == [F(1), F(0)]


def test_bland_rule_picks_the_optimal_vertex():
    # every point of the edge (1, 0)-(0, 1) is optimal, and x_1 <= 1 ties
    # x_1 + x_2 <= 1 in the first ratio test: x_1 enters first and the
    # tie goes to the row whose basic slack has the smaller index
    value, x = solve_lp(
        c=[F(-1), F(-1)],
        a_ub=[[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]],
        b_ub=[F(1), F(1), F(1)],
    )
    assert value == -1 and x == [F(1), F(0)]


# ---------------------------------------------------------------------------
# definitional check by vertex enumeration


def _solve_columns(cols, rhs):
    """The unique weights with sum_j w_j cols[j] = rhs, or None when the
    columns are dependent or the system is inconsistent."""
    k = len(cols)
    mat = [[col[i] for col in cols] + [r] for i, r in enumerate(rhs)]
    for j in range(k):
        piv = next((i for i in range(j, len(mat)) if mat[i][j] != 0), None)
        if piv is None:
            return None
        mat[j], mat[piv] = mat[piv], mat[j]
        mat[j] = [v / mat[j][j] for v in mat[j]]
        for i, row in enumerate(mat):
            if i != j and row[j] != 0:
                mat[i] = [a - row[j] * b for a, b in zip(row, mat[j])]
    if any(row[k] != 0 for row in mat[k:]):
        return None
    return [row[k] for row in mat[:k]]


def _feasible_basic_solutions(a, b, width):
    """Every x >= 0 with a x = b supported on independent columns."""
    for size in range(min(len(b), width) + 1):
        for support in itertools.combinations(range(width), size):
            w = _solve_columns([[row[j] for row in a] for j in support], b)
            if w is not None and all(v >= 0 for v in w):
                x = [F(0)] * width
                for j, v in zip(support, w):
                    x[j] = v
                yield x


def _dot(u, v):
    return sum(p * q for p, q in zip(u, v))


def _check_against_vertices(c, a_ub, b_ub, a_eq, b_eq):
    n, m_ub = len(c), len(a_ub)
    width = n + m_ub
    # slack-augmented equalities [A_ub I; A_eq 0] (x, s) = (b_ub, b_eq)
    a = [list(row) + [F(int(i == k)) for k in range(m_ub)]
         for i, row in enumerate(a_ub)]
    a += [list(row) + [F(0)] * m_ub for row in a_eq]
    b = list(b_ub) + list(b_eq)
    cost = list(c) + [F(0)] * m_ub
    vertices = list(_feasible_basic_solutions(a, b, width))
    if not vertices:
        with pytest.raises(LPInfeasible):
            solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        return "infeasible"
    # unbounded iff some d >= 0 with a d = 0 has negative cost; normalized
    # by sum(d) = 1 the least such cost sits at a basic solution
    rays = _feasible_basic_solutions(a + [[F(1)] * width], [F(0)] * len(b)
                                     + [F(1)], width)
    if any(_dot(cost, d) < 0 for d in rays):
        with pytest.raises(LPUnbounded):
            solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        return "unbounded"
    value, x = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    assert all(v >= 0 for v in x)
    assert all(_dot(row, x) <= r for row, r in zip(a_ub, b_ub))
    assert all(_dot(row, x) == r for row, r in zip(a_eq, b_eq))
    assert value == _dot(c, x) == min(_dot(cost, v) for v in vertices)
    return "optimal"


def test_solve_lp_matches_vertex_enumeration():
    rng = seeded_rng(577)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        m_eq = rng.choice((0, 0, 1, 2))
        m_ub = rng.randint(0, 4 - m_eq)
        seen.add(_check_against_vertices(*_random_lp(rng, n, m_ub, m_eq)))
    assert seen == {"infeasible", "unbounded", "optimal"}


# ---------------------------------------------------------------------------
# golden digest

# SHA-256 over one line per LP of `_lp_corpus`: repr((value, solution)) for
# an optimum, else the exception's type name.  Recorded with the dense
# Fraction simplex, before the rows became integers.  The Baire block-min
# LPs are the full LPs over every generating functional, and the step
# LPs the cell LPs, which block-min itself built until every window
# moved to cutting planes.
SOLVE_LP_DIGEST = (
    "61b45a28f3284ecdbd64ed40c003de20e591fd991fc99a4464f25534751efe7f"
)


def _random_lp(rng, n, m_ub, m_eq):
    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.randint(1, 3))

    c = [q(-4, 4) for _ in range(n)]
    a_ub = [[q(-5, 5) for _ in range(n)] for _ in range(m_ub)]
    b_ub = [q(-4, 6) for _ in range(m_ub)]
    a_eq = [[q(-5, 5) for _ in range(n)] for _ in range(m_eq)]
    b_eq = [q(-4, 6) for _ in range(m_eq)]
    return c, a_ub, b_ub, a_eq, b_eq


def _lp_corpus():
    rng = seeded_rng(2718)
    for k in range(3000):
        n = rng.randint(1, 5)
        if k % 10 == 0:
            yield _random_lp(rng, n, 0, 0)
        else:
            yield _random_lp(rng, n, rng.randint(0, 4),
                             rng.choice((0, 0, 1, 2)))
    for seed in range(3):
        tree = random_tree(10, seed)
        for kind, p in ((L1, P_ZERO), (L1, 1), (C0, P_ZERO), (C0, 1)):
            vectors = [BaireVector(tree, {
                node: rng.choice((0, 0, -3, -2, -1, 1, 2, 3, F(1, 2)))
                for node in tree}) for _ in range(3)]
            yield full_block_min_lp(vectors, kind, ExponentP.coerce(p))
    for res in (2, 3):
        steps = [DyadicStep(res, tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                       for _ in range(2**res)))
                 for _ in range(4)]
        yield step_block_min_lp(steps)


def test_solve_lp_outputs_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    count = 0
    for lp in _lp_corpus():
        try:
            out = repr(solve_lp(*lp))
        except (LPInfeasible, LPUnbounded) as exc:
            out = type(exc).__name__
        digest.update(out.encode() + b"\n")
        count += 1
    assert count >= 3000
    assert digest.hexdigest() == SOLVE_LP_DIGEST


# ---------------------------------------------------------------------------
# the resumable tableau


def _check_resumes(rng, c, a_ub, b_ub, a_eq, b_eq):
    """Adds seeded rows one at a time; after each, the tableau's optimum
    is a cold solve's.  Returns how the last step ended."""
    try:
        lp = Tableau(c, a_ub, b_ub, a_eq, b_eq)
    except (LPInfeasible, LPUnbounded) as exc:
        return type(exc).__name__
    a_ub, b_ub = list(a_ub), list(b_ub)
    for _ in range(rng.randint(1, 4)):
        row = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in c]
        b = F(rng.randint(-4, 6), rng.randint(1, 3))
        a_ub.append(row)
        b_ub.append(b)
        try:
            cold = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        except LPInfeasible:
            with pytest.raises(LPInfeasible):
                lp.add_row(row, b)
            return "cut infeasible"
        lp.add_row(row, b)
        value, x = lp.optimum()
        assert value == cold[0] == _dot(c, x)
        assert all(v >= 0 for v in x)
        assert all(_dot(r, x) <= q for r, q in zip(a_ub, b_ub))
        assert all(_dot(r, x) == q for r, q in zip(a_eq, b_eq))
    return "resumed"


def test_added_rows_match_a_cold_solve():
    rng = seeded_rng(1931)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        m_eq = rng.choice((0, 0, 1, 2))
        lp = _random_lp(rng, n, rng.randint(0, 4 - m_eq), m_eq)
        seen.add(_check_resumes(rng, *lp))
    assert {"resumed", "cut infeasible", "LPInfeasible"} <= seen


def test_dual_ratio_ties_go_to_the_least_column():
    # min x_1 + x_2 from the origin, then x_1 + x_2 >= 1: both columns
    # enter at ratio 1, and the tie goes to x_1
    lp = Tableau([F(1), F(1)])
    assert lp.optimum() == (0, [F(0), F(0)])
    lp.add_row([F(-1), F(-1)], F(-1))
    assert lp.optimum() == (F(1), [F(1), F(0)])


def test_degenerate_step_window_ties_in_the_dual_pass(monkeypatch):
    # three steps whose cuts tie in a dual ratio test; the loop still
    # returns the cell LP's value and weights
    ties = []
    pivot = simplex._pivot

    def recording(rows, basis, row, col):
        r, z = rows[row], rows[-1]
        if r[-1] < 0:  # only a dual pivot leaves an infeasible row
            ratios = [F(z[j], -a) for j, a in enumerate(r[:-1]) if a < 0]
            ties.append(ratios.count(min(ratios)))
        pivot(rows, basis, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    steps = [DyadicStep(1, (F(-1), F(0))), DyadicStep(1, (F(0), F(-2))),
             DyadicStep(1, (F(1), F(-2)))]
    out = convex_block_min(VectorFamily(steps, StepContext()), (0, 2))
    assert max(ties) > 1
    assert out == reference_step_block_min(steps)


def test_a_cut_past_the_feasible_set_is_infeasible():
    lp = Tableau([F(1)], [[F(1)]], [F(1)])
    with pytest.raises(LPInfeasible):
        lp.add_row([F(-1)], F(-2))


def test_a_redundant_equality_resumes():
    # the duplicated equality leaves its artificial basic after phase 1;
    # its row is dropped, and the tableau still takes a cut
    lp = Tableau([F(1), F(2)], a_eq=[[F(1), F(1)], [F(1), F(1)]],
                 b_eq=[F(1), F(1)])
    assert lp.optimum() == (F(1), [F(1), F(0)])
    lp.add_row([F(1), F(0)], F(1, 2))
    cold = solve_lp([F(1), F(2)], [[F(1), F(0)]], [F(1, 2)],
                    [[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)])
    assert lp.optimum() == cold == (F(3, 2), [F(1, 2), F(1, 2)])
