"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to watch the lines live.
Criterion 1 enforces its declared 60-second budget over an exhaustive
sweep of 52,787 trees x 200 vectors x 5 basis/exponent pairs; at the
measured per-check cost (~0.8 ms) the full sweep needs hours, so that
test documents the shortfall and fails honestly with progress statistics
after validating everything it had time for.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from bairelab import (
    BaireVector,
    BasisKind,
    P_ZERO,
    baire_norm,
    baire_norm_oracle,
    baire_norm_zero,
    bs_obstruction_check,
    bush_check,
    check_branch_isometry,
    check_incomparable_additivity,
    check_root_decomposition,
    convex_block_min,
    delta_antichain_family,
    full_kary,
    l1_norm,
    level_difference,
    linear_combination,
    make_tree,
    order_index,
    rademacher_bush,
    random_tree,
    spine,
    subtree_at,
    vector_combine,
    weak_null_probe,
)
from bairelab.bases import triangle_leq
from bairelab.serialize import (
    dumps_canonical,
    family_to_json,
    tree_to_json,
    vector_to_json,
)

from util import (
    canonical_shapes,
    grid_min,
    random_rational_vector,
    seeded_rng,
    tree_shapes,
)

ROOT = Path(__file__).resolve().parent.parent
F = Fraction
L1, L2, C0 = BasisKind.L1, BasisKind.L2, BasisKind.C0
EXACT_PAIRS = [(L1, 1), (L1, 2), (C0, 1), (C0, 2), (L2, 2)]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    """Exhaustive trees (<= 8 nodes, entries < 3), 200 seeded vectors per
    tree, every exact-mode pair: baire_norm == baire_norm_oracle, with
    the declared 60 s budget enforced."""
    budget = 60.0
    start = time.perf_counter()
    shapes = list(tree_shapes(8, 3))
    total = len(shapes) * 200 * len(EXACT_PAIRS)
    done = 0
    trees_done = 0
    for idx, nodes in enumerate(shapes):
        tree = make_tree(nodes)
        rng = seeded_rng(1_000_003 * idx + 7)
        for _ in range(200):
            if time.perf_counter() - start > budget:
                elapsed = time.perf_counter() - start
                projected = elapsed * total / max(done, 1) / 3600.0
                _report(
                    1,
                    "oracle equivalence (exhaustive, 200 vectors/tree)",
                    False,
                    f"all {done} checks performed so far agree exactly, but "
                    f"only {trees_done}/{len(shapes)} trees fit the 60 s "
                    f"budget; the full sweep of {total} checks projects to "
                    f"~{projected:.1f} h on this machine",
                )
            x = random_rational_vector(tree, rng)
            for kind, p in EXACT_PAIRS:
                got = baire_norm(x, kind, p)
                want = baire_norm_oracle(x, kind, p)
                if got != want:
                    _report(
                        1,
                        "oracle equivalence",
                        False,
                        f"mismatch on tree {nodes}, vector {dict(x.coeffs)}, "
                        f"({kind}, p={p}): {got} vs {want}",
                    )
                done += 1
        trees_done += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "oracle equivalence (exhaustive, 200 vectors/tree)",
        elapsed < budget,
        f"{done} exact comparisons over {trees_done} trees in {elapsed:.1f}s",
    )


def test_criterion_2_rank_laws():
    start = time.perf_counter()
    for k in range(1, 4):
        for d in range(0, 5):
            assert order_index(full_kary(k, d)) == d + 1, (k, d)
    checked = 0
    for seed in range(1000):
        n = 2 + (seed * 7) % 29  # sizes 2..30
        tree = random_tree(n, seed)
        o = order_index(tree)
        for child in tree.children(()):
            assert order_index(subtree_at(tree, child[0])) < o, (seed, child)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        "rank laws",
        elapsed < 10.0,
        f"full k-ary ranks exact; {checked} localized drops over 1000 "
        f"seeded trees in {elapsed:.1f}s",
    )


def _band_tree(bands):
    nodes = [()]
    for lam in range(bands):
        nodes += [(lam,), (lam, 0), (lam, 1), (lam, 0, 0)]
    return make_tree(nodes)


def test_criterion_3_exact_identities():
    start = time.perf_counter()
    rng = seeded_rng(300)

    for trial in range(500):
        bands = 2 + trial % 3
        tree = _band_tree(bands)
        ys = []
        for lam in range(bands):
            coeffs = {}
            for node in [(lam,), (lam, 0), (lam, 1), (lam, 0, 0)]:
                if rng.random() < 0.7:
                    coeffs[node] = F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            if not coeffs:
                coeffs[(lam,)] = F(1)
            ys.append(BaireVector(tree, coeffs))
        coeffs = [
            F(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([-1, 1])
            for _ in range(bands)
        ]
        kind, p = EXACT_PAIRS[trial % len(EXACT_PAIRS)]
        report = check_incomparable_additivity(ys, coeffs, kind, p)
        assert report.passed and report.exact, (trial, report)

    shapes = [s for s in canonical_shapes(6) if len(s) > 1]
    for trial in range(500):
        tree = make_tree(shapes[trial % len(shapes)])
        x = random_rational_vector(tree, rng)
        x = BaireVector(tree, {n: c for n, c in x.coeffs.items() if n != ()})
        kind, p = EXACT_PAIRS[trial % len(EXACT_PAIRS)]
        report = check_root_decomposition(x, kind, p)
        assert report.passed, (trial, report)

    for trial in range(500):
        depth = trial % 8
        chain = spine(depth)
        coeffs = {
            (0,) * i: F(rng.randint(-6, 6), rng.randint(1, 4))
            for i in range(depth + 1)
            if rng.random() < 0.8
        }
        x = BaireVector(chain, coeffs)
        kind, p = EXACT_PAIRS[trial % len(EXACT_PAIRS)]
        assert check_branch_isometry(x, kind, p).passed, trial

    elapsed = time.perf_counter() - start
    _report(
        3,
        "exact identities",
        elapsed < 30.0,
        f"500 additivity + 500 decomposition + 500 chain instances, all "
        f"exact, in {elapsed:.1f}s",
    )


def test_criterion_4_obstruction_witness():
    start = time.perf_counter()
    for size in range(2, 7):
        verdict = bs_obstruction_check(delta_antichain_family(size, L1, 1), 1)
        assert verdict.is_pass, size
    witnesses = []
    for size in range(2, 7):
        verdict = bs_obstruction_check(delta_antichain_family(size, L2, 2), 1)
        assert verdict.is_violated, size
        assert verdict.witness["value"].power_base == F(1, 2), verdict
        witnesses.append(verdict.witness["m"])
    assert witnesses == [2] * 5
    elapsed = time.perf_counter() - start
    _report(
        4,
        "split-mean obstruction",
        elapsed < 10.0,
        f"sizes 2..6 pass at eps=1 in the summable context and are "
        f"violated with squared value exactly 1/2 in the square context "
        f"({elapsed:.1f}s)",
    )


def test_criterion_5_bush():
    start = time.perf_counter()
    bush = rademacher_bush(8)
    verdict = bush_check(bush, F(1, 2), 1)
    assert verdict.is_pass
    for k in range(1, 9):
        quantity = l1_norm(level_difference(bush, k))
        assert isinstance(quantity, F) and quantity == 2**k
    failing = bush_check(bush, 1, 1)
    assert failing.is_violated
    assert failing.witness["k"] == 1 and failing.witness["quantity"] == 2
    elapsed = time.perf_counter() - start
    _report(
        5,
        "dyadic bush",
        elapsed < 5.0,
        f"depth-8 bush passes at delta=1/2 with exact level quantities and "
        f"fails at delta=1 at k=1 with quantity 2 ({elapsed:.1f}s)",
    )


def test_criterion_6_convex_block_lp():
    start = time.perf_counter()
    contexts = [(L1, 1), (L1, P_ZERO), (C0, 1), (C0, P_ZERO)]
    lp_checks = 0
    for kind, p in contexts:
        for n in range(2, 5):
            fam = delta_antichain_family(n, kind, p)
            for length in range(1, n):
                for startw in range(0, n - length):
                    window = (startw, length)
                    coeffs, value = convex_block_min(fam, window)
                    assert value.is_exact
                    oracle = grid_min(fam, window, max_denominator=6)
                    assert value.equals(oracle), (kind, p, n, window)
                    assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
                    lp_checks += 1
    pass_verdict = weak_null_probe(delta_antichain_family(8, C0, P_ZERO), F(1, 3))
    assert pass_verdict.is_pass
    incon = weak_null_probe(delta_antichain_family(8, L1, 1), F(1, 2))
    assert incon.is_inconclusive
    elapsed = time.perf_counter() - start
    _report(
        6,
        "convex-block minimization",
        elapsed < 30.0,
        f"{lp_checks} exact LP minima match the denominator-6 grid oracle; "
        f"weak-null probe passes (sup context) and stays inconclusive "
        f"(summable context) in {elapsed:.1f}s",
    )


def test_criterion_7_norm_axioms():
    start = time.perf_counter()
    pool = [make_tree(s) for s in canonical_shapes(6)]
    cycle = EXACT_PAIRS + [(L2, 1), (L1, F(3, 2))]
    rng = seeded_rng(700)
    samples = 10_000
    for i in range(samples):
        tree = pool[i % len(pool)]
        kind, p = cycle[i % len(cycle)]
        x = random_rational_vector(tree, rng)
        y = random_rational_vector(tree, rng)
        nx = baire_norm(x, kind, p)
        ny = baire_norm(y, kind, p)
        whole = baire_norm(vector_combine(1, x, 1, y), kind, p)
        assert triangle_leq(whole, nx, ny), (i, kind, p)
        assert baire_norm_zero(x, kind).compare(nx) <= 0, (i, kind, p)
        if nx.is_exact and i % 5 == 0:
            q = F(rng.randint(-9, 9) or 2, rng.randint(1, 5))
            scaled = baire_norm(linear_combination([(q, x)]), kind, p)
            assert scaled.power_base == nx.scale(q).power_base, (i, kind, p)
    elapsed = time.perf_counter() - start
    _report(
        7,
        "norm axioms",
        elapsed < 60.0,
        f"triangle + dominance on {samples} sampled pairs, homogeneity "
        f"exact on the exact-mode subsample, in {elapsed:.1f}s",
    )


def _run_cli(argv):
    path = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-m", "bairelab.cli", *argv],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    tree = make_tree([(), (0,), (1,)])
    x = BaireVector(tree, {(0,): F(3, 4), (1,): 1})
    tree_path = tmp_path / "t.json"
    tree_path.write_text(dumps_canonical(tree_to_json(full_kary(2, 2))) + "\n")
    vec_path = tmp_path / "x.json"
    vec_path.write_text(dumps_canonical(vector_to_json(x)) + "\n")
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(
        dumps_canonical(family_to_json(delta_antichain_family(4, C0, P_ZERO)))
        + "\n"
    )
    fam_l1 = tmp_path / "fam_l1.json"
    fam_l1.write_text(
        dumps_canonical(family_to_json(delta_antichain_family(6, L1, 1))) + "\n"
    )
    bush_path = tmp_path / "bush.json"
    code, out = _run_cli(
        ["gen", "--family", "rademacher-bush", "--K", "3", "--out", str(bush_path)]
    )
    assert code == 0

    commands = [
        ["rank", "--tree", str(tree_path)],
        ["derive", "--tree", str(tree_path)],
        ["gen", "--family", "spine", "--d", "3"],
        ["gen", "--family", "full-kary", "--k", "2", "--d", "2"],
        ["gen", "--family", "random", "--n", "10", "--seed", "42"],
        ["norm", "--vector", str(vec_path), "--basis", "l1", "--p", "2"],
        ["norm", "--vector", str(vec_path), "--basis", "l1", "--p", "2",
         "--oracle"],
        ["norm", "--vector", str(vec_path), "--basis", "l2", "--p", "1"],
        ["check-bush", "--bush", str(bush_path), "--delta", "1/2",
         "--bound", "1"],
        ["check-bs", "--family", str(fam_l1), "--epsilon", "1"],
        ["check-abs", "--family", str(fam_l1), "--epsilon", "1/2"],
        ["block-min", "--family", str(fam_path), "--window", "0,3"],
        ["probe-wf", "--lazy", "zeros-branch", "--depth", "10"],
        ["probe-wf", "--lazy", "bounded:3", "--depth", "10"],
    ]
    for argv in commands:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
    for argv in (
        ["norm", "--vector", str(vec_path), "--basis", "l1", "--p", "2"],
        ["check-bs", "--family", str(fam_l1), "--epsilon", "1"],
    ):
        base = _run_cli(argv)
        parallel = _run_cli(argv + ["--parallel"])
        assert base == parallel, argv
    elapsed = time.perf_counter() - start
    _report(
        8,
        "CLI determinism",
        elapsed < 10.0,
        f"{len(commands)} documented commands byte-identical across reruns "
        f"and under --parallel in {elapsed:.1f}s",
    )
