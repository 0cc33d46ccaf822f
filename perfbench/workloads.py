"""The benchmark's workloads: seeded inputs, the operations a pass runs,
and the check each operation's output must pass.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  Inputs come only from the
seed.  `setup` builds them; `ops` turns them into the operation list one
pass runs; each operation's `check` returns None or what was wrong.
`prepare` does, once and untimed, the work that only the benchmark needs
(such as finding the sampled shapes), so that timed set-up is the
program's own import and input building.
"""

import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

from bairelab import (
    BaireContext,
    BaireVector,
    BasisKind,
    DyadicStep,
    StepContext,
    VectorFamily,
    abs_obstruction_falsify,
    baire_norm,
    baire_norm_oracle,
    baire_norm_witness,
    baire_norm_zero,
    bs_obstruction_check,
    bush_check,
    convex_block_min,
    delta_antichain_family,
    full_kary,
    make_tree,
    rademacher_bush,
    random_tree,
    spine,
)
from bairelab.checkers import TrialCoeffs
from bairelab.cli import main as cli_main
from bairelab.serialize import dumps_canonical, vector_from_json, vector_to_json

from shapes import node_order, systematic_sample

L1, L2, C0 = BasisKind.L1, BasisKind.L2, BasisKind.C0
EXACT_PAIRS = ((L1, 1), (L1, 2), (C0, 1), (C0, 2), (L2, 2))
REL_TOL = 1e-9


class Op:
    """One timed call into the program and the check of its output.

    Checks run untraced unless `trace_check` is set: they call the
    program too, and their calls are not the operation's."""

    __slots__ = ("label", "run", "check", "trace_check")

    def __init__(self, label, run, check, trace_check=False):
        self.label = label
        self.run = run
        self.check = check
        self.trace_check = trace_check


class Workload:
    def prepare(self, seed):
        """Untimed, benchmark-only work for `setup(seed, prepared)`."""
        return None

    def cleanup(self, inputs):
        pass


def nonzero_coef(rng):
    """A criterion-1 coefficient: numerator in [-6, 6] with 0 mapped to 1,
    denominator in [1, 4]."""
    return Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))


def quantile(values, q):
    """The q-quantile (0 < q < 1) by statistics.quantiles' default method;
    the lone value when there is only one."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# oracle-sweep

SWEEP_SHAPES = 40
SWEEP_VECTORS = 20
CRITERION1_CHECKS = 52_787 * 200 * len(EXACT_PAIRS)


def sweep_check(tree, coeffs):
    x = BaireVector(tree, coeffs)
    return [(baire_norm(x, k, p), baire_norm_oracle(x, k, p))
            for k, p in EXACT_PAIRS]


def sweep_verify(out):
    for (kind, p), (got, want) in zip(EXACT_PAIRS, out):
        if got != want:
            return f"DP {got} != oracle {want} in ({kind.value}, p={p})"
    return None


class OracleSweep(Workload):
    """A uniform sample of criterion 1's exhaustive DP-vs-oracle sweep.

    Every one of the 52,787 shapes has the same chance to be drawn (a
    systematic sample over the shapes in cost order, see
    `shapes.systematic_sample`), so the node-count mix follows the full
    enumeration (82% have 8 nodes), not the size-ordered prefix criterion
    1 reaches in its budget.  One
    operation is one criterion-1 vector: its construction plus DP and
    oracle for the five exact pairs, i.e. five checks.  The vectors of a
    shape share its closure, as in the real sweep.
    """

    name = "oracle-sweep"

    def prepare(self, seed):
        """The sampled shapes, drawn from the benchmark's own enumeration
        with the seed's first draw as the start."""
        return systematic_sample(SWEEP_SHAPES, random.Random(seed).random())

    def setup(self, seed, shapes=None):
        rng = random.Random(seed)
        start = rng.random()
        if shapes is None:
            shapes = systematic_sample(SWEEP_SHAPES, start)
        sample = []
        for nodes in shapes:
            vectors = [{n: nonzero_coef(rng) for n in nodes}
                       for _ in range(SWEEP_VECTORS)]
            sample.append((nodes, make_tree(nodes), vectors))
        return {"sample": sample}

    def ops(self, inputs):
        return [Op(f"{len(nodes)}-node shape", partial(sweep_check, tree, c),
                   sweep_verify)
                for nodes, tree, vectors in inputs["sample"]
                for c in vectors]

    def details(self, inputs, passes):
        checks = [dt / len(EXACT_PAIRS) for p in passes for _, dt in p]
        mix = Counter(len(nodes) for nodes, _, _ in inputs["sample"])
        mix_text = ", ".join(f"{n} nodes: {mix[n]}"
                             for n in sorted(mix, reverse=True))
        mean = statistics.fmean(checks)
        return [
            ("sweep.projected_h", CRITERION1_CHECKS * mean / 3600, "h",
             f"{CRITERION1_CHECKS:,} checks x mean {mean * 1e6:.1f} us/check"
             f" over {len(checks)} vectors x {len(EXACT_PAIRS)} pairs from a"
             f" equal-chance sample of {len(inputs['sample'])} shapes"
             f" [{mix_text}]"),
            ("sweep.check_p50_us", quantile(checks, 0.5) * 1e6, "us",
             f"{len(checks)} samples"),
            ("sweep.check_p99_us", quantile(checks, 0.99) * 1e6, "us",
             f"{len(checks)} samples"),
        ]

# ---------------------------------------------------------------------------
# big-trees

#: Random trees are (size, generator seed): the shapes are fixed and the
#: coefficients come from the workload seed.  A random tree's depth sets
#: the cost of the witness and p = 0 scans, and varies enough from shape
#: to shape to swing the pass time by seed more than anything measured.
BIG_RANDOM = (5_000, 0)
BIG_WIDE = (70, 2)
BIG_DEEP = 200
ZERO_RANDOM = (600, 0)
ZERO_SPINE = 50
#: One exact context and one binary64 context.
BIG_CONTEXTS = ((L1, Fraction(2)), (L2, Fraction(3, 2)))


def big_eval(nodes, coeffs):
    """Node list -> BaireVector, then value and witness per context, as
    `bairelab norm` computes them."""
    x = BaireVector(make_tree(nodes), coeffs)
    return [(baire_norm(x, kind, p),) + baire_norm_witness(x, kind, p)
            for kind, p in BIG_CONTEXTS]


def chain(segment):
    lo, hi = segment.min_node, segment.max_node
    return [hi[:i] for i in range(len(lo), len(hi) + 1)]


def verify_witness(coeffs, kind, p, value, wvalue, family):
    """The value DP equals the witness power, the witness family's
    aggregate recomputed from the coefficients matches it, and the min
    nodes form an antichain."""
    exact = kind is L1
    if exact:
        if value.power_base != wvalue.power_base:
            return f"value {value} != witness value {wvalue}"
    elif not close(value.approx, wvalue.approx):
        return f"value {value} != witness value {wvalue}"
    total = Fraction(0) if exact else 0.0
    mins = set()
    for seg in family:
        if seg.max_node[: len(seg.min_node)] != seg.min_node:
            return f"segment {seg} is not a chain"
        nodes = chain(seg)
        if any(n not in coeffs for n in nodes):
            return f"segment {seg} leaves the tree"
        if exact:
            total += sum(abs(coeffs[n]) for n in nodes) ** 2
        else:
            total += (math.fsum(float(coeffs[n]) ** 2 for n in nodes)
                      ** (float(p) / 2))
        mins.add(seg.min_node)
    for m in mins:
        for i in range(len(m)):
            if m[:i] in mins:
                return f"witness min nodes {m[:i]} and {m} are comparable"
    if exact:
        if total != wvalue.power_base:
            return f"witness aggregate {total} != {wvalue.power_base}"
    elif not close(total, wvalue.approx ** float(p)):
        return f"witness aggregate {total} != {wvalue.approx ** float(p)}"
    return None


def verify_big(coeffs, out):
    for (kind, p), (value, wvalue, family) in zip(BIG_CONTEXTS, out):
        err = verify_witness(coeffs, kind, p, value, wvalue, family)
        if err:
            return f"({kind.value}, p={p}): {err}"
    return None


def zero_eval(cases):
    return [baire_norm_zero(BaireVector(make_tree(nodes), coeffs), kind,
                            with_witness=True)
            for nodes, coeffs, kind in cases]


def verify_zero(cases, out):
    """The p = 0 value is the best single-segment block norm.  With every
    coefficient nonzero that is max |c| in c0 and the largest root-path
    sum of |c| in l1; the witness segment's block must attain it."""
    for (nodes, coeffs, kind), (value, seg) in zip(cases, out):
        if kind is C0:
            want = max(abs(c) for c in coeffs.values())
            block = max(abs(coeffs[n]) for n in chain(seg))
        else:
            path = {}
            for n in sorted(coeffs, key=node_order):
                path[n] = path.get(n[:-1], 0) + abs(coeffs[n])
            want = max(path.values())
            block = sum(abs(coeffs[n]) for n in chain(seg))
        if value.power_base != want or block != want:
            return (f"({kind.value}, p=0): value {value}, witness block "
                    f"{block}, expected {want}")
    return None


def io_roundtrip(x):
    text = dumps_canonical(vector_to_json(x))
    return text, vector_from_json(json.loads(text))


def verify_io(nodes, coeffs, out):
    text, back = out
    want = {
        "entries": [{"coef": str(c), "node": list(n)}
                    for n, c in sorted(coeffs.items(),
                                       key=lambda kv: node_order(kv[0]))],
        "tree": {"nodes": [list(n) for n in sorted(nodes, key=node_order)]},
    }
    if text != json.dumps(want, separators=(",", ":"), sort_keys=True):
        return "emitted document is not the canonical rendering"
    if dict(back.coeffs) != coeffs or set(back.tree.nodes) != set(nodes):
        return "parsed vector differs from the emitted one"
    return None


class BigTrees(Workload):
    """Large vectors, each evaluated once from its node list.

    No oracle runs here and every closure is used once, so a per-closure
    cache that helps oracle-sweep shows only its cost.
    """

    name = "big-trees"

    def setup(self, seed, prepared=None):
        rng = random.Random(seed)

        def coeffs_for(tree):
            nodes = list(tree)
            return nodes, {n: nonzero_coef(rng) for n in nodes}

        random_nodes, random_coeffs = coeffs_for(random_tree(*BIG_RANDOM))
        return {
            "random": (random_nodes, random_coeffs),
            "wide": coeffs_for(full_kary(*BIG_WIDE)),
            "deep": coeffs_for(spine(BIG_DEEP)),
            "zero": [coeffs_for(random_tree(*ZERO_RANDOM)) + (C0,),
                     coeffs_for(spine(ZERO_SPINE)) + (L1,)],
            "io_vector": BaireVector(make_tree(random_nodes), random_coeffs),
        }

    def ops(self, inputs):
        ops = [Op(key, partial(big_eval, *inputs[key]),
                  partial(verify_big, inputs[key][1]))
               for key in ("random", "wide", "deep")]
        ops.append(Op("zero", partial(zero_eval, inputs["zero"]),
                      partial(verify_zero, inputs["zero"])))
        ops.append(Op("io", partial(io_roundtrip, inputs["io_vector"]),
                      partial(verify_io, *inputs["random"])))
        return ops

    def details(self, inputs, passes):
        sizes = {
            "random": f"random_tree{BIG_RANDOM}",
            "wide": f"full_kary{BIG_WIDE}",
            "deep": f"spine({BIG_DEEP})",
            "zero": f"p = 0: random_tree{ZERO_RANDOM} c0,"
                    f" spine({ZERO_SPINE}) l1",
            "io": f"emit + parse of the random_tree{BIG_RANDOM} vector",
        }
        return [(f"big.{label}_s",
                 statistics.median(dict(p)[label] for p in passes), "s",
                 f"{sizes[label]}, median of {len(passes)}")
                for label in sizes]

# ---------------------------------------------------------------------------
# geometry

GEO_BS_N = 9
GEO_ABS_N = 8
GEO_ABS_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
#: The LP tree is fixed: its shape sets the LP's size, which would
#: otherwise swing the pass time by seed more than the coefficients do.
GEO_LP_TREE = (10, 0)
GEO_LP_VECTORS = 6
GEO_STEPS = 6
GEO_STEP_RESOLUTION = 4
GEO_SG_VECTORS = 4
GEO_BUSH_K = 7
#: (kind, p, epsilon): in (l1, 1) every split mean has norm exactly 1; in
#: (c0, 2) the smallest is 1/sqrt(n) > 3/10.  Both pass, so every one of
#: the n * 2**(n-1) candidates is evaluated.
GEO_BS = ((L1, Fraction(1), Fraction(1)), (C0, Fraction(2), Fraction(3, 10)))


def verdict_is(status, verdict):
    if verdict.status != status:
        return f"verdict {verdict.status}, expected {status}"
    return None


def verify_block_min(family, out):
    """Coefficients on the simplex; the value is the norm of the
    combination they give, recomputed through the public API."""
    coeffs, value = out
    exact = value.is_exact
    if any(a < 0 for a in coeffs):
        return "negative coefficient"
    if exact:
        if sum(coeffs) != 1:
            return f"coefficients sum to {sum(coeffs)}"
    elif not close(math.fsum(coeffs), 1.0):
        return f"coefficients sum to {math.fsum(coeffs)}"
    mix = family.mix([(Fraction(a), i) for i, a in enumerate(coeffs)])
    again = family.norm(mix)
    if exact:
        if not again.is_exact or again.power_base != value.power_base:
            return f"value {value} != norm of its combination {again}"
    elif not close(again.approx, value.approx):
        return f"value {value} != norm of its combination {again}"
    return None


class Geometry(Workload):
    """The checkers and the layers under them: obstruction checks, the
    exact simplex (LP path) and subgradient path of convex_block_min, and
    the bush validator over dyadic steps.  Vectors here are mixed fresh
    for every norm, so supports churn."""

    name = "geometry"

    def setup(self, seed, prepared=None):
        rng = random.Random(seed)

        def labels(n):
            return sorted(rng.sample(range(1000), n))

        tree = random_tree(*GEO_LP_TREE)

        # LP vectors take small integer coefficients, about 30% zero: with
        # rational ones the simplex's pivot count and numerator growth swing
        # its time by seed twice as much.  Subgradient vectors use every
        # node, so each has the same closure.
        def lp_vectors(count):
            return [BaireVector(tree, {n: 0 if rng.random() < 0.3
                                       else rng.choice((-3, -2, -1, 1, 2, 3))
                                       for n in tree})
                    for _ in range(count)]

        def sg_vectors(count):
            return [BaireVector(tree, {n: nonzero_coef(rng) for n in tree})
                    for _ in range(count)]

        steps = [DyadicStep(GEO_STEP_RESOLUTION, tuple(
            Fraction(rng.randint(-4, 4))
            for _ in range(2**GEO_STEP_RESOLUTION))) for _ in range(GEO_STEPS)]
        return {
            "bs": [(delta_antichain_family(GEO_BS_N, kind, p, labels(GEO_BS_N)),
                    eps) for kind, p, eps in GEO_BS],
            "abs": delta_antichain_family(GEO_ABS_N, L1, 1, labels(GEO_ABS_N)),
            "lp": [VectorFamily(lp_vectors(GEO_LP_VECTORS), BaireContext(L1, 1)),
                   VectorFamily(lp_vectors(GEO_LP_VECTORS), BaireContext(C0, 1)),
                   VectorFamily(steps, StepContext())],
            "sg": [VectorFamily(sg_vectors(GEO_SG_VECTORS), BaireContext(L2, 2)),
                   VectorFamily(sg_vectors(GEO_SG_VECTORS),
                                BaireContext(L1, Fraction(3, 2)))],
            "bush": rademacher_bush(GEO_BUSH_K),
        }

    def ops(self, inputs):
        ops = [Op(f"bs-{fam.context.kind.value}",
                  partial(bs_obstruction_check, fam, eps),
                  partial(verdict_is, "pass"))
               for fam, eps in inputs["bs"]]
        ops.append(Op("abs", partial(abs_obstruction_falsify, inputs["abs"],
                                     Fraction(1, 2),
                                     TrialCoeffs(grid=GEO_ABS_GRID)),
                      partial(verdict_is, "inconclusive")))
        for label, families in (("lp", inputs["lp"]), ("sg", inputs["sg"])):
            for fam in families:
                window = (0, len(fam) - 1)
                ops.append(Op(label, partial(convex_block_min, fam, window),
                              partial(verify_block_min, fam)))
        ops.append(Op("bush", partial(bush_check, inputs["bush"],
                                      Fraction(1, 2), 1),
                      partial(verdict_is, "pass")))
        return ops

    def details(self, inputs, passes):
        groups = {"bs": ("bs-l1", "bs-c0"), "abs": ("abs",),
                  "block_min": ("lp", "sg"), "bush": ("bush",)}
        return [(f"geo.{g}_s",
                 statistics.median(sum(dt for label, dt in p if label in labels)
                                   for p in passes), "s",
                 f"{' + '.join(labels)} per pass, median of {len(passes)}")
                for g, labels in groups.items()]

# ---------------------------------------------------------------------------
# cli

def readme_commands(gen_seed):
    """Every command of the README's CLI block, on its own small inputs,
    plus `norm --parallel`.  Generators run before the files they write
    are read."""
    return [
        ["gen", "--family", "full-kary", "--k", "2", "--d", "2",
         "--out", "t.json"],
        ["rank", "--tree", "t.json"],
        ["gen", "--family", "random", "--n", "10", "--seed", str(gen_seed)],
        ["derive", "--tree", "t.json", "--times", "2"],
        ["norm", "--tree", "t.json", "--vector", "x.json", "--basis", "l1",
         "--p", "2"],
        ["norm", "--tree", "t.json", "--vector", "x.json", "--basis", "l1",
         "--p", "2", "--parallel"],
        ["norm", "--vector", "x.json", "--basis", "l1", "--p", "2",
         "--oracle"],
        ["norm", "--vector", "x.json", "--basis", "l1", "--p", "0"],
        ["gen", "--family", "rademacher-bush", "--K", "4",
         "--out", "bush.json"],
        ["check-bush", "--bush", "bush.json", "--delta", "1/2",
         "--bound", "1"],
        ["gen", "--family", "delta-antichain", "--n", "6", "--basis", "l1",
         "--p", "1", "--out", "fam.json"],
        ["check-bs", "--family", "fam.json", "--epsilon", "1"],
        ["check-abs", "--family", "fam.json", "--epsilon", "1/2",
         "--grid", "0,1/2,1"],
        ["block-min", "--family", "fam.json", "--window", "0,3"],
        ["check-identity", "--identity", "branch-isometry",
         "--vector", "x.json", "--basis", "l1", "--p", "2"],
        ["probe-wf", "--lazy", "zeros-branch", "--depth", "10"],
        ["probe-wf", "--tree", "t.json", "--depth", "10"],
    ]


CLI_TIMEOUT_S = 60
FLOOR_REPEATS = 5


class Cli(Workload):
    """Every README command as its own process, one at a time.  Only this
    workload pays for interpreter start-up, imports, argparse and file
    I/O.  Each call's stdout must match every earlier call of the same
    command and the in-process `bairelab.cli.main` on the same argv."""

    name = "cli"

    def __init__(self, root, src):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def setup(self, seed, prepared=None):
        rng = random.Random(seed)
        out = self.root / ".bench_out"
        out.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        # x.json lives on the README's t.json tree (full_kary(2, 2)) with a
        # chain support, so branch-isometry applies to it as well.
        tree = sorted(full_kary(2, 2), key=node_order)
        b1, b2 = rng.randrange(2), rng.randrange(2)
        entries = [{"node": list(n), "coef": str(nonzero_coef(rng))}
                   for n in ((), (b1,), (b1, b2))]
        doc = {"tree": {"nodes": [list(n) for n in tree]}, "entries": entries}
        (workdir / "x.json").write_text(json.dumps(doc) + "\n")
        return {"workdir": workdir,
                "commands": readme_commands(rng.randrange(10**6))}

    def call(self, workdir, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "bairelab.cli", *argv], cwd=workdir,
            env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def in_process(self, workdir, argv):
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(argv))
        finally:
            os.chdir(here)
        return code, out.getvalue().encode()

    def verify(self, workdir, argv, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace')[:200]}"
        ref_code, ref = self.in_process(workdir, argv)
        if ref_code != 0 or stdout != ref:
            return "stdout differs from in-process main"
        return None

    def ops(self, inputs):
        workdir = inputs["workdir"]
        # the check's in-process main is traced: it is the traced view of
        # what the subprocess did
        return [Op(argv[0], partial(self.call, workdir, argv),
                   partial(self.verify, workdir, argv), trace_check=True)
                for argv in inputs["commands"]]

    def details(self, inputs, passes):
        samples = [dt for p in passes for _, dt in p]
        return [("cli.call_p50_ms", quantile(samples, 0.5) * 1e3, "ms",
                 f"{len(samples)} calls"),
                ("cli.call_p90_ms", quantile(samples, 0.9) * 1e3, "ms",
                 f"{len(samples)} calls")]

    def python(self, inputs, code):
        subprocess.run([sys.executable, "-c", code], env=self.env,
                       cwd=inputs["workdir"], check=True,
                       capture_output=True, timeout=CLI_TIMEOUT_S)

    def reference(self, inputs):
        """A bare interpreter start: the yardstick for this workload's
        passes in place of the in-process reference loop.  Process
        start-up is kernel and loader work, which slows down on a busy
        box by a different amount than a Python loop does; a start of
        the same interpreter slows down as the calls do."""
        self.python(inputs, "pass")

    def floors(self, inputs):
        """Median wall time of a bare interpreter and of one that imports
        bairelab.cli, alternating, in ms."""
        bare, imported = [], []
        for _ in range(FLOOR_REPEATS):
            for code, times in (("pass", bare),
                                ("import bairelab.cli", imported)):
                t0 = perf_counter()
                self.python(inputs, code)
                times.append(perf_counter() - t0)
        interp = statistics.median(bare) * 1e3
        return interp, statistics.median(imported) * 1e3 - interp

    def cleanup(self, inputs):
        shutil.rmtree(inputs["workdir"], ignore_errors=True)


def make(name, root, src):
    workloads = {"oracle-sweep": OracleSweep, "big-trees": BigTrees,
                 "geometry": Geometry}
    if name == "cli":
        return Cli(root, src)
    return workloads[name]()


NAMES = ("oracle-sweep", "big-trees", "geometry", "cli")
