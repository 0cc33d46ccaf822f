"""Self-tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a bairelab checkout.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bairelab.baire  # noqa: E402
from bairelab import VectorFamily, make_tree  # noqa: E402

import workloads  # noqa: E402
from shapes import (  # noqa: E402
    MAX_NODES, all_shapes, expected_count, family_count, node_order,
    systematic_sample)
from tracing import Tracer  # noqa: E402


def fingerprint(inputs):
    """A digest of a workload's inputs that ignores where files live."""

    def plain(v):
        if isinstance(v, VectorFamily):
            return [v.context.describe()] + [plain(x) for x in v.vectors]
        if isinstance(v, dict):
            return {k: plain(x) for k, x in sorted(v.items(), key=repr)
                    if k != "workdir"}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return repr(v)

    doc = plain(inputs)
    if "workdir" in inputs:
        doc["x.json"] = (inputs["workdir"] / "x.json").read_text()
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def make(name):
    return workloads.make(name, ROOT, ROOT / "src")


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in workloads.NAMES:
            wl = make(name)
            runs = [wl.setup(seed) for seed in (5, 5, 6)]
            try:
                a, b, c = (fingerprint(r) for r in runs)
            finally:
                for r in runs:
                    wl.cleanup(r)
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)


class ShapeTests(unittest.TestCase):
    def test_enumeration_matches_the_criterion_1_space(self):
        shapes = all_shapes()
        self.assertEqual(len(shapes), 52_787)
        self.assertEqual(len(set(shapes)), len(shapes))
        sizes = Counter(len(s) for s in shapes)
        self.assertEqual(sizes, {n: expected_count(n)
                                 for n in range(1, MAX_NODES + 1)})
        for s in shapes:
            nodes = set(s)
            self.assertEqual(list(s), sorted(s, key=node_order))
            for v in s:
                self.assertTrue(all(e < 3 for e in v))
                self.assertTrue(not v or v[:-1] in nodes)

    def test_systematic_sample_is_spread_in_proportion(self):
        shapes = set(all_shapes())
        sizes = Counter(len(s) for s in shapes)
        a, b, c = (systematic_sample(40, u) for u in (0.25, 0.25, 0.75))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        for sample in (a, c):
            self.assertEqual(len(set(sample)), 40)
            self.assertTrue(set(sample) <= shapes)
            drawn = Counter(len(s) for s in sample)
            for n in sizes:
                self.assertLessEqual(
                    abs(drawn[n] - 40 * sizes[n] / len(shapes)), 1, n)

    def test_prepared_sweep_setup_equals_a_self_contained_one(self):
        wl = make("oracle-sweep")
        self.assertEqual(fingerprint(wl.setup(8, wl.prepare(8))),
                         fingerprint(wl.setup(8)))

    def test_family_recurrence_counts_the_oracle_families(self):
        for s in all_shapes(max_nodes=6):
            tree = make_tree(s)
            self.assertEqual(
                family_count(s),
                len(bairelab.baire._segment_families(tree)), s)


class TraceTests(unittest.TestCase):
    #: A few cheap operations of each workload, by index in the pass.
    PICKS = {"oracle-sweep": (0, 1, 2, 21), "big-trees": (2, 3),
             "geometry": (4, 8)}

    def test_traced_and_untraced_outputs_are_identical(self):
        original = bairelab.baire.baire_norm
        for name, picks in self.PICKS.items():
            wl = make(name)
            inputs = wl.setup(3)
            ops = wl.ops(inputs)
            plain = [repr(ops[i].run()) for i in picks]
            tracer = Tracer(callers=(workloads,))
            with tracer:
                traced_ops = wl.ops(inputs)
                traced = [repr(traced_ops[i].run()) for i in picks]
            self.assertEqual(plain, traced, name)
            self.assertGreater(len(tracer), 0, name)
            spans = len(tracer)
            with tracer, tracer.pause():
                traced_ops[picks[0]].run()
            self.assertEqual(len(tracer), spans, name)
            for i in picks:
                self.assertIsNone(ops[i].check(ops[i].run()), name)
        self.assertIs(bairelab.baire.baire_norm, original)

    def test_traced_cli_main_matches_untraced(self):
        wl = make("cli")
        inputs = wl.setup(3)
        try:
            argvs = inputs["commands"]
            plain = [wl.in_process(inputs["workdir"], a) for a in argvs]
            tracer = Tracer(callers=(workloads,))
            with tracer:
                traced = [wl.in_process(inputs["workdir"], a) for a in argvs]
            self.assertEqual(plain, traced)
            self.assertTrue(all(code == 0 for code, _ in plain))
            rollup = tracer.rollup()
            self.assertEqual(rollup.calls["cli.main"], len(argvs))
        finally:
            wl.cleanup(inputs)


class InterfaceTests(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_benchmark_json_lists_what_the_run_reports(self):
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        m = run.Measurement()
        m.passes, m.pass_cpu = [[("op", 1.0)]], [1.0]
        m.references, m.wall = [0.01], 1.0
        layer = run.per_layer(Tracer().rollup(), 1, m, m, (0.0, 0.0))
        self.assertEqual([(x["name"], x["unit"]) for x in spec["per_layer"]],
                         [(k, unit) for k, (_, unit) in layer.items()])


if __name__ == "__main__":
    unittest.main()
