"""Layered benchmark for bairelab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bairelab checkout; the program is imported from
its `src/` directory.  The run imports the program and sets its inputs
up from the seed fifteen times, reporting the median, then repeats
passes over the workload's operations until S seconds have gone,
checking every output.  Both are timed in CPU seconds and divided by
the CPU time of fixed reference work timed alongside them (a Python
loop, or for `cli` a bare interpreter start), which cancels much of a
shared box's drift in speed.  It prints each metric on its own line,
then one JSON object as the last line: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A traced run spends half its time untraced and half with
spans around every module's public functions, writes the spans to
`.bench_out/`, and reports its overhead against the untraced half.

See METRICS.md for what each workload and metric is for.
"""

import argparse
import contextlib
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15

END_TO_END = (
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cpu_seconds():
    """CPU time (user + sys) of this process and of its waited-for
    children.  Unlike wall time it leaves out the time a neighbour on a
    shared box keeps this process off a core."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


#: How often, in seconds of operations, the reference is timed.
REFERENCE_EVERY_S = 0.5


def reference_loop():
    """Fixed pure-Python work of the program's two kinds: rational
    arithmetic, and building, probing and sorting a dict of node tuples
    (about 30 ms).  Timed between operations, it is the yardstick for how
    fast this machine runs Python at that moment: on a shared box that
    speed drifts by 20% over seconds, and dividing by it cancels much of
    the drift.  Both kinds are in it because they slow down by different
    amounts when the box is busy."""
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(i % 97 + 1, i % 13 + 1) * Fraction(3, i % 7 + 2)
    rng = random.Random(5)
    nodes = [()]
    for i in range(3000):
        nodes.append(nodes[rng.randrange(len(nodes))] + (i % 3,))
    depth = {n: len(n) for n in nodes}
    hits = sum(depth.get(n[:k], 0) for n in nodes for k in range(len(n)))
    nodes.sort(key=lambda n: (len(n), n))
    return total, hits, nodes[-1]


#: A typical CPU time of the reference loop on a shared 2-core Xeon box
#: running Python 3.11 (about 20 ms quiet, 40 ms busy): `setup_s` is
#: set-up time in reference loops times this, i.e. seconds on such a box
#: at a typical speed.
REFERENCE_NOMINAL_S = 0.03


def timed_reference(reference=reference_loop):
    """CPU seconds of one run of a reference."""
    c0 = cpu_seconds()
    reference()
    return cpu_seconds() - c0


class Measurement:
    """Per-pass samples of (label, wall seconds), each pass's CPU time,
    the median CPU time of the reference in each pass, and the failure
    tally."""

    def __init__(self):
        self.passes = []
        self.pass_cpu = []
        self.references = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wall = 0.0
        self.cpu = 0.0

    @property
    def pass_times(self):
        return [sum(dt for _, dt in p) for p in self.passes]

    @property
    def pass_ref(self):
        """Median over passes of the pass's CPU time in reference runs."""
        return statistics.median(
            t / r for t, r in zip(self.pass_cpu, self.references))


def measure(ops, seconds, seen, reference, tracer=None):
    """Run whole passes over `ops` while another pass of typical length
    still fits in `seconds` (always at least one), timing `reference`
    every REFERENCE_EVERY_S.  `seen` maps an operation's index to a
    digest of its first output; every later output must match it, whether
    traced or not.  Under a `tracer`, checks run paused unless the
    operation asks for its check to be traced."""
    m = Measurement()
    wall0, cpu0 = perf_counter(), cpu_seconds()
    lengths = []
    while True:
        # every pass starts from the same collector state, so automatic
        # collections fall at the same points of each pass
        gc.collect()
        pass0 = perf_counter()
        samples = []
        pass_cpu = 0.0
        references = []
        last_reference = -REFERENCE_EVERY_S
        for i, op in enumerate(ops):
            if perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append(timed_reference(reference))
                last_reference = perf_counter()
            t0, c0 = perf_counter(), cpu_seconds()
            try:
                out = op.run()
            except Exception as exc:  # a failing call is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            else:
                err = None
            samples.append((op.label, perf_counter() - t0))
            pass_cpu += cpu_seconds() - c0
            if err is None:
                with (tracer.pause() if tracer and not op.trace_check
                      else contextlib.nullcontext()):
                    err = op.check(out)
                    digest = hash(repr(out))
                if err is None and seen.setdefault(i, digest) != digest:
                    err = "output differs from an earlier pass"
            m.attempted += 1
            if err:
                m.failed += 1
                if len(m.errors) < 5:
                    m.errors.append(f"{op.label}: {err}")
        m.passes.append(samples)
        m.pass_cpu.append(pass_cpu)
        m.references.append(statistics.median(references))
        now = perf_counter()
        lengths.append(now - pass0)
        if now - wall0 + statistics.median(lengths) > seconds:
            break
    m.wall = perf_counter() - wall0
    m.cpu = cpu_seconds() - cpu0
    return m


def end_to_end(setup_s, m):
    return {
        "setup_s": setup_s,
        "pass_ref": m.pass_ref,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(rollup, passes, base, traced, floors):
    """Per-layer figures per traced pass, from the traced half, plus the
    process and tracing-overhead figures from both halves."""
    from tracing import MODULES

    r = rollup
    c = r.counters
    out = {}
    for module in MODULES:
        out[f"{module}.self_s"] = (r.module_self(module) / passes, "s")
        out[f"{module}.calls"] = (r.module_calls(module) / passes, "count")
    out.update({
        "trees.closure_s": (r.inclusive.get("trees.prefix_closure", 0.0)
                            / passes, "s"),
        "trees.closure_nodes": (c.get("trees.closure_nodes", 0) / passes,
                                "count"),
        "trees.make_tree_s": (r.inclusive.get("trees.make_tree", 0.0)
                              / passes, "s"),
        "bases.basis_norm_calls": (r.calls.get("bases.basis_norm", 0)
                                   / passes, "count"),
        "bases.compare_calls": (r.calls.get("bases.NormValue.compare", 0)
                                / passes, "count"),
        "baire.vector_us": (r.group_per_call_us("vector"), "us"),
        "baire.dp_us": (r.per_call_us("baire.baire_norm"), "us"),
        "baire.dp_calls": (r.calls.get("baire.baire_norm", 0) / passes,
                           "count"),
        "baire.oracle_us": (r.per_call_us("baire.baire_norm_oracle"), "us"),
        "baire.oracle_families": (c.get("baire.oracle_families", 0)
                                  / passes, "count"),
        "baire.witness_s": (r.inclusive.get("baire.baire_norm_witness", 0.0)
                            / passes, "s"),
        "baire.witness_segments": (c.get("baire.witness_segments", 0)
                                   / passes, "count"),
        "baire.zero_s": (r.inclusive.get("baire.baire_norm_zero", 0.0)
                         / passes, "s"),
        "checkers.bs_candidates": (c.get("checkers.bs_candidates", 0)
                                   / passes, "count"),
        "checkers.abs_trials": (c.get("checkers.abs_trials", 0) / passes,
                                "count"),
        "simplex.solve_lp_s": (r.inclusive.get("simplex.solve_lp", 0.0)
                               / passes, "s"),
        "simplex.lp_rows": (c.get("simplex.lp_rows", 0) / passes, "count"),
        "simplex.lp_cols": (c.get("simplex.lp_cols", 0) / passes, "count"),
        "steps.combine_calls": (r.calls.get("steps.step_combine", 0)
                                / passes, "count"),
        "steps.cells_touched": (c.get("steps.cells_touched", 0) / passes,
                                "count"),
        "serialize.emit_s": (r.group_time.get("emit", 0.0) / passes, "s"),
        "serialize.parse_s": (r.group_time.get("parse", 0.0) / passes, "s"),
        "serialize.doc_bytes": (c.get("serialize.doc_bytes", 0) / passes,
                                "count"),
        "cli.interp_ms": (floors[0], "ms"),
        "cli.import_ms": (floors[1], "ms"),
        "cli.main_ms": (r.per_call_us("cli.main") / 1e3, "ms"),
        "proc.wall_s": (base.wall / len(base.passes), "s"),
        "proc.pass_s": (statistics.median(base.pass_times), "s"),
        "proc.reference_ms": (statistics.median(base.references) * 1e3, "ms"),
        "proc.cpu_s": (base.cpu / len(base.passes), "s"),
        "trace.spans": (r.spans / passes, "count"),
        "trace.overhead_pct": ((traced.pass_ref / base.pass_ref - 1) * 100,
                               "%"),
    })
    return out


def set_up(name, seed, repeats=SETUP_REPEATS):
    """Set workload `name` up from `seed` `repeats` times and return the
    workloads module, the workload and inputs of the last set-up, the
    set-up CPU times and the same in reference loops.

    Benchmark-only preparation (such as finding the sampled shapes) is
    done once, untimed.  Each set-up is timed from a fresh import of the
    program (and of the workloads, which bind its names) through input
    generation, right after a reference loop.  The previous set-up's
    inputs are released first, so that peak memory holds one set."""
    workloads = importlib.import_module("workloads")
    prepared = workloads.make(name, ROOT, SRC).prepare(seed)
    times, refs = [], []
    wl = inputs = None
    for _ in range(repeats):
        if inputs is not None:
            wl.cleanup(inputs)
            wl = inputs = None
        for module in [m for m in sys.modules
                       if m.partition(".")[0] in ("bairelab", "workloads")]:
            del sys.modules[module]
        workloads = None
        gc.collect()
        reference = timed_reference()
        c0 = cpu_seconds()
        importlib.import_module("bairelab")
        importlib.import_module("bairelab.cli")
        workloads = importlib.import_module("workloads")
        wl = workloads.make(name, ROOT, SRC)
        inputs = wl.setup(seed, prepared)
        times.append(cpu_seconds() - c0)
        refs.append(times[-1] / reference)
    return workloads, wl, inputs, times, refs


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "bairelab" / "__init__.py").is_file():
        return fail(f"no bairelab sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    from tracing import Tracer

    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.NAMES)}")
    workloads, wl, inputs, setups, setup_refs = set_up(args.workload,
                                                       args.seed)
    bairelab = sys.modules["bairelab"]
    if Path(bairelab.__file__).resolve().parent != (SRC / "bairelab").resolve():
        wl.cleanup(inputs)
        return fail(f"bairelab was imported from {bairelab.__file__}, "
                    f"not from {SRC}")
    setup_s = statistics.median(setup_refs) * REFERENCE_NOMINAL_S

    try:
        ops = wl.ops(inputs)
        seen = {}
        # a workload may bring a yardstick of its own kind of work
        reference = (partial(wl.reference, inputs)
                     if hasattr(wl, "reference") else reference_loop)
        if args.trace:
            base = measure(ops, args.seconds / 2, seen, reference)
            # the traced pass rebuilds its operations, so that they bind the
            # wrappers rather than the functions bound before install
            tracer = Tracer(callers=(workloads,))
            with tracer:
                traced = measure(wl.ops(inputs), args.seconds / 2, seen,
                                 reference, tracer)
            floors = wl.floors(inputs) if hasattr(wl, "floors") else (0.0, 0.0)
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(span_file)
            layer = per_layer(tracer.rollup(), len(traced.passes), base,
                              traced, floors)
            runs = (base, traced)
        else:
            base = measure(ops, args.seconds, seen, reference)
            runs = (base,)
    finally:
        wl.cleanup(inputs)

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per "
          f"pass, {len(base.passes)} untraced passes, {attempted} ops "
          f"attempted, {failed} failed")
    for err in [e for m in runs for e in m.errors]:
        print(f"  FAILED {err}")
    figures = wl.details(inputs, base.passes) + [
        ("setup_cpu_s", statistics.median(setups), "s",
         f"median CPU time of {len(setups)} set-ups, not normalised"),
        ("pass_s", statistics.median(base.pass_times), "s",
         f"median wall time of a pass, {len(base.passes)} passes"),
        ("reference_ms", statistics.median(base.references) * 1e3, "ms",
         "median CPU time of the reference, the unit of pass_ref"),
    ]
    for name, value, unit, note in figures:
        print(f"  {name:24s} {value:14.6g} {unit:5s} {note}")
    if args.trace:
        print(f"  spans written to {span_file.relative_to(ROOT)}")
        metrics = layer
    else:
        e2e = end_to_end(setup_s, base)
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
