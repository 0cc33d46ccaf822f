"""Spans around the public functions of each bairelab module.

The tracer wraps every public function a module defines, plus a few
methods that carry per-layer counters, and puts each wrapper in every
bairelab namespace that holds the original, so calls are caught where
callers look them up (for example `bairelab.checkers.baire_norm` as well
as `bairelab.baire.baire_norm`).  Nothing under `src/` changes; the
wrappers are removed again by `uninstall`.

A span is (name, start, end, parent).  Spans stay in memory, in flat
arrays, until `write` puts them in a file.  A layer's self time is the
duration of its spans minus the time their child spans cover.
"""

import contextlib
import inspect
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

from shapes import family_count

#: The layers, named after the modules that hold them.
MODULES = ("trees", "bases", "baire", "checkers", "simplex", "steps",
           "serialize", "cli")

#: Public helpers left unwrapped: they are called per node or per value
#: (as sort keys, predicates or scalar formatters) and cost less than a
#: wrapper, so wrapping them would mostly measure the tracer.  Their time
#: stays in the self time of the span that calls them.
UNWRAPPED = {
    "trees": {"node_key", "check_node", "is_prefix", "comparable"},
    "serialize": {"jsonable", "format_fraction", "parse_fraction"},
}

#: Methods traced besides the module-level functions.
METHODS = {
    "baire": (("BaireVector", "__init__"),),
    "bases": (("NormValue", "compare"),),
    "checkers": (("VectorFamily", "mix"),),
}

#: Span groups timed by their outermost member: vector construction
#: (BaireVector and the mixing constructors), canonical JSON emit, parse.
GROUPS = {
    "vector": lambda k: k in ("baire.BaireVector", "baire.delta",
                              "baire.vector_combine",
                              "baire.linear_combination"),
    "emit": lambda k: k.startswith("serialize.") and k.endswith(
        ("dumps_canonical", "_to_json", "format_exponent")),
    "parse": lambda k: k.startswith("serialize.") and k.endswith(
        ("_from_json", "load_json_file", "parse_exponent")),
}


def _step_cells(values):
    cells = 0
    for v in values:
        if type(v).__name__ == "DyadicStep":
            cells += len(v.values)
    return cells


class Tracer:
    """Installs span-recording wrappers and rolls the spans up per layer."""

    def __init__(self, callers=()):
        """`callers` are further modules whose references to traced
        functions are replaced too, such as the benchmark's own."""
        self.callers = tuple(callers)
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._families = {}
        #: While set, wrappers call straight through and record nothing.
        self.paused = False

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def pause(self):
        """Record no spans or counters inside the block."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _wrap(self, name, fn, after=None):
        tracer = self
        nid = self._name_id(name)
        local = self._local
        lock = self._lock
        name_of, parent_of = self.name_of, self.parent
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(starts)
                name_of.append(nid)
                parent_of.append(stack[-1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- counters computed from arguments and results ----------------------

    def _after_hooks(self):
        c = self.counters

        def closure(args, kwargs, result):
            c["trees.closure_nodes"] += len(result)

        def oracle(args, kwargs, result):
            tree = args[0].support_closure()
            n = self._families.get(tree)
            if n is None:
                n = self._families[tree] = family_count(tree.nodes)
            c["baire.oracle_families"] += n

        def witness(args, kwargs, result):
            c["baire.witness_segments"] += len(result[1])

        lp_sig = None

        def lp(args, kwargs, result):
            nonlocal lp_sig
            if lp_sig is None:
                lp_sig = inspect.signature(
                    sys.modules["bairelab.simplex"].solve_lp)
            bound = lp_sig.bind(*args, **kwargs)
            a = bound.arguments
            c["simplex.lp_rows"] += (len(a.get("a_ub", ()))
                                     + len(a.get("a_eq", ())))
            c["simplex.lp_cols"] += len(a["c"])

        def doc(args, kwargs, result):
            c["serialize.doc_bytes"] += len(result)

        def cells(args, kwargs, result):
            c["steps.cells_touched"] += (
                _step_cells(args) + _step_cells(kwargs.values())
                + _step_cells((result,)))

        return {
            "trees.prefix_closure": closure,
            "baire.baire_norm_oracle": oracle,
            "baire.baire_norm_witness": witness,
            "simplex.solve_lp": lp,
            "serialize.dumps_canonical": doc,
        }, cells

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer in every namespace.
        The bairelab modules must already be imported."""
        hooks, step_cells = self._after_hooks()
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if (k == "bairelab" or k.startswith("bairelab."))
                      and m is not None] + list(self.callers)
        replacement = {}
        for short in MODULES:
            module = sys.modules["bairelab." + short]
            skip = UNWRAPPED.get(short, set())
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or attr in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                after = hooks.get(name)
                if short == "steps":
                    after = step_cells
                replacement[id(fn)] = (fn, self._wrap(name, fn, after))
            for cls_name, meth in METHODS.get(short, ()):
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                wrapped = self._wrap(f"{short}.{label}", fn)
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, wrapped)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def write(self, path):
        """One span per line: name, start, end, parent index (-1 at top)."""
        names = self.names
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_of[i]]}\t{self.start[i]!r}"
                         f"\t{self.end[i]!r}\t{self.parent[i]}\n")

    def rollup(self):
        """Per-name call count, inclusive time of outermost spans of that
        name, and self time; plus the counters and ancestry counts."""
        n = len(self.start)
        names = self.names
        name_of, parent = self.name_of, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        ids = self._name_ids
        groups = {g: {i for k, i in ids.items() if match(k)}
                  for g, match in GROUPS.items()}
        group_calls = defaultdict(int)
        group_time = defaultdict(float)
        bs_id = ids.get("checkers.bs_obstruction_check", -2)
        abs_id = ids.get("checkers.abs_obstruction_falsify", -2)
        mix_id = ids.get("checkers.VectorFamily.mix", -2)
        counters = dict(self.counters)
        for i in range(n):
            nid = name_of[i]
            name = names[nid]
            calls[name] += 1
            self_time[name] += dur[i] - child[i]
            p = parent[i]
            # inclusive times count outermost spans only, so nested or
            # recursive calls are not counted twice
            q = p
            while q >= 0 and name_of[q] != nid:
                q = parent[q]
            if q < 0:
                inclusive[name] += dur[i]
            for g, members in groups.items():
                if nid in members:
                    q = p
                    while q >= 0 and name_of[q] not in members:
                        q = parent[q]
                    if q < 0:
                        group_calls[g] += 1
                        group_time[g] += dur[i]
            if nid == mix_id:
                q = p
                while q >= 0 and name_of[q] not in (bs_id, abs_id):
                    q = parent[q]
                if q >= 0:
                    key = ("checkers.bs_candidates" if name_of[q] == bs_id
                           else "checkers.abs_trials")
                    counters[key] = counters.get(key, 0) + 1
        return Rollup(calls, inclusive, self_time, counters,
                      group_calls, group_time, n)


class Rollup:
    """Per-layer figures from one traced run."""

    def __init__(self, calls, inclusive, self_time, counters,
                 group_calls, group_time, spans):
        self.calls = calls
        self.inclusive = inclusive
        self.self_time = self_time
        self.counters = counters
        self.group_calls = group_calls
        self.group_time = group_time
        self.spans = spans

    def module_self(self, module):
        return sum(t for k, t in self.self_time.items()
                   if k.split(".", 1)[0] == module)

    def module_calls(self, module):
        return sum(c for k, c in self.calls.items()
                   if k.split(".", 1)[0] == module)

    def per_call_us(self, name):
        calls = self.calls.get(name, 0)
        return self.inclusive.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def group_per_call_us(self, group):
        calls = self.group_calls.get(group, 0)
        return self.group_time.get(group, 0.0) / calls * 1e6 if calls else 0.0
