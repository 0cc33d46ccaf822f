"""The package surface: value records behave as frozen dataclasses did,
public names resolve on first use, and each CLI subcommand imports only
the modules it runs."""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import bairelab
from bairelab import (
    P_ZERO,
    BaireVector,
    BushLevels,
    CheckReport,
    Cofinite,
    DyadicStep,
    NormValue,
    ProbeVerdict,
    Segment,
    TrialCoeffs,
    Verdict,
    make_tree,
    rademacher_bush,
)
from bairelab.baire import ExponentP

ROOT = Path(__file__).resolve().parent.parent

# (value, its repr, its field tuple): the reprs are the frozen-dataclass
# texts, except the two classes that always printed their own.
RECORDS = [
    (ExponentP(F(3, 2)), "ExponentP(3/2)", (F(3, 2),)),
    (P_ZERO, "ExponentP(zero)", (None,)),
    (NormValue.exact(2, 2), "NormValue(2^(1/2))", (F(2), F(2), 2 ** 0.5)),
    (NormValue.approximate(1.5), "NormValue(~1.5)", (None, F(1), 1.5)),
    (TrialCoeffs(grid=(F(1, 2),), seed=3),
     "TrialCoeffs(grid=(Fraction(1, 2),), random_trials=0, seed=3)",
     ((F(1, 2),), 0, 3)),
    (DyadicStep(1, (1, -1)),
     "DyadicStep(resolution=1, values=(Fraction(1, 1), Fraction(-1, 1)))",
     (1, (F(1), F(-1)))),
    (rademacher_bush(1),
     "BushLevels(levels=((DyadicStep(resolution=0, values=(Fraction(1, 1),)),"
     "), (DyadicStep(resolution=1, values=(Fraction(2, 1), Fraction(0, 1))), "
     "DyadicStep(resolution=1, values=(Fraction(0, 1), Fraction(2, 1))))))",
     (rademacher_bush(1).levels,)),
    (Segment((0,), (0, 1)), "Segment(min_node=(0,), max_node=(0, 1))",
     ((0,), (0, 1))),
    (Cofinite(), "Cofinite(excluded=())", ((),)),
    (Cofinite((0, 2)), "Cofinite(excluded=(0, 2))", ((0, 2),)),
    (ProbeVerdict("branch_candidate", (0, 0)),
     "ProbeVerdict(status='branch_candidate', prefix=(0, 0))",
     ("branch_candidate", (0, 0))),
    (Verdict("pass"), "Verdict(status='pass', witness=None, tested=None)",
     ("pass", None, None)),
    (CheckReport(True, F(5), F(5), True),
     "CheckReport(passed=True, lhs=Fraction(5, 1), rhs=Fraction(5, 1), "
     "exact=True)", (True, F(5), F(5), True)),
]


@pytest.mark.parametrize("value, text, fields", RECORDS,
                         ids=[type(value).__name__ for value, _, _ in RECORDS])
def test_record_behaves_as_a_frozen_dataclass(value, text, fields):
    cls = type(value)
    assert repr(value) == text
    assert tuple(getattr(value, name) for name in cls.__slots__) == fields
    # equal hashes to the field tuple keep set iteration order unchanged
    assert hash(value) == hash(fields)
    assert value == cls(*fields) and value != fields
    assert copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


def test_a_repr_names_the_size_of_a_number_past_the_digit_limit():
    tiny = F(1, 10**4300)
    assert repr(NormValue.exact(tiny, 1)) == \
        "NormValue(1/<14285-bit integer>^(1/1))"
    assert repr(BaireVector(make_tree([(), (0,)]), {(0,): "1e-4300"})) == \
        "BaireVector([((0,), Fraction(1, <14285-bit integer>))])"
    assert repr(CheckReport(False, -1 / tiny, {"a": [tiny]}, True)) == (
        "CheckReport(passed=False, lhs=Fraction(-<14285-bit integer>, 1), "
        "rhs={'a': [Fraction(1, <14285-bit integer>)]}, exact=True)")


def test_records_of_different_classes_are_unequal():
    assert ExponentP(()) != Cofinite(())
    assert hash(ExponentP(())) == hash(Cofinite(()))
    assert Verdict("pass") != ProbeVerdict("pass")


def test_records_build_from_keywords_and_defaults():
    assert TrialCoeffs(grid=(1,), seed=2) == TrialCoeffs((1,), 0, 2)
    assert TrialCoeffs() == TrialCoeffs((), 0, 0)
    assert Verdict("pass") == Verdict("pass", None, None)
    assert Cofinite() == Cofinite(excluded=())
    assert ProbeVerdict("x") == ProbeVerdict(status="x", prefix=None)
    assert Segment(min_node=[0], max_node=[0, 1]) == Segment((0,), (0, 1))
    assert DyadicStep(resolution=0, values=[1]) == DyadicStep(0, (F(1),))
    assert BushLevels(levels=rademacher_bush(1).levels) == rademacher_bush(1)
    assert NormValue(power_base=F(1), inv_exp=F(1), approx=1.0) == \
        NormValue.exact(1, 1)
    assert CheckReport(passed=True, lhs=1, rhs=1, exact=True) == \
        CheckReport(True, 1, 1, True)


def test_every_public_name_resolves_from_its_module():
    for name in bairelab.__all__:
        value = getattr(bairelab, name)
        module = sys.modules[f"bairelab.{bairelab._MODULE_OF[name]}"]
        assert value is getattr(module, name)
    namespace = {}
    exec("from bairelab import *", namespace)
    assert set(bairelab.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bairelab.no_such_name


# Each command runs in a fresh interpreter, which prints the bairelab
# modules (and dataclasses) loaded once the command has returned.
FOOTPRINT = """
import contextlib, io, json, sys
from bairelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("bairelab") or m == "dataclasses")]))
"""

TREES_ONLY = (["rank", "--tree", "t.json"],
              ["derive", "--tree", "t.json"],
              ["gen", "--family", "full-kary", "--k", "2", "--d", "2"],
              ["probe-wf", "--lazy", "zeros-branch", "--depth", "10"])
NOT_LOADED = {"bairelab.checkers", "bairelab.simplex", "bairelab.steps"}


def _modules_loaded(tmp_path, argv):
    (tmp_path / "t.json").write_text('{"nodes": [[], [0], [1], [0, 0]]}')
    (tmp_path / "x.json").write_text(
        '{"tree": {"nodes": [[], [0], [1]]},'
        ' "entries": [{"node": [0], "coef": "3/4"}]}')
    path = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv], cwd=tmp_path,
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    code, modules = json.loads(proc.stdout)
    assert code == 0, argv
    return set(modules)


@pytest.mark.parametrize("argv", TREES_ONLY, ids=" ".join)
def test_tree_commands_load_no_norm_or_geometry_module(tmp_path, argv):
    loaded = _modules_loaded(tmp_path, argv)
    assert "bairelab.trees" in loaded
    assert not loaded & (NOT_LOADED | {"bairelab.baire", "dataclasses"})


def test_bush_command_loads_only_the_step_module(tmp_path):
    loaded = _modules_loaded(tmp_path, ["gen", "--family", "rademacher-bush",
                                        "--K", "2"])
    assert "bairelab.steps" in loaded
    assert not loaded & {"bairelab.trees", "bairelab.baire",
                         "bairelab.checkers", "bairelab.simplex", "dataclasses"}


def test_norm_command_loads_no_geometry_module(tmp_path):
    loaded = _modules_loaded(tmp_path, ["norm", "--vector", "x.json",
                                        "--basis", "l1", "--p", "2"])
    assert "bairelab.baire" in loaded
    assert not loaded & (NOT_LOADED | {"dataclasses"})


def _names_read(module):
    """Every name a module reads: bare names, attributes and the names
    it imports from elsewhere."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_the_package_holds_no_unused_import_or_private_name():
    """Every name a module imports is read in that module, and every
    private module-level name is read somewhere in the package: code
    nothing calls is deleted."""
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "bairelab").glob("*.py"))}
    unused = []
    for name, module in modules.items():
        bare = {node.id for node in ast.walk(module)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(module):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: import {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in bare]
    read = set()
    for module in modules.values():
        read.update(_names_read(module))
    for name, module in modules.items():
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}: {d} is never read" for d in defined
                       if d.startswith("_") and not d.startswith("__")
                       and d not in read]
    assert unused == []
