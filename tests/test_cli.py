import contextlib
import hashlib
import io
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import (
    BasisKind,
    P_ZERO,
    BaireVector,
    delta_antichain_family,
    full_kary,
    make_tree,
    order_index,
    prefix_closure,
    rademacher_bush,
)
from bairelab.cli import main
from bairelab.serialize import (
    bush_to_json,
    dumps_canonical,
    family_to_json,
    tree_to_json,
    vector_to_json,
)

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc) + "\n")
    return str(path)


@pytest.fixture()
def tree_file(tmp_path):
    return write(tmp_path, "t.json", tree_to_json(full_kary(2, 2)))


def test_rank_command(capsys, tree_file):
    code, out, err = run_cli(capsys, "rank", "--tree", tree_file)
    assert code == 0 and err == ""
    assert json.loads(out) == {"order_index": 3}


def test_rank_matches_library(capsys, tmp_path):
    t = make_tree([(), (0,), (1,), (1, 0)])
    path = write(tmp_path, "t.json", tree_to_json(t))
    code, out, _ = run_cli(capsys, "rank", "--tree", path)
    assert json.loads(out)["order_index"] == order_index(t)


def test_derive_command(capsys, tree_file):
    code, out, _ = run_cli(capsys, "derive", "--tree", tree_file)
    assert code == 0
    assert json.loads(out)["nodes"] == [[], [0], [1]]
    code, out, _ = run_cli(capsys, "derive", "--tree", tree_file, "--times", "3")
    assert json.loads(out)["nodes"] == []


def test_norm_command_example(capsys, tmp_path):
    t = make_tree([(), (0,), (1,)])
    x = BaireVector(t, {(0,): F(3, 4), (1,): 1})
    vec = write(tmp_path, "x.json", vector_to_json(x))
    tree = write(tmp_path, "t.json", tree_to_json(t))
    code, out, _ = run_cli(
        capsys, "norm", "--tree", tree, "--vector", vec,
        "--basis", "l1", "--p", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == {"power_base": "25/16", "inv_exp": "2"}
    assert doc["approx"] == pytest.approx(1.25)
    assert doc["witness"] == [
        {"min": [0], "max": [0]},
        {"min": [1], "max": [1]},
    ]


def test_norm_oracle_and_parallel_agree(capsys, tmp_path):
    t = make_tree([(), (0,), (1,), (0, 0), (0, 1)])
    x = BaireVector(t, {(0,): F(1, 2), (0, 0): 1, (0, 1): -1, (1,): F(5, 3)})
    chain = make_tree([(), (0,), (0, 0)])
    y = BaireVector(chain, {(0,): 2, (0, 0): 1})
    for name, vector, basis, p in [
        ("x.json", x, "l2", "2"),
        ("y.json", y, "c0", "1"),
    ]:
        vec = write(tmp_path, name, vector_to_json(vector))
        runs = {}
        for label, extra in {
            "plain": [],
            "oracle": ["--oracle"],
            "parallel": ["--parallel"],
        }.items():
            code, out, _ = run_cli(
                capsys, "norm", "--vector", vec, "--basis", basis, "--p", p,
                *extra
            )
            assert code == 0
            runs[label] = out
        assert runs["plain"] == runs["parallel"]
        assert (
            json.loads(runs["oracle"])["exact"]
            == json.loads(runs["plain"])["exact"]
        )
    # the c0 witness is the oracle's least maximizer, byte for byte
    assert runs["plain"] == runs["oracle"]
    assert json.loads(runs["plain"])["witness"] == [{"min": [0], "max": [0]}]


def test_norm_zero_variant(capsys, tmp_path):
    t = make_tree([(), (0,), (1,), (0, 0)])
    x = BaireVector(t, dict.fromkeys(t, F(1)))
    vec = write(tmp_path, "x.json", vector_to_json(x))
    code, out, _ = run_cli(capsys, "norm", "--vector", vec, "--basis", "l1", "--p", "0")
    doc = json.loads(out)
    assert doc["exact"]["power_base"] == "3"
    assert doc["witness"] == [{"min": [], "max": [0, 0]}]


def test_gen_commands_are_reproducible(capsys, tmp_path):
    out1 = run_cli(capsys, "gen", "--family", "spine", "--d", "3")[1]
    assert json.loads(out1)["nodes"] == [[], [0], [0, 0], [0, 0, 0]]

    out2 = run_cli(capsys, "gen", "--family", "full-kary", "--k", "2", "--d", "2")[1]
    assert len(json.loads(out2)["nodes"]) == 7

    r1 = run_cli(capsys, "gen", "--family", "random", "--n", "10", "--seed", "42")[1]
    r2 = run_cli(capsys, "gen", "--family", "random", "--n", "10", "--seed", "42")[1]
    assert r1 == r2
    assert len(json.loads(r1)["nodes"]) == 10

    target = tmp_path / "bush.json"
    out3 = run_cli(
        capsys, "gen", "--family", "rademacher-bush", "--K", "4",
        "--out", str(target),
    )[1]
    assert target.read_text() == out3
    code, out, _ = run_cli(
        capsys, "check-bush", "--bush", str(target),
        "--delta", "1/2", "--bound", "1",
    )
    assert json.loads(out)["status"] == "pass"


def test_norm_oracle_refuses_the_zero_variant(capsys, tmp_path):
    t = make_tree([(), (0,)])
    vec = write(tmp_path, "x.json", vector_to_json(BaireVector(t, {(0,): 1})))
    code, out, err = run_cli(capsys, "norm", "--vector", vec, "--basis", "l1",
                             "--p", "0", "--oracle")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "InvalidParameter",
                               "message": "the oracle takes p >= 1 only"}


def test_check_bs_command(capsys, tmp_path):
    fam = delta_antichain_family(4, BasisKind.L1, 1)
    path = write(tmp_path, "fam.json", family_to_json(fam))
    code, out, _ = run_cli(capsys, "check-bs", "--family", path, "--epsilon", "1")
    assert json.loads(out)["status"] == "pass"

    fam2 = delta_antichain_family(4, BasisKind.L2, 2)
    path2 = write(tmp_path, "fam2.json", family_to_json(fam2))
    code, out, _ = run_cli(capsys, "check-bs", "--family", path2, "--epsilon", "1")
    doc = json.loads(out)
    assert doc["status"] == "violated"
    assert doc["witness"]["value"]["exact"]["power_base"] == "1/2"
    par = run_cli(
        capsys, "check-bs", "--family", path2, "--epsilon", "1", "--parallel"
    )[1]
    assert par == out


def test_check_abs_command(capsys, tmp_path):
    fam = delta_antichain_family(6, BasisKind.L1, 1)
    path = write(tmp_path, "fam.json", family_to_json(fam))
    code, out, _ = run_cli(capsys, "check-abs", "--family", path, "--epsilon", "1/2")
    assert json.loads(out)["status"] == "inconclusive"

    fam2 = delta_antichain_family(8, BasisKind.C0, P_ZERO)
    path2 = write(tmp_path, "fam2.json", family_to_json(fam2))
    code, out, _ = run_cli(capsys, "check-abs", "--family", path2, "--epsilon", "1/2")
    doc = json.loads(out)
    assert doc["status"] == "violated" and doc["witness"]["ell"] == 2

    fam3 = delta_antichain_family(20, BasisKind.L1, 1)
    path3 = write(tmp_path, "fam3.json", family_to_json(fam3))
    code, out, err = run_cli(capsys, "check-abs", "--family", path3,
                             "--epsilon", "1/2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "FamilyTooLarge"


def test_check_identity_commands(capsys, tmp_path):
    t = make_tree([(), (0,), (1,), (0, 0)])
    fam_doc = {
        "basis": "l1",
        "p": "2",
        "tree": tree_to_json(t),
        "vectors": [
            [{"node": [0], "coef": "1"}, {"node": [0, 0], "coef": "1"}],
            [{"node": [1], "coef": "1"}],
        ],
    }
    fam = write(tmp_path, "fam.json", fam_doc)
    code, out, _ = run_cli(
        capsys, "check-identity", "--identity", "additivity",
        "--family", fam, "--coeffs", "1,1",
    )
    doc = json.loads(out)
    assert doc["passed"] is True and doc["lhs"] == "5" and doc["rhs"] == "5"

    x = BaireVector(make_tree([(), (0,), (0, 0)]), {(): 1, (0,): 1, (0, 0): 1})
    vec = write(tmp_path, "x.json", vector_to_json(x))
    code, out, _ = run_cli(
        capsys, "check-identity", "--identity", "branch-isometry",
        "--vector", vec, "--basis", "l1", "--p", "2",
    )
    assert json.loads(out)["passed"] is True

    y = BaireVector(make_tree([(), (0,), (1,)]), {(0,): 1, (1,): 1})
    vec2 = write(tmp_path, "y.json", vector_to_json(y))
    code, out, _ = run_cli(
        capsys, "check-identity", "--identity", "root-decomposition",
        "--vector", vec2, "--basis", "l2", "--p", "2",
    )
    doc = json.loads(out)
    assert doc["passed"] is True and doc["lhs"] == "2"


def test_probe_wf_command(capsys, tree_file):
    code, out, _ = run_cli(
        capsys, "probe-wf", "--lazy", "zeros-branch", "--depth", "10"
    )
    doc = json.loads(out)
    assert doc["status"] == "branch_candidate" and doc["prefix"] == [0] * 10

    code, out, _ = run_cli(
        capsys, "probe-wf", "--lazy", "bounded:3", "--depth", "10"
    )
    assert json.loads(out)["status"] == "well_founded_certified"

    code, out, _ = run_cli(capsys, "probe-wf", "--tree", tree_file, "--depth", "9")
    assert json.loads(out)["status"] == "well_founded_certified"

    code, _, err = run_cli(
        capsys, "probe-wf", "--lazy", "zeros-branch", "--depth", "10",
        "--budget", "5",
    )
    assert code == 2 and json.loads(err)["error"] == "BudgetExceeded"


def test_block_min_command(capsys, tmp_path):
    fam = delta_antichain_family(4, BasisKind.C0, P_ZERO)
    path = write(tmp_path, "fam.json", family_to_json(fam))
    code, out, _ = run_cli(capsys, "block-min", "--family", path, "--window", "0,3")
    doc = json.loads(out)
    assert doc["coeffs"] == ["1/4"] * 4
    assert doc["value"]["exact"]["power_base"] == "1/4"


def test_block_min_window_holds_length_plus_one_vectors(capsys, tmp_path):
    # "start,length" covers vectors start..start+length
    fam = str(tmp_path / "fam.json")
    code, _, _ = run_cli(capsys, "gen", "--family", "delta-antichain",
                         "--n", "6", "--basis", "l1", "--p", "1", "--out", fam)
    assert code == 0
    code, out, _ = run_cli(capsys, "block-min", "--family", fam,
                           "--window", "0,0")
    assert code == 0 and json.loads(out)["coeffs"] == ["1"]
    code, out, _ = run_cli(capsys, "block-min", "--family", fam,
                           "--window", "2,3")
    assert code == 0 and len(json.loads(out)["coeffs"]) == 4
    code, out, err = run_cli(capsys, "block-min", "--family", fam,
                             "--window", "3,3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "WindowOutOfRange"


def test_cli_validation_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rank", "--tree", str(tmp_path / "no.json"))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"

    bad = write(tmp_path, "bad.json", {"nodes": [[0, 1]]})
    code, _, err = run_cli(capsys, "rank", "--tree", bad)
    assert code == 2
    assert json.loads(err)["error"] == "PrefixClosureViolation"

    for argv in (("rank", "--bogus-flag", "x"), ("gen", "--family", "mystery")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

    code, _, err = run_cli(capsys, "norm", "--vector", "v.json", "--basis",
                           "l7", "--p", "2")
    assert code == 2

    # a directory and JSON nested past the decoder's depth are read errors
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for path in (tmp_path, deep):
        code, _, err = run_cli(capsys, "rank", "--tree", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("argv, message", [
    (["block-min", "--family", "{fam}", "--window", "a,b"],
     "argument --window: window must be 'start,length'"),
    (["check-abs", "--family", "{fam}", "--epsilon", "1/2", "--grid", "1,x"],
     "argument --grid: bad rational 'x'"),
    (["check-identity", "--identity", "additivity", "--family", "{fam}",
      "--coeffs", "1,x"],
     "argument --coeffs: bad rational 'x'"),
], ids=["window", "grid", "coeffs"])
def test_list_options_report_their_argument(capsys, tmp_path, argv, message):
    fam = write(tmp_path, "fam.json",
                family_to_json(delta_antichain_family(4, BasisKind.L1, 1)))
    code, out, err = run_cli(capsys, *(fam if a == "{fam}" else a
                                       for a in argv))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValidationError"
    assert doc["message"].startswith(message)


@pytest.mark.parametrize("value", ["-1,0,1", "-1/2,1"])
def test_a_list_value_may_start_with_a_minus(capsys, tmp_path, value):
    fam = write(tmp_path, "fam.json",
                family_to_json(delta_antichain_family(4, BasisKind.L1, 1)))
    argv = ["check-abs", "--family", fam, "--epsilon", "1/2"]
    joined = run_cli(capsys, *argv, f"--grid={value}")
    assert joined[0] == 0 and joined[2] == ""
    assert run_cli(capsys, *argv, "--grid", value) == joined


@pytest.mark.parametrize("argv, error, message", [
    (["--epsilon", "-1/2"], "InvalidParameter", "epsilon must be positive"),
    (["--epsilon", "1/2", "--grid", "-x"], "ValidationError",
     "argument --grid: expected one argument"),
], ids=["negative-epsilon", "grid-like-an-option"])
def test_a_minus_value_reaches_its_reader(capsys, tmp_path, argv, error,
                                          message):
    fam = write(tmp_path, "fam.json",
                family_to_json(delta_antichain_family(4, BasisKind.L1, 1)))
    code, out, err = run_cli(capsys, "check-abs", "--family", fam, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error, "message": message}


def _assert_validation_exit(code, out, err):
    assert code == 2 and out == ""
    assert json.loads(err)["error"] in ("ValidationError", "ParseError")


@pytest.mark.parametrize("entry", [
    {"node": [1.5], "coef": "1"},
    {"node": [True], "coef": "1"},
    {"coef": "1"},
    "[1]",
], ids=["float-node", "bool-node", "missing-node", "string-entry"])
def test_norm_rejects_malformed_entries(capsys, tmp_path, entry):
    doc = {"tree": {"nodes": [[], [1]]}, "entries": [entry]}
    vec = write(tmp_path, "x.json", doc)
    code, out, err = run_cli(
        capsys, "norm", "--vector", vec, "--basis", "l1", "--p", "1"
    )
    _assert_validation_exit(code, out, err)


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


STEP = '{"resolution": 1, "values": ["1", "0"]}'


@pytest.mark.parametrize("step", [
    '{"resolution": 1, "values": "20"}',
    '{"resolution": 0.9, "values": ["1"]}',
    '{"resolution": "1", "values": ["1", "0"]}',
    '{"values": ["1"]}',
    '{"resolution": 1, "values": [0.1, 0]}',
    '{"resolution": 1, "values": [1e-400, 1]}',
], ids=["string-values", "float-resolution", "string-resolution",
        "missing-resolution", "float-value", "underflowing-value"])
def test_step_reader_is_strict(capsys, tmp_path, step):
    fam = write_text(tmp_path, "fam.json", f'{{"steps": [{step}, {STEP}]}}')
    code, out, err = run_cli(
        capsys, "block-min", "--family", fam, "--window", "0,1"
    )
    _assert_validation_exit(code, out, err)


BUSH_LEVELS = ('[[{"resolution": 0, "values": ["1"]}], '
               '[{"resolution": 1, "values": ["2", "0"]}, '
               '{"resolution": 1, "values": ["0", "2"]}]]')


@pytest.mark.parametrize("bush", [
    '{"levels": 5}',
    f'{{"K": "1", "levels": {BUSH_LEVELS}}}',
    f'{{"K": true, "levels": {BUSH_LEVELS}}}',
    f'{{"K": 1.0, "levels": {BUSH_LEVELS}}}',
    '{"levels": [5, []]}',
], ids=["levels-number", "string-K", "bool-K", "float-K", "level-number"])
def test_bush_reader_is_strict(capsys, tmp_path, bush):
    path = write_text(tmp_path, "bush.json", bush)
    code, out, err = run_cli(
        capsys, "check-bush", "--bush", path, "--delta", "1/2", "--bound", "1"
    )
    _assert_validation_exit(code, out, err)


# SHA-256 of `gen --family rademacher-bush --K 10`'s file, recorded when
# every step stored all of its cells
BUSH_K10_DIGEST = (
    "437334d73c0be6915ce6ab6ba4c3ba9a31dca6652aeb00936b1fe2a411836638"
)


def test_bush_commands_at_the_cli_k_bound(capsys, tmp_path):
    target = tmp_path / "bush.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "rademacher-bush",
                           "--K", "10", "--out", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == BUSH_K10_DIGEST
    code, out, _ = run_cli(capsys, "check-bush", "--bush", str(target),
                           "--delta", "1/2", "--bound", "1")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_gen_depth_limit_holds(capsys, tmp_path):
    from bairelab.trees import MAX_DEPTH
    target = tmp_path / "spine.json"
    code, _, _ = run_cli(capsys, "gen", "--family", "spine",
                         "--d", str(MAX_DEPTH), "--out", str(target))
    assert code == 0
    assert len(json.loads(target.read_text())["nodes"]) == MAX_DEPTH + 1
    for argv in (("--family", "spine", "--d", str(MAX_DEPTH + 1)),
                 ("--family", "full-kary", "--k", "1",
                  "--d", str(MAX_DEPTH + 1))):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InvalidParameter"


def test_block_min_refuses_the_step_lp_past_its_cell_bound(
        capsys, tmp_path):
    from bairelab.checkers import MAX_STEP_LP_CELLS
    res = MAX_STEP_LP_CELLS.bit_length() - 1
    for r, want in ((res, 0), (res + 1, 2)):
        cells = ["0"] * 2**r
        cells[0] = str(2**r)
        fam = write(tmp_path, "steps.json", {"steps": [
            {"resolution": r, "values": cells},
            {"resolution": 0, "values": ["1"]}]})
        code, out, err = run_cli(capsys, "block-min", "--family", fam,
                                 "--window", "0,1")
        assert code == want
        if want:
            assert json.loads(err)["error"] == "FunctionalSetTooLarge"


def test_bush_commands_refuse_k_past_the_cli_bound(capsys, tmp_path):
    target = tmp_path / "bush.json"
    code, out, err = run_cli(capsys, "gen", "--family", "rademacher-bush",
                             "--K", "11", "--out", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert json.loads(err)["error"] == "KOutOfRange"
    # eleven levels past level 0, none of them a valid level: the level
    # count is refused before any step is read
    path = write_text(tmp_path, "big.json",
                      json.dumps({"K": 11, "levels": [["junk"]] * 12}))
    code, out, err = run_cli(capsys, "check-bush", "--bush", path,
                             "--delta", "1/2", "--bound", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "KOutOfRange"


FAMILY_TREE = '"tree": {"nodes": [[], [0], [1]]}'
FAMILY_VECTORS = ('"vectors": [[{"node": [0], "coef": "1"}], '
                  '[{"node": [1], "coef": "1"}]]')


@pytest.mark.parametrize("family", [
    f'{{"basis": "l1", {FAMILY_TREE}, {FAMILY_VECTORS}}}',
    f'{{"basis": "l1", "p": 1.5, {FAMILY_TREE}, {FAMILY_VECTORS}}}',
    f'{{"basis": "l1", "p": "1", {FAMILY_TREE}, "vectors": 5}}',
    '{"steps": 5}',
    f'{{"basis": "l1", "p": "1", {FAMILY_TREE}, '
    '"vectors": [[{"node": [0], "coef": 0.1}], [{"node": [1], "coef": "1"}]]}',
], ids=["missing-p", "float-p", "vectors-number", "steps-number",
        "float-coef"])
def test_family_reader_is_strict(capsys, tmp_path, family):
    path = write_text(tmp_path, "fam.json", family)
    code, out, err = run_cli(
        capsys, "check-bs", "--family", path, "--epsilon", "1/2"
    )
    _assert_validation_exit(code, out, err)


@pytest.mark.parametrize("vector", [
    '{"tree": {"nodes": [[], [1]]}}',
    '{"tree": {"nodes": [[], [1]]}, "entries": [{"node": [1], "coef": 0.1}]}',
    '{"tree": {"nodes": [[], [1]]}, '
    '"entries": [{"node": [1], "coef": 1e-400}]}',
], ids=["missing-entries", "float-coef", "underflowing-coef"])
def test_vector_reader_is_strict(capsys, tmp_path, vector):
    path = write_text(tmp_path, "x.json", vector)
    code, out, err = run_cli(
        capsys, "norm", "--vector", path, "--basis", "l1", "--p", "1"
    )
    _assert_validation_exit(code, out, err)


def test_huge_decimal_exponents_exit_fast(capsys, tmp_path):
    huge = "1e10000000"
    tree = {"nodes": [[], [0], [1]]}
    vectors = [[{"node": [0], "coef": "1"}], [{"node": [1], "coef": "1"}]]
    vec = write(tmp_path, "x.json", {
        "tree": tree, "entries": [{"node": [0], "coef": huge}]})
    steps = write(tmp_path, "steps.json", {"steps": [
        {"resolution": 0, "values": ["1"]},
        {"resolution": 0, "values": [huge]}]})
    fam = write(tmp_path, "fam.json", {
        "basis": "l1", "p": huge, "tree": tree, "vectors": vectors})
    ok = write(tmp_path, "ok.json", {
        "basis": "l1", "p": "1", "tree": tree, "vectors": vectors})
    for argv in (
        ("norm", "--vector", vec, "--basis", "l1", "--p", "1"),
        ("block-min", "--family", steps, "--window", "0,1"),
        ("check-bs", "--family", fam, "--epsilon", "1/2"),
        ("check-bs", "--family", ok, "--epsilon", huge),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"] == "ValidationError", argv


def test_block_min_beyond_binary64_exits_2(capsys, tmp_path):
    # the (l2, 3/2) norm of the uniform mean squares 10^200 in binary64,
    # which is inf without an OverflowError
    tree = {"nodes": [[], [0], [1]]}
    fam = write(tmp_path, "fam.json", {
        "basis": "l2", "p": "3/2", "tree": tree,
        "vectors": [[{"node": [0], "coef": "1e200"}],
                    [{"node": [1], "coef": "1"}]]})
    code, out, err = run_cli(capsys, "block-min", "--family", fam,
                             "--window", "0,1")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "InvalidParameter"
    assert "binary64 range" in doc["message"]


def test_gen_out_into_a_missing_directory(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "gen", "--family", "spine", "--d", "2",
        "--out", str(tmp_path / "missing" / "t.json"),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidParameter"


# Documents for the property below: reader-shaped documents, half of
# them with one value (or the whole document) swapped for arbitrary JSON
# or one key deleted.
json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
rationals = st.integers(-3, 3) | st.sampled_from(["1/2", "-2", "0", "1e400"])
trees = st.lists(st.lists(st.integers(0, 2), max_size=3), max_size=5).map(
    lambda ns: {"nodes": [list(n) for n in prefix_closure([()] + ns)]})


def _entries(tree):
    return st.lists(st.fixed_dictionaries(
        {"node": st.sampled_from(tree["nodes"]), "coef": rationals}),
        max_size=4)


vectors = trees.flatmap(lambda t: st.fixed_dictionaries(
    {"tree": st.just(t), "entries": _entries(t)}))
steps = st.integers(0, 2).flatmap(lambda r: st.fixed_dictionaries(
    {"resolution": st.just(r),
     "values": st.lists(rationals, min_size=2**r, max_size=2**r)}))
families = trees.flatmap(lambda t: st.fixed_dictionaries(
    {"basis": st.sampled_from(["l1", "l2", "c0"]),
     "p": st.sampled_from(["0", "1", "2", "3/2"]), "tree": st.just(t),
     "vectors": st.lists(_entries(t), min_size=1, max_size=4)})
) | st.fixed_dictionaries({"steps": st.lists(steps, min_size=1, max_size=4)})
bushes = st.integers(1, 2).flatmap(lambda k: st.fixed_dictionaries(
    {"K": st.just(k),
     "levels": st.tuples(*(st.lists(steps, min_size=2**j, max_size=2**j)
                           for j in range(k + 1))).map(list)}))


def _slots(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _slots(value, path + (key,))


@st.composite
def mutated(draw, shaped):
    doc = draw(shaped)
    if draw(st.booleans()):
        return doc
    path = draw(st.sampled_from(list(_slots(doc))))
    if not path:
        return draw(json_docs)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_docs)
    return doc


COMMANDS = [
    (["rank", "--tree", "{doc}"], trees),
    (["norm", "--vector", "{doc}", "--basis", "l1", "--p", "1"], vectors),
    (["norm", "--tree", "{tree}", "--vector", "{doc}", "--basis", "c0",
      "--p", "2"], vectors),
    (["check-bs", "--family", "{doc}", "--epsilon", "1/2"], families),
    (["check-bush", "--bush", "{doc}", "--delta", "1/2", "--bound", "1"],
     bushes),
    (["block-min", "--family", "{doc}", "--window", "0,1"], families),
]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(COMMANDS).flatmap(
    lambda c: st.tuples(st.just(c[0]), mutated(c[1]))))
def test_arbitrary_json_exits_0_or_2(command):
    argv, doc = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = {"{doc}": Path(tmp) / "doc.json", "{tree}": Path(tmp) / "t.json"}
        files["{doc}"].write_text(json.dumps(doc))
        files["{tree}"].write_text('{"nodes": [[], [0], [1]]}')
        argv = [str(files[a]) if a in files else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])


def test_tree_nodes_share_the_strict_parser(capsys, tmp_path):
    tree = write(tmp_path, "t.json", {"nodes": [[], [True]]})
    code, out, err = run_cli(capsys, "rank", "--tree", tree)
    _assert_validation_exit(code, out, err)


def test_family_entries_share_the_strict_parser(capsys, tmp_path):
    doc = {"basis": "l1", "p": "1", "tree": {"nodes": [[], [0], [1]]},
           "vectors": [[{"node": [0], "coef": "1"}],
                       [{"node": [True], "coef": "1"}]]}
    fam = write(tmp_path, "fam.json", doc)
    code, out, err = run_cli(capsys, "check-bs", "--family", fam,
                             "--epsilon", "1/2")
    _assert_validation_exit(code, out, err)


def test_probe_wf_rejects_a_non_integer_bound(capsys):
    code, out, err = run_cli(
        capsys, "probe-wf", "--lazy", "bounded:x", "--depth", "3"
    )
    _assert_validation_exit(code, out, err)


def test_cli_round_trip_rerun(capsys, tmp_path):
    # parsing a command's own emitted JSON and re-running is identical
    out1 = run_cli(capsys, "gen", "--family", "random", "--n", "8",
                   "--seed", "7")[1]
    path = tmp_path / "t.json"
    path.write_text(out1)
    out2 = run_cli(capsys, "derive", "--tree", str(path), "--times", "0")[1]
    assert out2 == out1


def test_every_command_is_byte_deterministic(capsys, tmp_path):
    t = make_tree([(), (0,), (1,), (0, 0)])
    vec = write(
        tmp_path, "x.json",
        vector_to_json(BaireVector(t, dict.fromkeys(t, F(1)))),
    )
    fam = write(
        tmp_path, "fam.json",
        family_to_json(delta_antichain_family(4, BasisKind.C0, P_ZERO)),
    )
    commands = [
        ["gen", "--family", "spine", "--d", "3"],
        ["norm", "--vector", vec, "--basis", "l1", "--p", "2"],
        ["norm", "--vector", vec, "--basis", "l2", "--p", "1"],
        ["check-bs", "--family", fam, "--epsilon", "1/4"],
        ["block-min", "--family", fam, "--window", "0,3"],
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv


# ---------------------------------------------------------------------------
# refusal paths

def _step_family(tmp_path):
    return write(tmp_path, "steps.json", {"steps": [
        {"resolution": 0, "values": ["1"]},
        {"resolution": 0, "values": ["-1"]}]})


def _antichain(tmp_path):
    return write(tmp_path, "fam.json",
                 family_to_json(delta_antichain_family(2, BasisKind.L1, 1)))


@pytest.mark.parametrize("argv", [
    lambda tmp: ["gen", "--family", "full-kary", "--k", "2"],
    lambda tmp: ["gen", "--family", "random"],
    lambda tmp: ["gen", "--family", "rademacher-bush"],
    lambda tmp: ["gen", "--family", "delta-antichain", "--n", "3",
                 "--basis", "l1"],
    lambda tmp: ["derive", "--tree", write(
        tmp, "t.json", tree_to_json(full_kary(2, 1))), "--times", "-1"],
    lambda tmp: ["check-identity", "--identity", "additivity",
                 "--family", _antichain(tmp)],
    lambda tmp: ["check-identity", "--identity", "additivity",
                 "--family", _step_family(tmp), "--coeffs", "1,1"],
    lambda tmp: ["probe-wf", "--depth", "2"],
    lambda tmp: ["probe-wf", "--depth", "2", "--lazy", "zeros-branch",
                 "--tree", write(tmp, "t.json",
                                 tree_to_json(full_kary(2, 1)))],
    lambda tmp: ["probe-wf", "--depth", "2", "--lazy", "ones-branch"],
], ids=["gen-full-kary-without-d", "gen-random-without-n",
        "gen-bush-without-K", "gen-antichain-without-p",
        "derive-negative-times", "additivity-without-coeffs",
        "additivity-on-steps", "probe-wf-neither-tree-nor-lazy",
        "probe-wf-both-tree-and-lazy", "probe-wf-unknown-lazy"])
def test_cli_refuses_malformed_requests(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidParameter"


@pytest.mark.parametrize("source, depth, budget", [
    (["--lazy", "zeros-branch"], -1, 64),
    (["--lazy", "zeros-branch"], 100_000, 100_000),
    (None, -2, 64),
])
def test_probe_wf_refuses_a_depth_outside_its_range(capsys, tree_file,
                                                    source, depth, budget):
    source = source or ["--tree", tree_file]
    start = time.process_time()
    code, out, err = run_cli(capsys, "probe-wf", *source, "--depth",
                             str(depth), "--budget", str(budget))
    assert time.process_time() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "InvalidParameter",
        "message": f"probe depth {depth} outside [0, 4096]"}


@pytest.mark.parametrize("argv", [
    lambda tmp: ["check-abs", "--family", _antichain(tmp), "--epsilon", "1/2",
                 "--random", "-3"],
    lambda tmp: ["check-abs", "--family", _antichain(tmp), "--epsilon", "1/2",
                 "--random", "100001"],
    lambda tmp: ["probe-wf", "--lazy", "bounded:-3", "--depth", "2"],
], ids=["random-negative", "random-past-its-bound", "bounded-negative"])
def test_cli_refuses_an_integer_out_of_its_range_fast(capsys, tmp_path, argv):
    argv = argv(tmp_path)
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidParameter"


def test_derive_stops_once_the_tree_is_empty(capsys, tmp_path):
    path = write(tmp_path, "t.json", tree_to_json(make_tree([(), (0,)])))
    start = time.process_time()
    code, out, _ = run_cli(capsys, "derive", "--tree", path,
                           "--times", "3000000")
    assert time.process_time() - start < 1.0
    assert code == 0
    assert out == run_cli(capsys, "derive", "--tree", path, "--times", "2")[1]
    assert json.loads(out) == tree_to_json(make_tree([]))


def test_gen_refuses_a_tree_past_the_node_bound(capsys, monkeypatch):
    # at the bound every family builds; one node past it, nothing is built
    import bairelab.cli as cli
    assert cli.MAX_CLI_TREE_NODES == 2**17
    monkeypatch.setattr(cli, "MAX_CLI_TREE_NODES", 15)
    at_bound = [["--family", "full-kary", "--k", "2", "--d", "3"],
                ["--family", "full-kary", "--k", "1", "--d", "14"],
                ["--family", "random", "--n", "15"],
                ["--family", "delta-antichain", "--n", "14",
                 "--basis", "l1", "--p", "1"]]
    past = [["--family", "full-kary", "--k", "2", "--d", "4"],
            ["--family", "full-kary", "--k", "1", "--d", "15"],
            ["--family", "full-kary", "--k", "15", "--d", "4096"],
            ["--family", "random", "--n", "16"],
            ["--family", "delta-antichain", "--n", "15",
             "--basis", "l1", "--p", "1"]]
    for argv in at_bound:
        assert run_cli(capsys, "gen", *argv)[0] == 0, argv
    for argv in past:
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err) == {
            "error": "InvalidParameter",
            "message": "the command line builds trees of at most 15 nodes; "
                       f"this {argv[1]} tree has more"}


def test_gen_builds_a_random_tree_at_the_node_bound(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "random",
                           "--n", str(2**17))
    assert code == 0 and len(json.loads(out)["nodes"]) == 2**17
    start = time.process_time()
    code, out, err = run_cli(capsys, "gen", "--family", "random",
                             "--n", str(2**17 + 1))
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidParameter"


def test_cli_reports_an_internal_failure(capsys, tree_file, monkeypatch):
    import bairelab.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_rank", broken)
    code, out, err = run_cli(capsys, "rank", "--tree", tree_file)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "InternalError",
                               "message": "RuntimeError: boom"}


@pytest.mark.parametrize("argv, error", [
    (lambda tmp: ["rank", "--tree", _long_integer_tree(tmp)], "ParseError"),
    (lambda tmp: ["check-bs", "--family", _antichain(tmp),
                  "--epsilon", "1e-4300"], "InvalidParameter"),
    (lambda tmp: ["check-abs", "--family", _antichain(tmp),
                  "--epsilon", "1/2", "--grid", "1e-4300,1"],
     "InvalidParameter"),
    (lambda tmp: ["check-bush", "--bush", _bush(tmp), "--delta", "1e-4300",
                  "--bound", "1"], "InvalidParameter"),
    (lambda tmp: ["check-bush", "--bush", _bush(tmp), "--delta", "1/2",
                  "--bound", "1e4300"], "InvalidParameter"),
], ids=["read-integer", "check-bs-epsilon", "check-abs-grid",
        "check-bush-delta", "check-bush-bound"])
def test_past_the_integer_digit_limit_exits_2_fast(capsys, tmp_path, argv,
                                                   error):
    """An integer literal past Python's 4300-digit limit in a file, and a
    rational whose text would pass it, exit 2 within 0.5 s of CPU."""
    argv = argv(tmp_path)
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


def _long_integer_tree(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"nodes": [[], [' + "9" * 4400 + ']]}')
    return str(path)


def _bush(tmp_path):
    return write(tmp_path, "bush.json", bush_to_json(rademacher_bush(1)))
