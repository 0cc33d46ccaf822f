import json
from fractions import Fraction

import pytest

from bairelab import (
    BasisKind,
    P_ZERO,
    BaireVector,
    delta_antichain_family,
    full_kary,
    make_tree,
    order_index,
)
from bairelab.cli import main
from bairelab.serialize import (
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


def test_cli_validation_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rank", "--tree", str(tmp_path / "no.json"))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"

    bad = write(tmp_path, "bad.json", {"nodes": [[0, 1]]})
    code, _, err = run_cli(capsys, "rank", "--tree", bad)
    assert code == 2
    assert json.loads(err)["error"] == "PrefixClosureViolation"

    code, _, err = run_cli(capsys, "rank", "--bogus-flag", "x")
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"

    code, _, err = run_cli(capsys, "norm", "--vector", "v.json", "--basis",
                           "l7", "--p", "2")
    assert code == 2


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
