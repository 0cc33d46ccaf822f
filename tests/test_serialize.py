import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import (
    BaireContext,
    BaireVector,
    BasisKind,
    BushLevels,
    DyadicStep,
    NormValue,
    P_ZERO,
    Segment,
    StepContext,
    TrialCoeffs,
    VectorFamily,
    Verdict,
    abs_obstruction_falsify,
    baire_norm_oracle,
    baire_norm_witness,
    baire_norm_zero,
    bs_obstruction_check,
    bush_check,
    cell_indicator,
    constant_step,
    delta_antichain_family,
    full_kary,
    make_tree,
    rademacher_bush,
    random_tree,
    spine,
    step_combine,
    weak_null_probe,
)
from bairelab.cli import main
from bairelab.errors import (
    InvalidParameter,
    ParseError,
    PrefixClosureViolation,
    ValidationError,
)
from bairelab.serialize import (
    bush_from_json,
    bush_to_json,
    dumps_canonical,
    family_from_json,
    family_to_json,
    format_fraction,
    load_json_file,
    norm_to_json,
    parse_exponent,
    parse_fraction,
    step_to_json,
    tree_from_json,
    tree_to_json,
    vector_from_json,
    vector_to_json,
    verdict_to_json,
)
from bairelab.trees import node_key

from util import random_rational_vector, seeded_rng

F = Fraction
L1, L2, C0 = BasisKind.L1, BasisKind.L2, BasisKind.C0


def test_fraction_strings():
    assert format_fraction(F(3)) == "3"
    assert format_fraction(F(-3, 4)) == "-3/4"
    assert parse_fraction("25/16") == F(25, 16)
    assert parse_fraction("-2") == F(-2)
    with pytest.raises(ValidationError):
        parse_fraction("1/0")
    with pytest.raises(ValidationError):
        parse_fraction("pi")
    # decimal exponents are bounded at the integer-string digit cap
    assert parse_fraction("1e4300") == 10**4300
    assert parse_fraction("1e-4_300") == F(1, 10**4300)
    for text in ("1e4301", "1E-4_301", "2.5e10000000"):
        with pytest.raises(ValidationError):
            parse_fraction(text)


def test_digit_strings_parse_as_fraction_strings_do():
    # "[-]digits[/digits]" skips Fraction's string parser; its value or
    # error message is the one that parser gives, at the int() digit cap
    # and at a zero denominator too, and so is every other string's
    for text in ("0", "0007", "\u0663", "\u0661\u0662", "\u00b2",
                 "9" * 4300, "9" * 4301, "-0", "-7/4", "+3", "3/-4",
                 " -3/4 ", "\u0663/\u0664", "1_0/3", "1/0", "-1/0",
                 "-" + "9" * 4301, "1/" + "9" * 4301, "-", "3/", "/3",
                 "3//4", "--3", "-6/4"):
        try:
            expected = F(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ValidationError) as err:
                parse_fraction(text)
            assert str(err.value) == f"bad rational {text!r}: {exc}"
        else:
            assert parse_fraction(text) == expected


def test_exponent_strings():
    assert parse_exponent("0") is P_ZERO
    assert parse_exponent("2").value == 2
    assert parse_exponent("3/2").value == F(3, 2)


def test_tree_round_trip_and_ordering():
    t = make_tree([(), (1,), (0,), (0, 2)])
    doc = tree_to_json(t)
    assert doc["nodes"] == [[], [0], [1], [0, 2]]  # length-lexicographic
    assert tree_from_json(doc) == t
    with pytest.raises(PrefixClosureViolation):
        tree_from_json({"nodes": [[0, 1]]})


def test_vector_round_trip():
    t = make_tree([(), (0,), (1,)])
    x = BaireVector(t, {(0,): F(3, 4), (1,): -2})
    doc = vector_to_json(x)
    assert doc["entries"] == [
        {"node": [0], "coef": "3/4"},
        {"node": [1], "coef": "-2"},
    ]
    assert vector_from_json(doc) == x
    assert vector_from_json({"entries": doc["entries"]}, tree=t) == x


def test_tree_reader_names_a_non_integer_node_before_other_faults():
    # the JSON check comes first, though a node before it is out of range
    for nodes in ([[-1], [1.5]], [[0] * 5000, [True]], [[2**32], "0"]):
        with pytest.raises(ValidationError) as exc:
            tree_from_json({"nodes": [[], *nodes]})
        assert str(exc.value) == (
            f"a node must be an array of integers, got {nodes[1]!r}")
    with pytest.raises(InvalidParameter) as exc:
        tree_from_json({"nodes": [[], [0, -1], [2**32]]})
    assert str(exc.value) == "node entries must be naturals, got -1"


def test_vector_writer_matches_the_per_fraction_rendering():
    # the writer reads x.scaled(); the rendering it replaced wrote every
    # coefficient's reduced Fraction in node_key order
    rng = seeded_rng(2702)
    big, small = random_tree(2000, 7), full_kary(3, 2)
    nodes = list(big)
    vectors = [BaireVector(big, {}), BaireVector(small, {}),
               random_rational_vector(small, rng, allow_zero=True)]
    for size in (1, 2, 17, 400, 1999, 2000):
        vectors.append(BaireVector(big, {
            n: F(rng.randint(-10**6, 10**6) or 1, rng.choice((1, 2, 6, 35)))
            for n in rng.sample(nodes, size)}))
    for x in vectors:
        expected = [{"node": list(n), "coef": format_fraction(c)}
                    for n, c in sorted(x.coeffs.items(),
                                       key=lambda kv: node_key(kv[0]))]
        assert vector_to_json(x) == {"tree": tree_to_json(x.tree),
                                     "entries": expected}
        assert vector_from_json(json.loads(
            dumps_canonical(vector_to_json(x)))) == x


def test_a_chain_vector_round_trips_in_stated_time():
    # make_tree and the round trip of a full-support spine(2000) vector
    # read each of its ~2 million node entries a few times: ~1.2 s of CPU
    t = spine(2000)
    x = BaireVector(t, {n: F(len(n) % 7 - 3 or 5, len(n) % 4 + 1) for n in t})
    start = time.process_time()
    tree = make_tree(list(t))
    back = vector_from_json(json.loads(dumps_canonical(vector_to_json(x))))
    assert time.process_time() - start < 4.0
    assert tree == t and back == x


def test_norm_json():
    nv = NormValue.exact(F(25, 16), 2)
    doc = norm_to_json(nv, witness=[Segment((0,), (0,))])
    assert doc["exact"] == {"power_base": "25/16", "inv_exp": "2"}
    assert doc["approx"] == pytest.approx(1.25)
    assert doc["witness"] == [{"min": [0], "max": [0]}]
    assert norm_to_json(NormValue.approximate(1.5))["exact"] is None


def test_verdict_json_carries_norm_values():
    v = Verdict.violated(m=2, value=NormValue.exact(F(1, 2), 2))
    doc = verdict_to_json(v)
    assert doc["status"] == "violated"
    assert doc["witness"]["value"]["exact"]["power_base"] == "1/2"


def test_bush_round_trip():
    bush = rademacher_bush(3)
    doc = bush_to_json(bush)
    assert doc["K"] == 3
    assert bush_from_json(doc) == bush
    doc["K"] = 5
    with pytest.raises(ValidationError):
        bush_from_json(doc)


def test_family_round_trips():
    fam = delta_antichain_family(3, BasisKind.C0, P_ZERO)
    doc = family_to_json(fam)
    back = family_from_json(doc)
    assert back.vectors == fam.vectors
    assert isinstance(back.context, BaireContext)
    assert back.context.kind is BasisKind.C0 and back.context.p.is_zero

    steps = VectorFamily(
        [cell_indicator(1, 1), cell_indicator(1, 2)], StepContext()
    )
    doc = family_to_json(steps)
    back = family_from_json(doc)
    assert back.vectors == steps.vectors
    assert isinstance(back.context, StepContext)


def test_dumps_canonical_formatting():
    text = dumps_canonical({"b": 1.25, "a": F(1, 3), "c": [True, None, "x"]})
    assert text == '{"a":"1/3","b":1.25,"c":[true,null,"x"]}'
    assert dumps_canonical(1 / 3) == "0.33333333333333331"
    assert json.loads(dumps_canonical({"x": 1 / 3}))["x"] == pytest.approx(1 / 3)


class _Str(str):
    pass


class _Int(int):
    pass


_texts = (st.text()
          | st.text(alphabet=st.characters(max_codepoint=0x1F))
          | st.text(alphabet='"\\/\x7f\u00e9\u2028\u2603\U0001d11e'))
_scalars = (st.none() | st.booleans() | st.integers() | _texts
            | st.builds(_Int, st.integers()) | st.builds(_Str, _texts))
_plain_documents = st.recursive(
    _scalars | st.lists(st.integers()) | st.lists(_texts)
    | st.lists(st.integers()).map(tuple) | st.lists(_texts).map(tuple),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_texts | st.builds(_Str, _texts), inner)),
    max_leaves=25,
)


@settings(max_examples=200, derandomize=True)
@given(_plain_documents)
def test_dumps_canonical_is_json_dumps_on_float_free_documents(doc):
    assert dumps_canonical(doc) == json.dumps(
        doc, sort_keys=True, separators=(",", ":"))


def test_step_writer_fills_the_dense_layout_from_the_cells():
    rng = seeded_rng(1409)
    for r in range(7):
        values = tuple(rng.choice((0, 0, 0, F(1, 3), -2, F(-7, 4)))
                       for _ in range(2**r))
        assert step_to_json(DyadicStep(r, values)) == {
            "resolution": r, "values": [format_fraction(v) for v in values]}


def test_dumps_canonical_is_deterministic():
    doc = {"tree": tree_to_json(full_kary(2, 2)), "value": 0.1 + 0.2}
    assert dumps_canonical(doc) == dumps_canonical(doc)


def test_load_json_file_errors(tmp_path):
    with pytest.raises(ParseError):
        load_json_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError) as exc:
        load_json_file(bad)
    assert "line 1" in str(exc.value)


# ---------------------------------------------------------------------------
# golden digest

# SHA-256 over every document of _canonical_documents, emitted by
# dumps_canonical one line each, recorded while dumps_canonical still
# converted the whole document to plain data before emitting it.
CANONICAL_DIGEST = (
    "e8c472293ccdaa407cd09cf8f278b5024d7c53177f593d24480a62650a669f3c"
)

EXTREME_FLOATS = (0.0, -0.0, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308,
                  1e16, 2.0**53 + 2, 1e22, 1.7976931348623157e308)


def _cli_documents(tmp_path):
    """Stdout, stderr and exit code of check-identity and block-min runs,
    and of error exits whose messages name no file path."""
    tree = make_tree([(), (0,), (1,), (0, 0), (0, 1), (1, 0)])
    rng = seeded_rng(1510)
    # root-decomposition needs a zero root coefficient, branch-isometry a
    # chain support
    vector = tmp_path / "x.json"
    vector.write_text(dumps_canonical(vector_to_json(BaireVector(
        tree, {n: c for n, c in random_rational_vector(tree, rng).coeffs.items()
               if n}))))
    families = {}
    for i, (kind, p) in enumerate(
            ((C0, P_ZERO), (L1, 1), (L2, 2), (C0, F(3, 2)), (L1, 3))):
        path = tmp_path / f"fam{i}.json"
        path.write_text(dumps_canonical(family_to_json(
            delta_antichain_family(3, kind, p))))
        families[kind, p] = str(path)
    steps = tmp_path / "steps.json"
    steps.write_text(dumps_canonical(family_to_json(VectorFamily(
        [cell_indicator(1, 1, height=2), cell_indicator(1, 2, height=2),
         constant_step(F(1, 3))], StepContext()))))
    chain = tmp_path / "chain.json"
    chain.write_text(dumps_canonical(vector_to_json(BaireVector(
        spine(4), {(0,): F(-3, 2), (0, 0, 0): 2, (0, 0, 0, 0): F(1, 7)}))))
    gap = tmp_path / "gap.json"
    gap.write_text('{"nodes": [[], [0, 1]]}')
    runs = []
    for (kind, p), path in families.items():
        runs.append(["block-min", "--family", path, "--window", "0,2"])
        runs.append(["block-min", "--family", path, "--window", "1,1"])
        runs.append(["check-identity", "--identity", "additivity",
                     "--family", path, "--coeffs", "1,-2/3,5"])
    runs.append(["block-min", "--family", str(steps), "--window", "0,2"])
    for identity, path in (("branch-isometry", chain),
                           ("root-decomposition", vector)):
        for basis in ("l1", "l2", "c0"):
            for p in ("1", "2", "3/2", "3"):
                runs.append(["check-identity", "--identity", identity,
                             "--vector", str(path), "--basis", basis,
                             "--p", p])
    runs += [
        ["block-min", "--family", families[L1, 1], "--window", "2,3"],
        ["check-identity", "--identity", "branch-isometry"],
        ["check-identity", "--identity", "root-decomposition",
         "--vector", str(vector), "--basis", "l1", "--p", "0"],
        ["rank", "--tree", str(gap)],
        ["gen", "--family", "spine"],
        ["gen", "--family", "spine", "--d", "-1"],
        ["norm", "--vector", "-", "--basis", "l7", "--p", "1"],
    ]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield {"argv": argv[0], "code": code, "out": out.getvalue(),
               "err": err.getvalue()}


def _canonical_documents(tmp_path):
    rng = seeded_rng(1509)
    trees = [make_tree([()]), full_kary(2, 3), full_kary(3, 2), spine(6)]
    trees += [random_tree(n, seed) for n in (4, 9, 15) for seed in range(3)]
    for tree in trees:
        yield tree_to_json(tree)
        for allow_zero in (False, True):
            x = random_rational_vector(tree, rng, allow_zero=allow_zero)
            yield vector_to_json(x)
            for kind in (L1, L2, C0):
                nv, seg = baire_norm_zero(x, kind, with_witness=True)
                yield norm_to_json(nv, [seg] if seg is not None else [])
                for p in (1, 2, F(3, 2), 3):
                    yield norm_to_json(*baire_norm_witness(x, kind, p))
                    if len(tree) <= 9:
                        yield norm_to_json(*baire_norm_oracle(
                            x, kind, p, with_witness=True))
    huge = BaireVector(spine(3), {(0,): F(10**40, 3), (0, 0): F(-1, 10**30)})
    yield vector_to_json(huge)
    yield norm_to_json(*baire_norm_witness(huge, L2, 3))
    for value in EXTREME_FLOATS:
        yield norm_to_json(NormValue.approximate(value), [Segment((), (0,))])
        yield {"value": value, "values": [value, -value]}
    yield norm_to_json(NormValue.exact(F(25, 16), 2))
    yield norm_to_json(NormValue.exact(F(10**30 + 1, 7), 3))
    for kind in (L1, L2, C0):
        for p in (P_ZERO, 1, 2, F(3, 2)):
            yield family_to_json(delta_antichain_family(4, kind, p))
    steps = [cell_indicator(2, 3, height=F(-5, 3)), constant_step(F(1, 7), 1),
             step_combine(F(1, 2), cell_indicator(1, 1), F(-2), cell_indicator(2, 4))]
    yield family_to_json(VectorFamily(steps, StepContext()))
    for f in steps:
        yield step_to_json(f)
    for K in (1, 2, 3):
        yield bush_to_json(rademacher_bush(K))
    # verdicts: passing, violated and inconclusive
    verdicts = [
        bs_obstruction_check(delta_antichain_family(4, L1, 1), F(1, 2)),
        bs_obstruction_check(delta_antichain_family(4, C0, P_ZERO), F(1, 2)),
        bs_obstruction_check(delta_antichain_family(3, L2, 2), F(2, 3)),
        bs_obstruction_check(delta_antichain_family(3, L1, F(3, 2)), F(9, 10)),
        abs_obstruction_falsify(delta_antichain_family(6, C0, P_ZERO), F(1, 2),
                                TrialCoeffs(grid=(F(1), F(-1, 2)))),
        abs_obstruction_falsify(delta_antichain_family(6, L1, 1), F(1, 2),
                                TrialCoeffs(random_trials=5, seed=2)),
        abs_obstruction_falsify(delta_antichain_family(5, L2, 3), F(4, 5)),
        weak_null_probe(delta_antichain_family(6, C0, P_ZERO), F(1, 3)),
        weak_null_probe(delta_antichain_family(4, L1, 1), F(1, 2)),
        weak_null_probe(delta_antichain_family(3, L2, 2), F(9, 10)),
    ]
    bush = rademacher_bush(3)
    levels = [list(level) for level in bush.levels]
    levels[2][1] = step_combine(1, levels[2][1], 1, constant_step(F(1, 100)))
    perturbed = BushLevels(tuple(tuple(level) for level in levels))
    for candidate, delta, bound in ((bush, F(1, 2), 1), (bush, 1, 1),
                                    (bush, F(1, 2), F(1, 2)),
                                    (perturbed, F(1, 2), 2)):
        verdicts.append(bush_check(candidate, delta, bound))
    verdicts.append(Verdict.violated(m=2, value=NormValue.exact(F(1, 2), 2),
                                     coeffs=(F(1, 3), 0.25)))
    for v in verdicts:
        yield verdict_to_json(v)
    yield from _cli_documents(tmp_path)


def test_canonical_json_is_pinned_bit_for_bit(tmp_path):
    digest = hashlib.sha256()
    for doc in _canonical_documents(tmp_path):
        digest.update(dumps_canonical(doc).encode() + b"\n")
    assert digest.hexdigest() == CANONICAL_DIGEST


# ---------------------------------------------------------------------------
# refusal paths

@pytest.mark.parametrize("doc", [{1: 2}, [float("inf")], {"x": object()}],
                         ids=["non-string-key", "non-finite-float",
                              "unserializable"])
def test_emitter_refuses_what_json_cannot_carry(doc):
    from bairelab.errors import ValidationError
    with pytest.raises(ValidationError):
        dumps_canonical(doc)
