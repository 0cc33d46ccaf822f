import json
from fractions import Fraction

import pytest

from bairelab import (
    BaireContext,
    BaireVector,
    BasisKind,
    NormValue,
    P_ZERO,
    Segment,
    StepContext,
    VectorFamily,
    Verdict,
    cell_indicator,
    delta_antichain_family,
    full_kary,
    make_tree,
    rademacher_bush,
)
from bairelab.errors import ParseError, PrefixClosureViolation, ValidationError
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
    tree_from_json,
    tree_to_json,
    vector_from_json,
    vector_to_json,
    verdict_to_json,
)

F = Fraction


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
