"""Canonical JSON interchange: the per-type converters and readers for
trees, vectors, norms, verdicts, steps, bushes and families, and the
emitter their documents go through.

dumps_canonical accepts plain JSON data (dicts with string keys, lists,
tuples, strings, ints, finite floats, booleans and None) in which
Fraction and NormValue values may stand anywhere.  Output is
byte-deterministic: object keys are sorted, rationals are decimal-free
"p/q" strings (plain "p" for integers), floats are rendered with up to
17 significant digits, and no locale-dependent formatting is involved
anywhere.
"""

import json
import math
from fractions import Fraction

from .bases import BasisKind, NormValue
from .errors import (
    MAX_DECIMAL_EXPONENT,
    InvalidParameter,
    ParseError,
    ValidationError,
    exponent_too_large,
    format_fraction,
    natural,
)


def parse_fraction(text):
    """A rational from a "p/q" or decimal string, or from an integer.
    Floats and booleans are rejected, not coerced: a JSON float has
    already lost digits (1e-400 reads as 0).  A decimal exponent beyond
    MAX_DECIMAL_EXPONENT in magnitude is rejected."""
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise ValidationError(
            f"a rational must be a string or an integer, got {text!r}"
        )
    # "[-]digits[/digits]" is read by int(), which gives Fraction's own
    # value and errors; anything else goes through Fraction's parser
    num, slash, den = text.partition("/")
    plain = (num[1:] if num[:1] == "-" else num).isdecimal() and (
        den.isdecimal() or not slash)
    if not plain and exponent_too_large(text):
        raise ValidationError(
            f"bad rational {text!r}: decimal exponent beyond "
            f"{MAX_DECIMAL_EXPONENT} in magnitude"
        )
    try:
        if not plain:
            return Fraction(text.strip())
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {text!r}: {exc}")


def format_exponent(p):
    return p.text()


def parse_exponent(text):
    from .baire import ExponentP
    return ExponentP.of(parse_fraction(text))


def parse_fraction_list(text):
    """Comma-separated rationals; blank items are skipped."""
    return [parse_fraction(part) for part in text.split(",") if part.strip()]


def parse_window(text):
    """A block window "start,length" of two integers; it covers vectors
    start..start+length inclusive, length + 1 of them."""
    parts = text.split(",")
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise ValidationError("window must be 'start,length'")


# ---------------------------------------------------------------------------
# canonical emitter

#: json.dumps(s, ensure_ascii=True)'s own C encoder for a string.
_quote = json.encoder.encode_basestring_ascii

#: The plain JSON types; an instance of a subclass is written as its base.
_PLAIN = (bool, int, float, str, list, tuple, dict)


def _emit(obj, out):
    kind = type(obj)
    if kind not in _PLAIN and obj is not None:
        kind = next((t for t in _PLAIN if isinstance(obj, t)), None)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is list or kind is tuple or kind is dict:
        # a list of plain ints is written as its repr, which is built in
        # C, without the spaces, and a list of plain strings in one join
        kinds = kind is not dict and set(map(type, obj))
        if kinds == {int}:
            out.append(repr(list(obj)).replace(" ", ""))
        elif kinds == {str}:
            out.append("[" + ",".join(map(_quote, obj)) + "]")
        else:
            # a str, an int or a list of plain ints is written inline
            is_dict = kind is dict
            out.append("{" if is_dict else "[")
            for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
                head = "," if i else ""
                if is_dict:
                    key, item = item
                    if not isinstance(key, str):
                        raise ValidationError("object keys must be strings")
                    head += _quote(key) + ":"
                leaf = type(item)
                if leaf is str:
                    out.append(head + _quote(item))
                elif leaf is int:
                    out.append(head + str(item))
                elif leaf is list and set(map(type, item)) <= {int}:
                    out.append(head + repr(item).replace(" ", ""))
                else:
                    out.append(head)
                    _emit(item, out)
            out.append("}" if is_dict else "]")
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is float:
        if not math.isfinite(obj):
            raise ValidationError("non-finite float in output")
        out.append(format(obj, ".17g"))
    else:
        plain = jsonable(obj)
        if plain is obj:
            raise ValidationError(f"cannot serialize {type(obj).__name__}")
        _emit(plain, out)


def dumps_canonical(obj):
    """The canonical JSON text of `obj`, in one walk (see the module
    docstring for what it accepts)."""
    out = []
    _emit(obj, out)
    return "".join(out)


def jsonable(value):
    """Plain JSON-ready data for a Fraction, a NormValue, or a dict, list
    or tuple holding them; any other value is returned as it is."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, NormValue):
        return norm_to_json(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# per-type converters

def tree_to_json(tree):
    return {"nodes": [list(n) for n in tree]}


def _object(obj, what):
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _array(value, what):
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be an array, got {value!r}")
    return value


def tree_from_json(obj):
    """A tree from JSON, naming a node not of integers before any fault."""
    from .trees import make_tree
    nodes = _array(_object(obj, "a tree").get("nodes"), '"nodes"')
    try:
        if set(map(type, nodes)) <= {list}:
            return make_tree(nodes)
    except InvalidParameter:
        pass
    for n in nodes:
        _node_from_json(n)
    return make_tree(nodes)


def _node_from_json(node):
    """A node from its JSON array; floats and booleans are rejected, not
    coerced (bool is an int subclass, so true would read as 1)."""
    if not isinstance(node, list) or not set(map(type, node)) <= {int}:
        raise ValidationError(f"a node must be an array of integers, got {node!r}")
    return tuple(node)


def _entries_to_json(x):
    """The entries in node_key order, from x.scaled(): a full support in
    the tree's own order, any other sorted."""
    from .trees import node_key
    d, ints = x.scaled()
    nodes = x.tree if len(ints) == len(x.tree) else sorted(ints, key=node_key)
    return [{"node": list(n), "coef": format_fraction(ints[n], d)}
            for n in nodes]


def vector_to_json(x):
    return {"tree": tree_to_json(x.tree), "entries": _entries_to_json(x)}


def vector_from_json(obj, tree=None):
    from .baire import BaireVector
    _object(obj, "a vector")
    if tree is None:
        tree = tree_from_json(obj.get("tree"))
    return BaireVector(tree, _coeffs_from_entries(obj.get("entries")))


def _coeffs_from_entries(entries):
    """Coefficients of an entry array: objects with an integer-array
    "node" and a rational "coef"; repeated nodes add up."""
    coeffs = {}
    for e in _array(entries, "entries"):
        if not isinstance(e, dict) or "node" not in e or "coef" not in e:
            raise ValidationError(
                f'an entry must be an object with "node" and "coef", got {e!r}'
            )
        node = _node_from_json(e["node"])
        c = parse_fraction(e["coef"])
        coeffs[node] = coeffs[node] + c if node in coeffs else c
    return coeffs


def segment_to_json(seg):
    return {"min": list(seg.min_node), "max": list(seg.max_node)}


def norm_to_json(nv, witness=None):
    doc = {
        "approx": float(nv.approx),
        "exact": (
            {
                "power_base": format_fraction(nv.power_base),
                "inv_exp": format_fraction(nv.inv_exp),
            }
            if nv.is_exact
            else None
        ),
    }
    if witness is not None:
        doc["witness"] = [segment_to_json(s) for s in witness]
    return doc


def verdict_to_json(v):
    return {
        "status": v.status,
        "witness": jsonable(v.witness) if v.witness is not None else None,
        "tested": v.tested,
    }


def step_to_json(f):
    """The dense layout, filled from the step's non-zero cells."""
    values = ["0"] * 2**f.resolution
    for i, v in f.cells().items():
        values[i] = format_fraction(v)
    return {"resolution": f.resolution, "values": values}


def step_from_json(obj, parsed=None):
    """A step from its JSON form.  parsed maps the value strings read so
    far in the document to their Fractions; it keeps strings only, since
    True and 1.0 equal 1 as dict keys and must still be refused."""
    from .steps import DyadicStep, _check_resolution
    _object(obj, "a step")
    values = _array(obj.get("values"), '"values"')
    resolution = natural(obj.get("resolution"), '"resolution"', lo=None,
                         error=ValidationError)
    parsed = {} if parsed is None else parsed
    cells = {}
    for i, v in enumerate(values):
        f = parsed.get(v) if type(v) is str else parse_fraction(v)
        if f is None:
            f = parsed[v] = parse_fraction(v)
        if f:
            cells[i] = f
    _check_resolution(resolution, len(values))
    return DyadicStep._of(resolution, cells)


def bush_to_json(bush):
    return {
        "K": bush.top_level,
        "levels": [[step_to_json(f) for f in level] for level in bush.levels],
    }


def bush_from_json(obj):
    from .steps import BushLevels
    levels = _array(_object(obj, "a bush").get("levels"), '"levels"')
    parsed = {}
    bush = BushLevels(tuple(
        tuple(step_from_json(f, parsed) for f in _array(level, "a bush level"))
        for level in levels
    ))
    if "K" in obj and natural(obj["K"], '"K"', lo=None,
                              error=ValidationError) != bush.top_level:
        raise ValidationError("bush K field disagrees with the level count")
    return bush


def family_to_json(family):
    from .checkers import StepContext
    ctx = family.context
    if isinstance(ctx, StepContext):
        return {"steps": [step_to_json(f) for f in family.vectors]}
    return {
        "basis": ctx.kind.value,
        "p": format_exponent(ctx.p),
        "tree": tree_to_json(family.vectors[0].tree),
        "vectors": [_entries_to_json(x) for x in family.vectors],
    }


def family_from_json(obj):
    from .baire import BaireVector
    from .checkers import BaireContext, StepContext, VectorFamily
    _object(obj, "a family")
    if "steps" in obj:
        parsed = {}
        steps = [step_from_json(f, parsed)
                 for f in _array(obj["steps"], '"steps"')]
        return VectorFamily(steps, StepContext())
    kind = BasisKind.from_tag(obj.get("basis"))
    p = parse_exponent(obj.get("p"))
    tree = tree_from_json(obj.get("tree"))
    vectors = [BaireVector(tree, _coeffs_from_entries(entries))
               for entries in _array(obj.get("vectors"), '"vectors"')]
    return VectorFamily(vectors, BaireContext(kind, p))


def probe_to_json(verdict):
    return {
        "status": verdict.status,
        "prefix": list(verdict.prefix) if verdict.prefix is not None else None,
    }


def load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(path, "-", "file not found")
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno} col {exc.colno}", exc.msg)
    except (OSError, ValueError) as exc:  # a bad encoding, a too-long int
        raise ParseError(path, "-", str(exc))
    except RecursionError:
        raise ParseError(path, "-", "nesting too deep")
