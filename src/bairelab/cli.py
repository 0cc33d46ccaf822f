"""Batch command-line front end with JSON input and output.

Every subcommand prints exactly one JSON document on stdout, with sorted
keys and canonical rational strings, so runs are byte-reproducible.
Exit codes: 0 success, 2 validation or precondition failure (structured
JSON on stderr), 1 internal failure.  A value whose binary64 form
overflows fails a precondition.
"""

import argparse
import re
import sys

from . import serialize
from .bases import BasisKind
from .errors import (
    BaireLabError,
    InvalidParameter,
    KOutOfRange,
    ValidationError,
)
from .serialize import (
    dumps_canonical,
    load_json_file,
    parse_exponent,
    parse_fraction,
    parse_fraction_list,
    parse_window,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, arguments=(), **kwargs):
        super().__init__(*args, **kwargs)
        # a token starting "-<digit>", such as "-1,0,1" or "-1/2", is a
        # value: no option of this command line looks like one
        self._negative_number_matcher = re.compile(r"-\d")
        self._pending = arguments

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's arguments are added once it is chosen
        for flag, options in self._pending:
            self.add_argument(flag, **options)
        self._pending = ()
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ValidationError(message)


def _arg(parse):
    """An argparse type from a library parser: its BaireLabError becomes
    the usage error argparse reports."""

    def convert(text):
        try:
            return parse(text)
        except BaireLabError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


_fraction = _arg(parse_fraction)
_exponent = _arg(parse_exponent)
_basis = _arg(BasisKind.from_tag)
_coeff_list = _arg(parse_fraction_list)
_window = _arg(parse_window)

#: Largest bush K that `gen` writes and `check-bush` reads.  The JSON
#: layout is dense: a K = 10 file holds 1.4 million values and takes
#: seconds each way, and every further level multiplies that by four.
MAX_CLI_BUSH_K = 10


#: Most tree nodes `gen` builds.  MAX_DEPTH bounds a node's length, not the
#: k^(d+1) nodes of a full k-ary tree.  At 2^17 nodes full-kary and random
#: take 1-2 s and ~70 MB, delta-antichain 4 s and 145 MB, and each
#: doubling doubles that.
MAX_CLI_TREE_NODES = 2**17


def _check_cli_tree_nodes(family, count):
    if count > MAX_CLI_TREE_NODES:
        raise InvalidParameter(
            f"the command line builds trees of at most {MAX_CLI_TREE_NODES} "
            f"nodes; this {family} tree has more")


def _full_kary_nodes(k, d):
    """The node count (k^(d+1) - 1)/(k - 1) of full_kary(k, d), d + 1 when
    k = 1, summed level by level until it passes MAX_CLI_TREE_NODES."""
    count = level = 1
    for _ in range(d):
        level *= k
        count += level
        if count > MAX_CLI_TREE_NODES:
            break
    return count


def _check_cli_bush_k(K):
    if K > MAX_CLI_BUSH_K:
        raise KOutOfRange(
            f"the command line carries bushes up to K = {MAX_CLI_BUSH_K}, "
            f"got {K}")


def _load_tree(path):
    return serialize.tree_from_json(load_json_file(path))


def _load_vector(path, tree=None):
    obj = load_json_file(path)
    if tree is not None and isinstance(obj, dict) and "tree" in obj:
        embedded = serialize.tree_from_json(obj["tree"])
        if embedded != tree:
            raise ValidationError(
                "vector file embeds a tree different from --tree"
            )
    return serialize.vector_from_json(obj, tree=tree)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_rank(args):
    from .trees import order_index
    return {"order_index": order_index(_load_tree(args.tree))}


def _cmd_derive(args):
    from .trees import derived_tree
    return serialize.tree_to_json(derived_tree(_load_tree(args.tree),
                                              args.times))


def _cmd_norm(args):
    from .baire import baire_norm_oracle, baire_norm_witness
    tree = _load_tree(args.tree) if args.tree else None
    x = _load_vector(args.vector, tree=tree)
    if args.oracle:
        nv, witness = baire_norm_oracle(x, args.basis, args.p, with_witness=True)
    else:
        nv, witness = baire_norm_witness(x, args.basis, args.p)
    return serialize.norm_to_json(nv, witness)


def _cmd_gen(args):
    family = args.family
    if family == "full-kary":
        if args.k is None or args.d is None:
            raise InvalidParameter("full-kary needs --k and --d")
        from .trees import MAX_DEPTH, full_kary
        if args.k >= 1 and args.d <= MAX_DEPTH:  # else full_kary refuses
            _check_cli_tree_nodes(family, _full_kary_nodes(args.k, args.d))
        return serialize.tree_to_json(full_kary(args.k, args.d))
    elif family == "spine":
        if args.d is None:
            raise InvalidParameter("spine needs --d")
        from .trees import spine
        return serialize.tree_to_json(spine(args.d))
    elif family == "random":
        if args.n is None:
            raise InvalidParameter("random needs --n")
        _check_cli_tree_nodes(family, args.n)
        from .trees import random_tree
        return serialize.tree_to_json(random_tree(args.n, args.seed))
    elif family == "rademacher-bush":
        if args.K is None:
            raise InvalidParameter("rademacher-bush needs --K")
        _check_cli_bush_k(args.K)
        from .steps import rademacher_bush
        return serialize.bush_to_json(rademacher_bush(args.K))
    else:  # delta-antichain; argparse's choices admit nothing else
        if args.n is None or args.basis is None or args.p is None:
            raise InvalidParameter("delta-antichain needs --n, --basis and --p")
        _check_cli_tree_nodes(family, args.n + 1)
        from .checkers import delta_antichain_family
        fam = delta_antichain_family(args.n, args.basis, args.p)
        return serialize.family_to_json(fam)


def _cmd_check_bs(args):
    from .checkers import bs_obstruction_check
    fam = serialize.family_from_json(load_json_file(args.family))
    verdict = bs_obstruction_check(fam, args.epsilon)
    return serialize.verdict_to_json(verdict)


def _cmd_check_abs(args):
    from .checkers import TrialCoeffs, abs_obstruction_falsify
    fam = serialize.family_from_json(load_json_file(args.family))
    trials = TrialCoeffs(
        grid=tuple(args.grid) if args.grid else (),
        random_trials=args.random,
        seed=args.seed,
    )
    verdict = abs_obstruction_falsify(fam, args.epsilon, trials)
    return serialize.verdict_to_json(verdict)


def _cmd_check_bush(args):
    from .steps import bush_check
    obj = load_json_file(args.bush)
    levels = obj.get("levels") if isinstance(obj, dict) else None
    if isinstance(levels, list):
        _check_cli_bush_k(len(levels) - 1)
    bush = serialize.bush_from_json(obj)
    verdict = bush_check(bush, args.delta, args.bound)
    return serialize.verdict_to_json(verdict)


def _cmd_check_identity(args):
    from .baire import (check_branch_isometry, check_incomparable_additivity,
                        check_root_decomposition)
    if args.identity == "additivity":
        if not args.family or args.coeffs is None:
            raise InvalidParameter("additivity needs --family and --coeffs")
        fam = serialize.family_from_json(load_json_file(args.family))
        ctx = fam.context
        from .checkers import BaireContext
        if not isinstance(ctx, BaireContext):
            raise InvalidParameter("additivity applies to coefficient families")
        report = check_incomparable_additivity(
            fam.vectors, args.coeffs, ctx.kind, ctx.p
        )
    else:
        if not args.vector or args.basis is None or args.p is None:
            raise InvalidParameter(
                f"{args.identity} needs --vector, --basis and --p"
            )
        x = _load_vector(args.vector)
        if args.identity == "branch-isometry":
            report = check_branch_isometry(x, args.basis, args.p)
        else:
            report = check_root_decomposition(x, args.basis, args.p)
    return {
        "identity": args.identity,
        "passed": report.passed,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "exact": report.exact,
    }


def _cmd_probe_wf(args):
    from .trees import depth_bounded, lazy_from_tree, probe_wf, zeros_branch
    if (args.tree is None) == (args.lazy is None):
        raise InvalidParameter("give exactly one of --tree or --lazy")
    if args.tree:
        lazy = lazy_from_tree(_load_tree(args.tree), args.budget)
    else:
        name = args.lazy
        if name == "zeros-branch":
            lazy = zeros_branch(args.budget)
        elif name.startswith("bounded:"):
            try:
                depth = int(name.split(":", 1)[1])
            except ValueError:
                raise ValidationError(f"{name!r} needs an integer depth")
            lazy = depth_bounded(depth, args.budget)
        else:
            raise InvalidParameter(f"unknown lazy family {name!r}")
    verdict = probe_wf(lazy, args.depth)
    return serialize.probe_to_json(verdict)


def _cmd_block_min(args):
    from .checkers import convex_block_min
    fam = serialize.family_from_json(load_json_file(args.family))
    coeffs, value = convex_block_min(fam, args.window)
    return {
        "coeffs": list(coeffs),
        "value": value,
        "window": list(args.window),
    }


# ---------------------------------------------------------------------------
# parser assembly

def build_parser():
    """Every subcommand's name and help text, and its arguments."""
    need = {"required": True}
    compat = {"action": "store_true",
              "help": "accepted for compatibility; runs serially"}
    # per subcommand, in help order: its help text, its handler and its
    # arguments as (flag, add_argument keywords)
    commands = {
        "rank": ("order index of a tree", _cmd_rank, [("--tree", need)]),
        "derive": ("iterated derived tree", _cmd_derive, [
            ("--tree", need), ("--times", dict(type=int, default=1))]),
        "norm": ("segment-family norm of a vector", _cmd_norm, [
            ("--tree", {}), ("--vector", need),
            ("--basis", dict(need, type=_basis)),
            ("--p", dict(need, type=_exponent)),
            ("--oracle", dict(action="store_true",
                              help="use the exhaustive oracle evaluator")),
            ("--parallel", compat)]),
        "gen": ("generate corpus files", _cmd_gen, [
            ("--family", dict(need, choices=[
                "spine", "full-kary", "random", "rademacher-bush",
                "delta-antichain"])),
            *((flag, {"type": int}) for flag in ("--k", "--d", "--n", "--K")),
            ("--seed", dict(type=int, default=0)),
            ("--basis", {"type": _basis}), ("--p", {"type": _exponent}),
            ("--out", {})]),
        "check-bs": ("split-mean obstruction check", _cmd_check_bs, [
            ("--family", need), ("--epsilon", dict(need, type=_fraction)),
            ("--parallel", compat)]),
        "check-abs": ("alternating obstruction falsifier", _cmd_check_abs, [
            ("--family", need), ("--epsilon", dict(need, type=_fraction)),
            ("--grid", {"type": _coeff_list}),
            ("--random", dict(type=int, default=0)),
            ("--seed", dict(type=int, default=0))]),
        "check-bush": ("validate a dyadic bush", _cmd_check_bush, [
            ("--bush", need), ("--delta", dict(need, type=_fraction)),
            ("--bound", dict(need, type=_fraction))]),
        "check-identity": ("exact norm identities", _cmd_check_identity, [
            ("--identity", dict(need, choices=[
                "additivity", "branch-isometry", "root-decomposition"])),
            ("--family", {}), ("--coeffs", {"type": _coeff_list}),
            ("--vector", {}), ("--basis", {"type": _basis}),
            ("--p", {"type": _exponent})]),
        "probe-wf": ("finite well-foundedness probe", _cmd_probe_wf, [
            ("--tree", {}), ("--lazy", {}),
            ("--depth", dict(need, type=int)),
            ("--budget", dict(type=int, default=64))]),
        "block-min": ("norm-minimal convex block", _cmd_block_min, [
            ("--family", need), ("--window", dict(need, type=_window))]),
    }
    parser = _Parser(prog="bairelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (text, handler, arguments) in commands.items():
        sub.add_parser(name, help=text, arguments=arguments).set_defaults(
            func=handler)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        text = dumps_canonical(args.func(args)) + "\n"
        out = getattr(args, "out", None)  # gen writes the same text here
        if out:
            try:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InvalidParameter(f"cannot write --out {out}: {exc}")
        sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        name, known = type(exc).__name__, isinstance(exc, BaireLabError)
        doc = ({"error": name, "message": str(exc)} if known else
               {"error": "InternalError", "message": f"{name}: {exc}"})
        sys.stderr.write(dumps_canonical(doc) + "\n")
        return 2 if known else 1


if __name__ == "__main__":
    sys.exit(main())
