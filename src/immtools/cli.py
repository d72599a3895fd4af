"""Command-line front end.

Subcommands read and write the shared JSON formats on files or standard
streams ("-" means stdin).  Exit codes: 0 success, 1 malformed input,
2 verification or decomposition rejection, 3 a resource limit reached:
the immersion search budget ran out, a subset search met more than 16
auxiliary-graph vertices, or an integer argument or a bound has more
decimal digits than the interpreter converts.  A usage error is malformed
input.

Every JSON document written to standard output is, byte for byte, what
`json.dumps(obj, sort_keys=True, indent=2)` followed by one newline gives:
keys sorted, two spaces of indent per level, items separated by "," and a
newline, ": " after each key, non-ASCII characters as \\uXXXX escapes,
and "[]" and "{}" for empty containers.  `_dumps` writes those bytes
without the standard library's pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, List, Optional

from . import bounds as bounds_mod
from . import generators
from .immersion import ABSENT, BUDGET, FOUND, find_immersion, verify_immersion
from .jsonio import (
    cut_witness_to_json,
    failure_to_json,
    graph_from_json,
    graph_to_json,
    immersion_from_json,
    immersion_to_json,
    linearity_from_json,
    linearity_to_json,
    structure_from_json,
    structure_to_json,
    torso_to_json,
    treecut_from_json,
)
from .multigraph import Multigraph
from .pathdecomp import (
    FailureWitness,
    SizeLimitError,
    linear_decompose,
    verify_linear_certificate,
)
from .treecut import edge_sum, structure_decompose, torso_at, verify_structure

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_REJECTED = 2
EXIT_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ValueError on a usage error instead
    of exiting, so that `main` reports it as malformed input."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


class _DigitLimitError(Exception):
    """An integer argument with more digits than the interpreter converts.
    Not a ValueError, so that argparse passes it on instead of reporting
    an invalid value."""


def _int_max_str_digits() -> int:
    """The interpreter's limit on decimal digits in an int-string
    conversion, 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# what `int` accepts in base 10: one optional sign, digits with single
# underscores between them, surrounding whitespace
_DECIMAL = re.compile(r"\s*[+-]?(\d(?:_?\d)*)\s*")


def _integer(text: str) -> int:
    """`int` for integer arguments, except that a decimal integer longer
    than the interpreter converts is a limit reached, not malformed input."""
    try:
        return int(text)
    except ValueError:
        decimal = _DECIMAL.fullmatch(text)
        digits = decimal.group(1).replace("_", "") if decimal else ""
        limit = _int_max_str_digits()
        if limit and len(digits) > limit:
            raise _DigitLimitError(
                f"an integer argument has {len(digits)} digits, more than the"
                f" {limit}-digit limit on integer conversion (sys.set_int_max_str_digits)"
            ) from None
        raise


_integer.__name__ = "int"  # argparse names the type in "invalid int value"


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _read_graph(path: str) -> Multigraph:
    return graph_from_json(_read_json(path))


def _emit(obj: Any) -> None:
    print(_dumps(obj))


def _dumps(obj: Any, newline: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` for the values the
    artifact encoders build: dicts with string keys, lists, strings, ints
    and bools.  Any other value raises TypeError.  The standard encoder
    runs in pure Python when asked to indent; this writer joins the same
    bytes with the C string quoter.  `newline` is the line break and indent
    that close obj's own level."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    inner = newline + "  "
    if kind is list:
        if not obj:
            return "[]"
        try:  # most lists hold strings only
            body = ("," + inner).join(map(_quote, obj))
        except TypeError:
            body = ("," + inner).join([_dumps(v, inner) for v in obj])
        return "[" + inner + body + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _parse_W(spec: str, G: Multigraph) -> frozenset:
    if spec == "all":
        return G.vertices
    W = frozenset(x for x in spec.split(",") if x)
    unknown = W - G.vertices
    if unknown:
        raise ValueError(f"unknown vertices in --W: {sorted(unknown)}")
    return W


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "pk":
        G = generators.gen_pk(args.k)
    elif args.family == "pk-chorded":
        G = generators.gen_pk_chorded(args.k)
    elif args.family == "complete":
        G = generators.gen_complete(args.n)
    else:
        G = generators.gen_random_multigraph(
            args.n, args.edges, args.max_multiplicity, args.seed
        )
    _emit(graph_to_json(G))
    return EXIT_OK


def _cmd_find_immersion(args: argparse.Namespace) -> int:
    G = _read_graph(args.host)
    H = _read_graph(args.pattern)
    result = find_immersion(G, H, strong=args.strong, budget=args.budget)
    if result.status == BUDGET:
        _emit("budget")
        return EXIT_LIMIT
    if result.status == ABSENT:
        _emit("absent")
        return EXIT_OK
    _emit(immersion_to_json(result.certificate))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.artifact == "immersion":
        G = _read_graph(args.host)
        H = _read_graph(args.pattern)
        cert = immersion_from_json(_read_json(args.cert))
        bad = verify_immersion(G, H, cert)
    elif args.artifact == "linear":
        G = _read_graph(args.graph)
        W = _parse_W(args.W, G)
        cert = linearity_from_json(_read_json(args.cert))
        bad = verify_linear_certificate(G, W, cert, args.a, args.w, args.p)
    else:
        G = _read_graph(args.graph)
        result = structure_from_json(_read_json(args.structure))
        bad = verify_structure(
            G, result.decomposition, result.certificates, args.alpha
        )
    if bad:
        for msg in bad:
            print(msg, file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph)
    if args.shape == "linear":
        W = _parse_W(args.W, G)
        result = linear_decompose(G, W, m=args.m, w_limit=args.w_limit)
        encode = linearity_to_json
    else:
        result = structure_decompose(G, args.alpha)
        encode = structure_to_json
    if isinstance(result, FailureWitness):
        _emit(failure_to_json(result))
        return EXIT_REJECTED
    _emit(encode(result))
    return EXIT_OK


def _cmd_edge_sum(args: argparse.Namespace) -> int:
    G1 = _read_graph(args.g1)
    G2 = _read_graph(args.g2)
    pi = _read_json(args.pi)
    if not isinstance(pi, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in pi.items()
    ):
        raise ValueError("--pi must be a JSON object mapping edge ids to edge ids")
    _emit(graph_to_json(edge_sum(G1, args.v1, G2, args.v2, pi)))
    return EXIT_OK


def _cmd_torso(args: argparse.Namespace) -> int:
    G = _read_graph(args.graph)
    D = treecut_from_json(_read_json(args.decomp))
    _emit(torso_to_json(torso_at(G, D, args.node)))
    return EXIT_OK


def _check_digits(*values: int) -> None:
    """Raise SizeLimitError if a value has more decimal digits than the
    interpreter's integer-to-string conversion limit."""
    limit = _int_max_str_digits()
    if limit and any(abs(n) >= 10**limit for n in values):
        raise SizeLimitError(
            f"the bound has more than {limit} decimal digits, the limit on"
            " integer-to-string conversion (sys.set_int_max_str_digits)"
        )


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.quantity == "d-of-k":
        value = bounds_mod.d_of_k(args.k)
    elif args.quantity == "theorem31":
        constants = dataclasses.asdict(bounds_mod.theorem31_constants(_read_graph(args.pattern)))
        _check_digits(*constants.values())
        _emit(constants)
        return EXIT_OK
    elif args.quantity == "converse":
        value = bounds_mod.converse_n(args.d, args.a, args.w, args.p)
    else:
        value = bounds_mod.converse_n_alpha(args.alpha)
    _check_digits(value)
    print(value)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not modify
    it, and each call to `main` gets a fresh namespace."""
    parser = _Parser(
        prog="immtools",
        description="Multigraph immersion search, path-like and tree-cut "
        "decompositions, and their certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a generated multigraph as JSON")
    gsub = gen.add_subparsers(dest="family", required=True)
    p = gsub.add_parser("pk", help="path with edges thickened to multiplicity k")
    p.add_argument("k", type=_integer)
    p = gsub.add_parser("pk-chorded", help="thickened path plus distance-two chords")
    p.add_argument("k", type=_integer)
    p = gsub.add_parser("complete", help="simple complete graph")
    p.add_argument("n", type=_integer)
    p = gsub.add_parser("random", help="seeded random multigraph")
    p.add_argument("n", type=_integer)
    p.add_argument("edges", type=_integer)
    p.add_argument("max_multiplicity", type=_integer)
    p.add_argument("--seed", type=_integer, default=0)
    gen.set_defaults(func=_cmd_gen)

    fi = sub.add_parser("find-immersion", help="search for an immersion certificate")
    fi.add_argument("--host", required=True)
    fi.add_argument("--pattern", required=True)
    fi.add_argument("--strong", action="store_true")
    fi.add_argument("--budget", type=_integer, default=None)
    fi.set_defaults(func=_cmd_find_immersion)

    ver = sub.add_parser("verify", help="check an emitted certificate")
    vsub = ver.add_subparsers(dest="artifact", required=True)
    p = vsub.add_parser("immersion")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--cert", required=True)
    p = vsub.add_parser("linear")
    p.add_argument("--graph", required=True)
    p.add_argument("--W", required=True, help='comma-separated vertices or "all"')
    p.add_argument("--cert", required=True)
    p.add_argument("--a", type=_integer, required=True)
    p.add_argument("--w", type=_integer, required=True)
    p.add_argument("--p", type=_integer, required=True)
    p = vsub.add_parser("structure")
    p.add_argument("--graph", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--alpha", type=_integer, required=True)
    ver.set_defaults(func=_cmd_verify)

    dec = sub.add_parser("decompose", help="compute a decomposition certificate")
    dsub = dec.add_subparsers(dest="shape", required=True)
    p = dsub.add_parser("linear")
    p.add_argument("--graph", required=True)
    p.add_argument("--W", required=True, help='comma-separated vertices or "all"')
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--w-limit", dest="w_limit", type=_integer, required=True)
    p = dsub.add_parser("structure")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=_integer, required=True)
    dec.set_defaults(func=_cmd_decompose)

    es = sub.add_parser("edge-sum", help="glue two graphs along matched boundary edges")
    es.add_argument("--g1", required=True)
    es.add_argument("--v1", required=True)
    es.add_argument("--g2", required=True)
    es.add_argument("--v2", required=True)
    es.add_argument("--pi", required=True, help="JSON object mapping edge ids")
    es.set_defaults(func=_cmd_edge_sum)

    to = sub.add_parser("torso", help="torso of a tree-cut decomposition at a node")
    to.add_argument("--graph", required=True)
    to.add_argument("--decomp", required=True)
    to.add_argument("--node", required=True)
    to.set_defaults(func=_cmd_torso)

    bo = sub.add_parser("bounds", help="quantitative constants as decimals")
    bsub = bo.add_subparsers(dest="quantity", required=True)
    p = bsub.add_parser("d-of-k")
    p.add_argument("k", type=_integer)
    p = bsub.add_parser("theorem31")
    p.add_argument("pattern")
    p = bsub.add_parser("converse")
    p.add_argument("d", type=_integer)
    p.add_argument("a", type=_integer)
    p.add_argument("w", type=_integer)
    p.add_argument("p", type=_integer)
    p = bsub.add_parser("converse-alpha")
    p.add_argument("alpha", type=_integer)
    bo.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, _DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        limit = isinstance(exc, (SizeLimitError, _DigitLimitError))
        return EXIT_LIMIT if limit else EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
