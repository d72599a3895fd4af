"""Command-line front end.

Subcommands read and write the shared JSON formats on files or standard
streams ("-" means stdin).  Exit codes: 0 success, 1 malformed input,
2 verification or decomposition rejection, 3 a resource limit reached:
the immersion search budget ran out, a linearity search (smallest
linearizing set, star minor) went over its work limit of 100,000
decision nodes or center sets, or an integer argument or a bound has
more decimal digits than the interpreter converts; 141 (128 + SIGPIPE)
standard output closed by its reader, with nothing on stderr.  An
unreadable input file is malformed input, and so is a usage error: one
stderr line starting "error: immtools".

One table, `_COMMANDS`, parses, checks and documents every command:
after its words, options (`--flag value`, `--flag=value`, or a unique
prefix of the flag; the last repeat wins) and positionals come in any
order.  `-h` or `--help` prints the usage of every command below it.

Every JSON document written to standard output is, byte for byte, what
`json.dumps(obj, sort_keys=True, indent=2)` followed by one newline gives:
keys sorted, two spaces of indent per level, items separated by "," and a
newline, ": " after each key, non-ASCII characters as \\uXXXX escapes,
and "[]" and "{}" for empty containers.  `_dumps` writes those bytes
without the standard library's pure-Python indenting encoder.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from . import generators
from .immersion import BUDGET, FOUND, find_immersion, verify_immersion
from .jsonio import (
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
EXIT_PIPE = 141


def _int_max_str_digits() -> int:
    """The interpreter's limit on decimal digits in an int-string
    conversion, 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# what `int` accepts in base 10: one optional sign, digits with single
# underscores between them, surrounding whitespace
_DECIMAL = re.compile(r"\s*[+-]?(\d(?:_?\d)*)\s*")


def _integer(text: str, prog: str, name: str) -> int:
    """`int` for the integer argument `name`, except that a decimal integer
    longer than the interpreter converts is a limit reached."""
    try:
        return int(text)
    except ValueError:
        decimal = _DECIMAL.fullmatch(text)
        digits = decimal.group(1).replace("_", "") if decimal else ""
        limit = _int_max_str_digits()
        if limit and len(digits) > limit:
            raise SizeLimitError(
                f"an integer argument has {len(digits)} digits, more than the"
                f" {limit}-digit limit on integer conversion (sys.set_int_max_str_digits)"
            ) from None
        raise ValueError(f"{prog}: argument {name}: invalid int value: {text!r}") from None


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:  # an input that cannot be read is malformed input
        raise ValueError(str(exc)) from None


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


def _cmd_gen(generate: Callable[..., Multigraph], *params: int, **options: int) -> int:
    _emit(graph_to_json(generate(*params, **options)))
    return EXIT_OK


def _cmd_find_immersion(host: str, pattern: str, strong: bool, budget: Optional[int]) -> int:
    G, H = _read_graph(host), _read_graph(pattern)
    result = find_immersion(G, H, strong=strong, budget=budget)
    _emit(immersion_to_json(result.certificate) if result.status == FOUND else result.status)
    return EXIT_LIMIT if result.status == BUDGET else EXIT_OK


def _verdict(bad: List[str]) -> int:
    for msg in bad:
        print(msg, file=sys.stderr)
    return EXIT_REJECTED if bad else EXIT_OK


def _cmd_verify_immersion(host: str, pattern: str, cert: str) -> int:
    G, H = _read_graph(host), _read_graph(pattern)
    return _verdict(verify_immersion(G, H, immersion_from_json(_read_json(cert))))


def _cmd_verify_linear(graph: str, W: str, cert: str, a: int, w: int, p: int) -> int:
    G = _read_graph(graph)
    vertices = _parse_W(W, G)
    certificate = linearity_from_json(_read_json(cert))
    return _verdict(verify_linear_certificate(G, vertices, certificate, a, w, p))


def _cmd_verify_structure(graph: str, structure: str, alpha: int) -> int:
    G, result = _read_graph(graph), structure_from_json(_read_json(structure))
    return _verdict(verify_structure(G, result.decomposition, result.certificates, alpha))


def _decomposed(result: Any, encode: Callable[[Any], Any]) -> int:
    if isinstance(result, FailureWitness):
        _emit(failure_to_json(result))
        return EXIT_REJECTED
    _emit(encode(result))
    return EXIT_OK


def _cmd_decompose_linear(graph: str, W: str, m: int, w_limit: int) -> int:
    G = _read_graph(graph)
    result = linear_decompose(G, _parse_W(W, G), m=m, w_limit=w_limit)
    return _decomposed(result, linearity_to_json)


def _cmd_decompose_structure(graph: str, alpha: int) -> int:
    return _decomposed(structure_decompose(_read_graph(graph), alpha), structure_to_json)


def _cmd_edge_sum(g1: str, v1: str, g2: str, v2: str, pi: str) -> int:
    G1, G2 = _read_graph(g1), _read_graph(g2)
    pairs = _read_json(pi)
    if not isinstance(pairs, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in pairs.items()
    ):
        raise ValueError("--pi must be a JSON object mapping edge ids to edge ids")
    _emit(graph_to_json(edge_sum(G1, v1, G2, v2, pairs)))
    return EXIT_OK


def _cmd_torso(graph: str, decomp: str, node: str) -> int:
    G, D = _read_graph(graph), structure_from_json(_read_json(decomp)).decomposition
    _emit(torso_to_json(torso_at(G, D, node)))
    return EXIT_OK


def _over_digit_limit(limit: int) -> SizeLimitError:
    return SizeLimitError(
        f"the bound has more than {limit} decimal digits, the limit on"
        " integer-to-string conversion (sys.set_int_max_str_digits)"
    )


def _check_digits(*values: int) -> None:
    """Raise SizeLimitError if a value has more decimal digits than the
    interpreter's integer-to-string conversion limit."""
    limit = _int_max_str_digits()
    if limit and any(abs(n) >= 10**limit for n in values):
        raise _over_digit_limit(limit)


def _check_d_of_k(k: int) -> None:
    """Check d(k) against the digit limit before computing it, for k >= 1:
    d(k) > (2k+1)^(8k+4), which has at least (8k+4) log10(2k+1) digits.
    One digit of margin covers the float's rounding, and since the bound
    grows with k, a k above the limit is taken as the limit, which keeps
    the float finite.  The exact check on the value stays."""
    limit = _int_max_str_digits()
    if limit and k >= 1:
        k = min(k, limit)
        if (8 * k + 4) * math.log10(2 * k + 1) > limit + 1:
            raise _over_digit_limit(limit)


def _d_of_k(k: int) -> int:
    _check_d_of_k(k)
    return bounds_mod.d_of_k(k)


def _cmd_bound(quantity: Callable[..., int], *params: int) -> int:
    value = quantity(*params)
    _check_digits(value)
    print(value)
    return EXIT_OK


def _cmd_theorem31(pattern: str) -> int:
    F = _read_graph(pattern)
    # theorem31_constants computes d(k) at k = max(3, the largest degree)
    _check_d_of_k(max(3, max(F.degrees.values(), default=0)))
    constants = dataclasses.asdict(bounds_mod.theorem31_constants(F))
    _check_digits(*constants.values())
    _emit(constants)
    return EXIT_OK


# Every command: its words -> (handler, positionals, options).  A positional
# is (name, kind); an option maps its flag to (kind, default).  A kind is
# int, str or bool (a switch, default False); _REQUIRED marks a required
# flag.  The handler gets the positionals in order, then each option as the
# keyword named by its flag with "-" as "_".
_REQUIRED = object()
_STR, _INT = (str, _REQUIRED), (int, _REQUIRED)
_COMMANDS: Dict[Tuple[str, ...], Tuple[Callable[..., int], tuple, Dict[str, tuple]]] = {
    ("gen", "pk"): (partial(_cmd_gen, generators.gen_pk), (("k", int),), {}),
    ("gen", "pk-chorded"): (partial(_cmd_gen, generators.gen_pk_chorded), (("k", int),), {}),
    ("gen", "complete"): (partial(_cmd_gen, generators.gen_complete), (("n", int),), {}),
    ("gen", "random"): (partial(_cmd_gen, generators.gen_random_multigraph),
                        (("n", int), ("edges", int), ("max_multiplicity", int)),
                        {"--seed": (int, 0)}),
    ("find-immersion",): (_cmd_find_immersion, (), {"--host": _STR, "--pattern": _STR,
                                                    "--strong": (bool, False),
                                                    "--budget": (int, None)}),
    ("verify", "immersion"): (_cmd_verify_immersion, (),
                              {"--host": _STR, "--pattern": _STR, "--cert": _STR}),
    ("verify", "linear"): (_cmd_verify_linear, (), {"--graph": _STR, "--W": _STR, "--cert": _STR,
                                                    "--a": _INT, "--w": _INT, "--p": _INT}),
    ("verify", "structure"): (_cmd_verify_structure, (),
                              {"--graph": _STR, "--structure": _STR, "--alpha": _INT}),
    ("decompose", "linear"): (_cmd_decompose_linear, (), {"--graph": _STR, "--W": _STR,
                                                          "--m": _INT, "--w-limit": _INT}),
    ("decompose", "structure"): (_cmd_decompose_structure, (),
                                 {"--graph": _STR, "--alpha": _INT}),
    ("edge-sum",): (_cmd_edge_sum, (), {"--g1": _STR, "--v1": _STR, "--g2": _STR, "--v2": _STR,
                                        "--pi": _STR}),
    ("torso",): (_cmd_torso, (), {"--graph": _STR, "--decomp": _STR, "--node": _STR}),
    ("bounds", "d-of-k"): (partial(_cmd_bound, _d_of_k), (("k", int),), {}),
    ("bounds", "theorem31"): (_cmd_theorem31, (("pattern", str),), {}),
    ("bounds", "converse"): (partial(_cmd_bound, bounds_mod.converse_n),
                             (("d", int), ("a", int), ("w", int), ("p", int)), {}),
    ("bounds", "converse-alpha"): (partial(_cmd_bound, bounds_mod.converse_n_alpha),
                                   (("alpha", int),), {}),
}
# the words that may follow each proper prefix of a command's words
_CHOICES: Dict[Tuple[str, ...], Dict[str, None]] = {}
for _words in _COMMANDS:
    for _n in range(len(_words)):
        _CHOICES.setdefault(_words[:_n], {})[_words[_n]] = None
_HELP = ("-h", "--help")
# a negative number is a value, not a flag
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _is_value(token: str) -> bool:
    return token[:1] != "-" or token == "-" or _NEGATIVE.fullmatch(token) is not None


def _usage(words: Tuple[str, ...]) -> str:
    """The usage of every command whose words start with `words`."""
    lines = []
    for key, (_, positionals, options) in _COMMANDS.items():
        if key[: len(words)] == words:
            parts = ["immtools", *key]
            for flag, (kind, default) in options.items():
                part = flag if kind is bool else f"{flag} {flag[2:].upper().replace('-', '_')}"
                parts.append(part if default is _REQUIRED else f"[{part}]")
            lines.append(" ".join(parts + [name.upper() for name, _ in positionals]))
    return "usage: " + "\n       ".join(lines)


def _option(prog: str, token: str, options: Sequence[str]) -> Tuple[str, Optional[str]]:
    """The option that `token` names, exactly or by a unique prefix, and the
    value after "=" (None without one); a help flag prints usage and exits."""
    name, eq, value = token.partition("=")
    flags = [*options, *_HELP]
    if name not in flags:
        found = [f for f in flags if f.startswith(name)] if name[:2] == "--" != name else []
        if len(found) != 1:
            problem = f"ambiguous option {name}: matches" if found else "unrecognized argument:"
            raise ValueError(f"{prog}: {problem} {', '.join(found) or token}")
        name = found[0]
    if name in _HELP:
        if eq:
            raise ValueError(f"{prog}: argument -h/--help: ignored explicit argument {value!r}")
        print(_usage(tuple(prog.split()[1:])))
        sys.stdout.flush()  # a closed pipe is found here, not at exit
        raise SystemExit(0)
    return name, value if eq else None


def _parse(argv: Sequence[str]) -> Tuple[Callable[..., int], List[Any], Dict[str, Any]]:
    """The handler of the command that argv names, its positional values and
    its keyword values.  A usage error raises ValueError; -h or --help
    prints usage and raises SystemExit(0)."""
    words: Tuple[str, ...] = ()
    while words not in _COMMANDS:
        choices = _CHOICES[words]
        token = argv[len(words)] if len(words) < len(argv) else ""
        if token not in choices:
            prog = " ".join(("immtools",) + words)
            if not _is_value(token):
                _option(prog, token, ())  # prints help or raises
            raise ValueError(f"{prog}: expected a command ({', '.join(choices)}), got {token!r}")
        words += (token,)
    handler, positionals, options = _COMMANDS[words]
    prog = " ".join(("immtools",) + words)
    args: List[Any] = []
    given: Dict[str, Any] = {}
    i = len(words)
    while i < len(argv):
        token = argv[i]
        i += 1
        if _is_value(token):
            if len(args) == len(positionals):
                raise ValueError(f"{prog}: unrecognized argument: {token}")
            name, kind = positionals[len(args)]
            args.append(_integer(token, prog, name) if kind is int else token)
            continue
        flag, value = (token, None) if token in options else _option(prog, token, options)
        kind = options[flag][0]
        if kind is bool:
            if value is not None:
                raise ValueError(f"{prog}: argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if i == len(argv) or not _is_value(argv[i]):
                raise ValueError(f"{prog}: argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        given[flag] = _integer(value, prog, flag) if kind is int else value
    missing = [name for name, _ in positionals[len(args):]] + [
        f for f, (_, default) in options.items() if default is _REQUIRED and f not in given]
    if missing:
        raise ValueError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    kwargs = {f[2:].replace("-", "_"): given.get(f, d) for f, (_, d) in options.items()}
    return handler, args, kwargs


def main(argv: Optional[List[str]] = None) -> int:
    try:
        handler, args, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(*args, **kwargs)
        sys.stdout.flush()  # a closed pipe is found here, not at exit
        return code
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:  # so that its flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT if isinstance(exc, SizeLimitError) else EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
