"""Command-line front end.

Subcommands::

    profile     node or leaf profile as CSV (or JSON)
    bset        achievable black counts at a fixed dichromatic count
    verify      replay one of the claimed bounds
    width-bound closed-form and certified sweepout-width bounds
    iso-bound   isoperimetric-profile bound via bisection
    sweepout    generate a trace and certify its special slice
    export-dot  optimal witness coloring as Graphviz DOT

A call builds only the parser of the command its first argument names;
without one (no arguments, ``-h``, an unknown name) it builds them all,
so that the help and the invalid-choice message list every command.

Exit codes: 0 success, 1 invalid input, 2 capacity exceeded (a size cap,
or out of memory), 3 a verification came back negative.  Each command's
handler returns its document and its verdict; `main` is the one place
that writes stdout, adds the ``"command"`` key to a JSON document, and
turns a verdict that does not hold into exit 3.

Output is byte-stable for fixed inputs; no ``--seed`` means seed 0.
JSON is what ``json.dumps(doc, sort_keys=True, indent=2)`` prints: keys
sorted, two spaces per level, floats rounded to 12 significant digits,
exact rationals as integers or ``"p/q"`` strings.  The environment
only enters through ``DICHROMAT_MAX_M``, which lifts (up to the tree
cap, 24) or lowers the profile depth cap and lowers the depth allowed
for achievable sets.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import dp, metric, sweepout
from .errors import CapacityError, DichromatError, InvalidParameterError, TraceError
from .tree import Coloring

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAPACITY = 2
EXIT_FAILED_VERIFICATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _scalar_json(value: Any) -> str:
    """One scalar as JSON: 12-digit floats, p/q for non-integer Fractions."""
    if isinstance(value, float):
        value = _round12(value)
    elif isinstance(value, Fraction):
        value = int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return json.dumps(value)


def _key_json(key: Any) -> str:
    """A dict key as JSON: non-string keys become strings, as in `json`."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def _write_json(value: Any, out: list[str], pad: str) -> None:
    """Append ``value`` as sorted-key JSON indented by two spaces, with
    ``pad`` as its enclosing indent, to ``out``.

    The text is byte for byte what ``json.dumps(..., sort_keys=True,
    indent=2)`` writes, with an ndarray written as its ``tolist()``.  A
    list of plain ints (a 1-D integer array is one) is one join, and a
    2-D integer array one ``%`` over a row template; every other scalar
    goes through ``json.dumps`` on its own.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iu" or value.ndim != 2 or not value.size:
            _write_json(value.tolist(), out, pad)
            return
        cell = ",\n" + inner + "  "
        row = "[" + cell[1:] + cell.join(["%d"] * value.shape[1]) + "\n" + inner + "]"
        out += ("[\n", inner, sep.join([row] * len(value)) % tuple(value.ravel().tolist()))
        out += ("\n", pad, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            out += (sep, _key_json(key), ": ")
            _write_json(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif set(map(type, value)) == {int}:
            out += ("[\n", inner, sep.join(map(str, value)), "\n", pad, "]")
        else:
            for i, item in enumerate(value):
                out.append(sep if i else "[\n" + inner)
                _write_json(item, out, inner)
            out.append("\n" + pad + "]")
    else:
        out.append(_scalar_json(value))


def _emit_json(payload: dict[str, Any]) -> None:
    out: list[str] = []
    _write_json(payload, out, "")
    out.append("\n")
    sys.stdout.write("".join(out))


def _env_cap() -> int | None:
    raw = os.environ.get("DICHROMAT_MAX_M")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidParameterError(
            f"DICHROMAT_MAX_M must be an integer, got {raw!r}"
        ) from exc


def render_dot(coloring: Coloring) -> str:
    """Graphviz DOT: black nodes filled, dichromatic edges bold.

    One line per node, then one per heap edge ``parent -- child``.  The
    text is one join over the node names, each made once, and a line end
    per line picked by its style from a two-entry array, so the cost does
    not depend on how often the colors change.
    """
    bits = coloring.bits
    n = bits.size
    names = list(map(str, range(n + 1)))
    hot = bits[1:] ^ np.repeat(bits[: n // 2], 2)  # child c's edge at c - 2
    node_end = np.array([";\n  ", " [fillcolor=black, fontcolor=white];\n  "], dtype=object)
    edge_end = np.array([";\n  ", " [style=bold, penwidth=2.5];\n  "], dtype=object)
    parts = [""] * (6 * n - 3)
    parts[0] = "graph dichromat {\n  node [shape=circle, style=filled, fillcolor=white];\n  "
    parts[1 : 2 * n : 2] = names[1:]
    parts[2 : 2 * n + 1 : 2] = node_end[bits].tolist()
    # four parts per edge: parent, " -- ", child, line end; children
    # 2i and 2i + 1 share the parent i
    e = 2 * n + 1
    parts[e::8] = parts[e + 4 :: 8] = names[1 : n // 2 + 1]
    parts[e + 1 :: 4] = [" -- "] * (n - 1)
    parts[e + 2 :: 4] = names[2:]
    parts[e + 3 :: 4] = edge_end[hot].tolist()
    parts[-1] = parts[-1][:-2] + "}\n"  # the last line end indents no next line
    return "".join(parts)


def _load_params(path: str | None) -> metric.BlockParams:
    if path is None:
        return metric.BlockParams.default()
    return metric.load_params(path)


# what a command hands `main`: the JSON document, as a dict without its
# "command" key, or the text to print, and whether its verdict holds
_Result = tuple[dict[str, Any] | str, bool]


def _cmd_profile(args: argparse.Namespace, cap: int | None) -> _Result:
    profile = (dp.node_profile if args.kind == "node" else dp.leaf_profile)(
        args.m, cap=cap
    )
    counts = profile.index_range
    rows = np.column_stack((np.arange(counts.start, counts.stop), profile.min_d))
    if args.format == "json":
        return {"kind": args.kind, "m": args.m, "profile": rows}, True
    label = "b" if args.kind == "node" else "t"
    body = "\n".join(["%d,%d"] * len(rows)) % tuple(rows.ravel().tolist())
    return f"{label},min_d\n{body}\n", True


def _cmd_bset(args: argparse.Namespace, cap: int | None) -> _Result:
    result = dp.achievable_set(args.m, args.d, cap=cap)
    return {
        "m": args.m,
        "d": args.d,
        "members": list(result.members),
        "cardinality": len(result),
        "bound": bounds_mod.lemma_cardinality_bound(args.m, args.d),
    }, True


def _cmd_verify(args: argparse.Namespace, cap: int | None) -> _Result:
    report = bounds_mod.verify(args.m, args.which, cap=cap)
    return {
        "which": args.which,
        "m": report.m,
        "quantity": report.quantity,
        "bound": report.paper_bound,
        "computed": report.computed_value,
        "holds": report.holds,
    }, report.holds


def _cmd_width(args: argparse.Namespace, cap: int | None) -> _Result:
    params = _load_params(args.params)
    profile = dp.leaf_profile(args.m, cap=cap)  # checks the cap before a(m)
    a = bounds_mod.a_of_m(args.m)
    leaf_value = profile[a]
    return {
        "m": args.m,
        "a": a,
        "leaf_value": leaf_value,
        "paper_bound": metric.paper_width_bound(args.m, params),
        "certified_bound": metric.certified_width_bound(leaf_value, params),
        "params": asdict(params),
    }, True


def _cmd_iso(args: argparse.Namespace, cap: int | None) -> _Result:
    return asdict(metric.iso_profile_lower_bound(args.m, _load_params(args.params), cap=cap)), True


def _cmd_sweepout(args: argparse.Namespace, cap: int | None) -> _Result:
    params = _load_params(args.params)
    trace = sweepout.generate_trace(
        args.strategy, args.m, params, delta=args.delta, seed=args.seed
    )
    certificate = sweepout.certify(trace)
    paper = metric.paper_width_bound(args.m, params)
    meets = certificate.certified_area >= paper
    children = certificate.sandwich_regions.children
    return {
        "strategy": args.strategy,
        "m": args.m,
        "seed": args.seed,
        "delta": trace.step_bound,
        "steps": trace.shape[0],
        "t0": certificate.t0,
        "black_nodes": np.flatnonzero(certificate.coloring.bits) + 1,
        "sandwich_pairs": np.column_stack((children // 2, children)),
        "disjoint_count": certificate.disjoint_count,
        "certified_area": certificate.certified_area,
        "paper_bound": paper,
        "meets_paper_bound": meets,
    }, meets


def _cmd_export_dot(args: argparse.Namespace, cap: int | None) -> _Result:
    match = re.fullmatch(r"([bt])=(\d+)", args.witness)
    if match is None:
        raise InvalidParameterError(
            f"--witness must look like b=K or t=K, got {args.witness!r}"
        )
    which, digits = match.groups()
    try:
        index = int(digits)
    except ValueError:  # past the interpreter's int-digit limit
        raise InvalidParameterError(
            f"--witness index has {len(digits)} digits, too many for a count"
        ) from None
    profile = (dp.node_profile if which == "b" else dp.leaf_profile)(args.m, cap=cap)
    return render_dot(dp.witness(profile, index)), True


_M = ("-m", {"type": int, "required": True})
_PARAMS = ("--params", {"metavar": "FILE"})

# name -> (help, handler, arguments as (flag, add_argument keywords)), in
# the order the top-level help lists them
_COMMANDS = {
    "profile": ("node or leaf profile", _cmd_profile, (
        ("--kind", {"choices": ("node", "leaf"), "required": True}), _M,
        ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    )),
    "bset": ("achievable black counts at one dichromatic count", _cmd_bset, (
        _M, ("-d", {"type": int, "required": True}),
    )),
    "verify": ("replay one claimed bound", _cmd_verify, (
        ("--which", {"choices": bounds_mod.VERIFY_KINDS, "required": True}), _M,
    )),
    "width-bound": ("sweepout width lower bounds", _cmd_width, (_M, _PARAMS)),
    "iso-bound": ("isoperimetric profile lower bound", _cmd_iso, (_M, _PARAMS)),
    "sweepout": ("generate a trace and certify it", _cmd_sweepout, (
        ("--strategy", {"choices": sweepout.STRATEGIES, "required": True}), _M, _PARAMS,
        ("--seed", {
            "type": int,
            "help": "random-monotone seed, >= 0; 0 when omitted (the JSON echoes null); "
            "other strategies ignore it",
        }),
        ("--delta", {"type": float}),
    )),
    "export-dot": ("witness coloring as Graphviz DOT", _cmd_export_dot, (
        _M, ("--witness", {"required": True, "metavar": "b=K|t=K"}),
    )),
}


def _build_parser(names: Sequence[str]) -> _Parser:
    """The parser with a subparser for each of ``names``, in that order."""
    parser = _Parser(prog="dichromat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, _, arguments = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level has no option but -h, so a command name in argv[0]
    # always selects its subparser; without one, help and errors list all
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        args = _build_parser(named).parse_args(argv)
        document, holds = _COMMANDS[args.command][1](args, _env_cap())
        if isinstance(document, str):
            sys.stdout.write(document)
        else:
            _emit_json({"command": args.command, **document})
        return EXIT_OK if holds else EXIT_FAILED_VERIFICATION
    except _UsageError as exc:
        print(f"dichromat: invalid usage: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"dichromat: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"dichromat: capacity exceeded: out of memory{detail}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvalidParameterError, TraceError) as exc:
        print(f"dichromat: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, DichromatError) as exc:
        print(f"dichromat: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
