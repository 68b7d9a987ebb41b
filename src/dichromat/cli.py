"""Command-line front end.

Subcommands::

    profile     node or leaf profile as CSV (or JSON)
    bset        achievable black counts at a fixed dichromatic count
    verify      replay one of the claimed bounds
    width-bound closed-form and certified sweepout-width bounds
    iso-bound   isoperimetric-profile bound via bisection
    sweepout    generate a trace and certify its special slice
    export-dot  optimal witness coloring as Graphviz DOT

Exit codes: 0 success, 1 invalid input, 2 capacity exceeded (a size cap,
or out of memory), 3 a verification came back negative.

Output is byte-stable for fixed inputs and seed: JSON keys are sorted,
floats are printed to 12 significant digits, and the environment only
enters through ``DICHROMAT_MAX_M``, which lifts (or lowers) the dynamic
programs' depth caps.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
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


def _jsonable(value: Any) -> Any:
    """Normalize for byte-stable JSON: 12-digit floats, p/q strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= {int, str}:
            return list(value)
        return [_jsonable(v) for v in value]
    return value


def _emit_json(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _params_dict(params: metric.BlockParams) -> dict[str, Any]:
    return {key: getattr(params, key) for key in metric.PARAM_KEYS}


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
    """Graphviz DOT: black nodes filled, dichromatic edges bold."""
    bits = coloring.bits
    children = np.arange(2, bits.size + 1)
    hot = bits[children - 1] != bits[children // 2 - 1]
    node_style = ("", " [fillcolor=black, fontcolor=white]")
    edge_style = ("", " [style=bold, penwidth=2.5]")
    lines = [
        "graph dichromat {",
        "  node [shape=circle, style=filled, fillcolor=white];",
    ]
    lines += [f"  {node}{node_style[c]};" for node, c in enumerate(bits.tolist(), 1)]
    lines += [
        f"  {child // 2} -- {child}{edge_style[h]};"
        for child, h in enumerate(hot.tolist(), 2)
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _build_parser() -> _Parser:
    parser = _Parser(prog="dichromat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="node or leaf profile")
    p.add_argument("--kind", choices=("node", "leaf"), required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("bset", help="achievable black counts at one dichromatic count")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-d", type=int, required=True)

    p = sub.add_parser("verify", help="replay one claimed bound")
    p.add_argument("--which", choices=bounds_mod.VERIFY_KINDS, required=True)
    p.add_argument("-m", type=int, required=True)

    p = sub.add_parser("width-bound", help="sweepout width lower bounds")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--params", metavar="FILE")

    p = sub.add_parser("iso-bound", help="isoperimetric profile lower bound")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--params", metavar="FILE")

    p = sub.add_parser("sweepout", help="generate a trace and certify it")
    p.add_argument("--strategy", choices=sweepout.STRATEGIES, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--params", metavar="FILE")
    p.add_argument("--seed", type=int)
    p.add_argument("--delta", type=float)

    p = sub.add_parser("export-dot", help="witness coloring as Graphviz DOT")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--witness", required=True, metavar="b=K|t=K")

    return parser


def _load_params(path: str | None) -> metric.BlockParams:
    if path is None:
        return metric.BlockParams.default()
    return metric.load_params(path)


def _cmd_profile(args: argparse.Namespace, cap: int | None) -> int:
    profile = (dp.node_profile if args.kind == "node" else dp.leaf_profile)(
        args.m, cap=cap
    )
    if args.format == "csv":
        label = "b" if args.kind == "node" else "t"
        lines = [f"{label},min_d"]
        lines += [f"{i},{v}" for i, v in profile.items()]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json(
            {
                "command": "profile",
                "kind": args.kind,
                "m": args.m,
                "profile": [[i, v] for i, v in profile.items()],
            }
        )
    return EXIT_OK


def _cmd_bset(args: argparse.Namespace, cap: int | None) -> int:
    result = dp.achievable_set(args.m, args.d, cap=cap)
    _emit_json(
        {
            "command": "bset",
            "m": args.m,
            "d": args.d,
            "members": list(result.members),
            "cardinality": len(result),
            "bound": bounds_mod.lemma_cardinality_bound(args.m, args.d),
        }
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, cap: int | None) -> int:
    report = bounds_mod.verify(args.m, args.which, cap=cap)
    _emit_json(
        {
            "command": "verify",
            "which": args.which,
            "m": report.m,
            "quantity": report.quantity,
            "bound": report.paper_bound,
            "computed": report.computed_value,
            "holds": report.holds,
        }
    )
    return EXIT_OK if report.holds else EXIT_FAILED_VERIFICATION


def _cmd_width(args: argparse.Namespace, cap: int | None) -> int:
    params = _load_params(args.params)
    a = bounds_mod.a_of_m(args.m)
    leaf_value = dp.leaf_profile(args.m, cap=cap)[a]
    _emit_json(
        {
            "command": "width-bound",
            "m": args.m,
            "a": a,
            "leaf_value": leaf_value,
            "paper_bound": metric.paper_width_bound(args.m, params),
            "certified_bound": metric.certified_width_bound(leaf_value, params),
            "params": _params_dict(params),
        }
    )
    return EXIT_OK


def _cmd_iso(args: argparse.Namespace, cap: int | None) -> int:
    params = _load_params(args.params)
    query = metric.iso_profile_lower_bound(args.m, params, cap=cap)
    _emit_json(
        {
            "command": "iso-bound",
            "m": query.m,
            "k": query.k,
            "b_star": query.b_star,
            "v_m": query.v_m,
            "L_star": query.L_star,
            "vacuous": query.vacuous,
            "residual": query.residual,
            "bracket_width": query.bracket_width,
            "params": _params_dict(params),
        }
    )
    return EXIT_OK


def _cmd_sweepout(args: argparse.Namespace, cap: int | None) -> int:
    params = _load_params(args.params)
    trace = sweepout.generate_trace(
        args.strategy, args.m, params, delta=args.delta, seed=args.seed
    )
    report = sweepout.validate_trace(trace)
    if not report.ok:
        raise TraceError(f"generated trace failed validation: {report.message}")
    certificate = sweepout.certify(trace)
    paper = metric.paper_width_bound(args.m, params)
    meets = certificate.certified_area >= paper
    _emit_json(
        {
            "command": "sweepout",
            "strategy": args.strategy,
            "m": args.m,
            "seed": args.seed,
            "delta": trace.step_bound,
            "steps": int(trace.steps.shape[0]),
            "t0": certificate.t0,
            "black_nodes": certificate.coloring.black_nodes(),
            "sandwich_pairs": [list(pair) for pair in certificate.sandwich_regions],
            "disjoint_count": certificate.disjoint_count,
            "certified_area": certificate.certified_area,
            "paper_bound": paper,
            "meets_paper_bound": meets,
        }
    )
    return EXIT_OK if meets else EXIT_FAILED_VERIFICATION


def _cmd_export_dot(args: argparse.Namespace, cap: int | None) -> int:
    match = re.fullmatch(r"([bt])=(\d+)", args.witness)
    if match is None:
        raise InvalidParameterError(
            f"--witness must look like b=K or t=K, got {args.witness!r}"
        )
    which, index = match.group(1), int(match.group(2))
    profile = (dp.node_profile if which == "b" else dp.leaf_profile)(args.m, cap=cap)
    coloring = dp.witness(profile, index)
    sys.stdout.write(render_dot(coloring))
    return EXIT_OK


_DISPATCH = {
    "profile": _cmd_profile,
    "bset": _cmd_bset,
    "verify": _cmd_verify,
    "width-bound": _cmd_width,
    "iso-bound": _cmd_iso,
    "sweepout": _cmd_sweepout,
    "export-dot": _cmd_export_dot,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cap = _env_cap()
        return _DISPATCH[args.command](args, cap)
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
