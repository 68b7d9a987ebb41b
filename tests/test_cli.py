"""End-to-end CLI: frozen outputs, exit codes, schema conformance."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from enum import IntEnum
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dichromat
from dichromat import BoundReport
from dichromat import all_black, all_white, build_tree, coloring_from_bits
from dichromat import bounds, cli, dp, metric, sweepout
from conftest import json_dumps_indented, render_dot_lines

SRC = str(Path(dichromat.__file__).resolve().parents[1])
WIDE_PARAMS = str(Path(__file__).resolve().parents[1] / "perfbench" / "params" / "wide.params")


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("dichromat") / "schemas" / "output.schema.json"
    return json.loads(ref.read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, schema, *argv, expect_code=0):
    code, out, err = run(capsys, *argv)
    assert code == expect_code, err
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return doc


def test_profile_csv_frozen(capsys):
    code, out, _ = run(capsys, "profile", "--kind", "node", "-m", "1")
    assert code == 0
    assert out == "b,min_d\n1,1\n2,1\n3,0\n"


def test_profile_leaf_csv_header(capsys):
    code, out, _ = run(capsys, "profile", "--kind", "leaf", "-m", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,min_d"
    assert lines[1:] == ["0,0", "1,1", "2,1", "3,1", "4,0"]


def test_profile_json_schema(capsys, schema):
    doc = run_json(capsys, schema, "profile", "--kind", "node", "-m", "3", "--format", "json")
    assert doc["command"] == "profile"
    assert doc["profile"][0] == [1, 1]
    assert len(doc["profile"]) == 15


def test_bset_frozen(capsys, schema):
    doc = run_json(capsys, schema, "bset", "-m", "2", "-d", "1")
    assert doc["members"] == [1, 3, 4, 6]
    assert doc["cardinality"] == 4
    assert doc["bound"] == 4  # 2^1 * 2^1


def test_verify_ok(capsys, schema):
    doc = run_json(capsys, schema, "verify", "--which", "thm27", "-m", "6")
    assert doc["holds"] is True
    assert doc["bound"] == 3 and doc["computed"] == 3


def test_verify_failure_exits_3(capsys, schema, monkeypatch):
    fake = BoundReport(
        m=2, quantity="rigged", paper_bound=1.0, computed_value=0.0, holds=False
    )
    monkeypatch.setattr(cli.bounds_mod, "verify", lambda *a, **k: fake)
    doc = run_json(
        capsys, schema, "verify", "--which", "thm27", "-m", "2", expect_code=3
    )
    assert doc["holds"] is False


def test_width_bound_json(capsys, schema):
    doc = run_json(capsys, schema, "width-bound", "-m", "2")
    assert doc["paper_bound"] == "1/5"
    assert doc["certified_bound"] == 1
    assert doc["a"] == 1
    assert set(doc["params"]) == {"V0", "mu", "tau", "alpha", "rel_isop_C", "iso_C", "C3"}


def test_iso_bound_json(capsys, schema):
    doc = run_json(capsys, schema, "iso-bound", "-m", "4")
    assert doc["vacuous"] is False
    assert doc["k"] == 3 and doc["b_star"] == 5
    assert doc["bracket_width"] <= 1e-9
    assert 0 < doc["L_star"] < doc["k"]


def test_sweepout_json(capsys, schema):
    doc = run_json(
        capsys, schema, "sweepout", "--strategy", "uniform", "-m", "2"
    )
    assert doc["meets_paper_bound"] is True
    assert doc["disjoint_count"] >= 1
    assert doc["black_nodes"] == [4]


def test_sweepout_seeded_byte_stable(capsys):
    args = ("sweepout", "--strategy", "random-monotone", "-m", "3", "--seed", "8")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweepout_unseeded_is_seed_zero(capsys):
    # no --seed draws the seed-0 trace; only the echoed "seed" differs
    args = ("sweepout", "--strategy", "random-monotone", "-m", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    code0, out0, _ = run(capsys, *args, "--seed", "0")
    assert code1 == code2 == code0 == 0
    assert out1 == out2
    assert '"seed": null' in out1
    assert out1.replace('"seed": null', '"seed": 0') == out0
    assert json.loads(out1) == {**json.loads(out0), "seed": None}


def test_params_file_flows_through(capsys, schema, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("V0 = 20\nmu = 1\ntau = 3/2\nalpha = 3\nrel_isop_C = 2\n")
    doc = run_json(capsys, schema, "width-bound", "-m", "2", "--params", str(cfg))
    assert doc["params"]["V0"] == 20
    assert doc["params"]["tau"] == "3/2"
    assert doc["paper_bound"] == "2/5"  # rel_isop_C doubled


def test_bad_params_file_exits_1(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "width-bound", "-m", "2", "--params", str(cfg))
    assert code == 1
    assert "bogus" in err


def test_missing_params_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "width-bound", "-m", "2", "--params", str(tmp_path / "nope"))
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [("width-bound",), ("iso-bound",), ("sweepout", "--strategy", "uniform")],
    ids=["width-bound", "iso-bound", "sweepout"],
)
def test_params_file_not_utf8_exits_1(capsys, tmp_path, argv):
    cfg = tmp_path / "bad.params"
    cfg.write_bytes(b"\xff\xfe alpha = 1\n")
    code, out, err = run(capsys, *argv, "-m", "3", "--params", str(cfg))
    assert (code, out) == (1, "")
    assert err == (
        f"dichromat: invalid input: {cfg}: not UTF-8 text (invalid start byte at byte 0)\n"
    )


def _run_quietly(capsys, *argv):
    """`run`, failing on any warning the query raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return result


# every value inside the README constraints, but the total volume, and
# v_m, past the float64 range: finite floats, or an exact V0
OVERFLOW_PARAMS = {
    "float": ("V0 = 1e308\nmu = 1e306\ntau = 1.5e306\nalpha = 1e307\n", 1e308),
    "exact": (f"V0 = {10**400}\nmu = 1\ntau = 2\nalpha = 1\n", 10**400),
}


@pytest.mark.parametrize("params", list(OVERFLOW_PARAMS))
@pytest.mark.parametrize(
    "argv, message",
    [
        *[(("sweepout", "--strategy", s), "total volume at m = 3 overflows float64")
          for s in sweepout.STRATEGIES],
        (("iso-bound",), "v_m overflows float64"),
        (("width-bound",), None),
    ],
    ids=[*sweepout.STRATEGIES, "iso-bound", "width-bound"],
)
def test_overflowing_volumes_refused(capsys, tmp_path, argv, message, params):
    text, v0 = OVERFLOW_PARAMS[params]
    cfg = tmp_path / "huge.params"
    cfg.write_text(text)
    code, out, err = _run_quietly(capsys, *argv, "-m", "3", "--params", str(cfg))
    if message is None:  # the width bounds read no volume
        assert code == 0, err
        assert json.loads(out)["params"]["V0"] == v0
    else:
        assert (code, out) == (1, "")
        assert err == f"dichromat: invalid input: {message}; use smaller volumes\n"


# comparison constants the iso-bound bisection cannot carry in float64,
# each refused, and constants whose root lies far below the bracket top,
# each answered with its printed L_star; all ended in a traceback once
LARGE_CONSTANTS = {
    "C3-float": ("C3 = 1e308", 1e308,
                 "the bracket top C3 * k / 5 at m = 3 overflows float64; use a smaller C3"),
    "iso_C-float": ("iso_C = 1e300", 1e300, "(iso_C * C3 * k / 5) ** 1.5 at m = 3 overflows "
                    "float64; use a smaller iso_C or C3"),
    "C3-exact": (f"C3 = {10**400}", 10**400, "C3 overflows float64; use a smaller C3"),
    "iso_C-exact": (f"iso_C = {10**400}", 10**400, "iso_C overflows float64; use a smaller iso_C"),
    "C3-far": ("C3 = 1e100", 1e100, 11.3024774678),
    "iso_C-far": ("iso_C = 1e200", 1e200, 1.13024774456e-199),
    # a root past 2**23, where adjacent floats lie more than 1e-9 apart:
    # the bracket closes one float wide
    "C3-wide": ("C3 = 1e8\niso_C = 0", 1e8, 39487179.4872),
}


@pytest.mark.parametrize("name", list(LARGE_CONSTANTS))
@pytest.mark.parametrize("command", ["iso-bound", "width-bound"])
def test_large_comparison_constants(capsys, tmp_path, command, name):
    line, value, message = LARGE_CONSTANTS[name]
    cfg = tmp_path / "large.params"
    cfg.write_text(line + "\n")
    code, out, err = _run_quietly(capsys, command, "-m", "3", "--params", str(cfg))
    key = line.split(" = ")[0]
    if command == "width-bound":  # it reads neither constant
        assert code == 0, err
        assert json.loads(out)["params"][key] == value
    elif isinstance(message, float):
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["L_star"], doc["params"][key]) == (message, value)
        assert 0 <= doc["bracket_width"] <= max(1e-9, math.ulp(message))
    else:
        assert (code, out) == (1, "")
        assert err == f"dichromat: invalid input: {message}\n"


# an exact volume past the float range beside the float defaults: the float
# arithmetic that mixed them raised OverflowError with a traceback
MIXED_VOLUMES = {
    "tau": (f"tau = {10**400}", {
        "sweepout": "total volume at m = 3 overflows float64; use smaller volumes",
        "iso-bound": "v_m overflows float64; use smaller volumes",
        "width-bound": None,  # it reads no volume
    }),
    "V0": (f"V0 = {10**400}", dict.fromkeys(
        ("sweepout", "iso-bound", "width-bound"),
        "V0 - 3*mu overflows float64; give V0 and mu exactly, or smaller",
    )),
}


@pytest.mark.parametrize("name", list(MIXED_VOLUMES))
@pytest.mark.parametrize(
    "argv",
    [*[("sweepout", "--strategy", s) for s in sweepout.STRATEGIES], ("iso-bound",),
     ("width-bound",)],
    ids=[*sweepout.STRATEGIES, "iso-bound", "width-bound"],
)
def test_exact_volume_past_float_range_beside_floats(capsys, tmp_path, argv, name):
    line, messages = MIXED_VOLUMES[name]
    cfg = tmp_path / "mixed.params"
    cfg.write_text(line + "\n")
    code, out, err = _run_quietly(capsys, *argv, "-m", "3", "--params", str(cfg))
    message = messages[argv[0]]
    if message is None:
        assert code == 0, err
        assert json.loads(out)["params"][name] == 10**400
    else:
        assert (code, out) == (1, "")
        assert err == f"dichromat: invalid input: {message}\n"


@pytest.mark.parametrize("strategy", ["dfs-fill", "bfs-fill"])
def test_fill_step_overflow_refused(capsys, tmp_path, strategy):
    # the total (about 1.5e308) is finite, but a leaf's 20th fill step
    # forms 20 * 4.8e307 before dividing by 20
    cfg = tmp_path / "big.params"
    cfg.write_text("V0 = 5e307\nmu = 1e306\ntau = 1.5e306\nalpha = 1e307\n")
    code, out, err = _run_quietly(
        capsys, "sweepout", "--strategy", strategy, "-m", "1", "--params", str(cfg)
    )
    assert (code, out) == (1, "")
    assert err == (
        f"dichromat: invalid input: {strategy} forms 20 * 4.8e+307, which overflows "
        "float64; use smaller volumes or a larger delta\n"
    )


@pytest.mark.parametrize("delta", ["1e-310", "5e-324"])
@pytest.mark.parametrize("strategy", sweepout.STRATEGIES)
def test_delta_far_below_the_volumes_exits_2(capsys, strategy, delta):
    # volume / delta is infinite (and 5e-324 / 4 is 0), so is the row count
    code, out, err = _run_quietly(capsys, "sweepout", "--strategy", strategy, "-m", "3",
                                  "--delta", delta)
    assert (code, out) == (2, "")
    assert err.startswith(f"dichromat: capacity exceeded: {strategy} trace at m=3 needs up to inf")


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(sweepout.STRATEGIES),
    m=st.sampled_from([3, 24]),
    delta=st.floats(5e-324, 1e-6),
)
@example(strategy="uniform", m=3, delta=1e-300)
@example(strategy="dfs-fill", m=24, delta=1e-300)
@example(strategy="random-monotone", m=3, delta=1e-12)
def test_trace_cap_refusal_is_one_short_line(strategy, m, delta):
    # counts past 10**9 read to two digits, and past float64 as inf, so
    # no size makes a long line; --delta 1e-300 once printed 1068 characters
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["sweepout", "--strategy", strategy, "-m", str(m), "--delta", repr(delta)])
    assert code == 2
    line, = err.getvalue().splitlines()
    assert line.startswith(f"dichromat: capacity exceeded: {strategy} trace at m={m} needs up to ")
    assert len(line) < 200, line


def test_export_dot_frozen(capsys):
    code, out, _ = run(capsys, "export-dot", "-m", "2", "--witness", "t=1")
    assert code == 0
    assert out.startswith("graph dichromat {")
    assert "7 [fillcolor=black, fontcolor=white];" in out
    assert "3 -- 7 [style=bold, penwidth=2.5];" in out
    # exactly one black node and one bold edge for this witness
    assert out.count("fillcolor=black") == 1
    assert out.count("penwidth") == 1


def test_export_dot_node_witness(capsys):
    code, out, _ = run(capsys, "export-dot", "-m", "1", "--witness", "b=3")
    assert code == 0
    assert out.count("fillcolor=black") == 3
    assert out.count("penwidth") == 0  # all black: no dichromatic edges


def test_export_dot_bad_witness_syntax(capsys):
    code, _, err = run(capsys, "export-dot", "-m", "2", "--witness", "q=1")
    assert code == 1
    assert "witness" in err


def test_export_dot_oversized_witness_index_exits_1(capsys):
    # past Python's int-digit limit int() raises; the CLI names --witness
    code, out, err = run(capsys, "export-dot", "-m", "2", "--witness", "b=" + "9" * 5000)
    assert code == 1
    assert out == ""
    assert err.startswith("dichromat: invalid input: --witness") and "5000 digits" in err


def test_export_dot_long_out_of_range_index_names_its_digits(capsys):
    # under the int-digit limit the index parses; the message gives its
    # digit count and the range, not the index itself
    code, out, err = run(capsys, "export-dot", "-m", "3", "--witness", "b=" + "9" * 4000)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "index of 4000 digits outside range(1, 16)" in err


def test_negative_seed_exits_1_before_any_region(capsys, monkeypatch):
    def no_regions(*args, **kwargs):
        raise AssertionError("region graph built for a refused seed")

    monkeypatch.setattr(sweepout, "region_graph", no_regions)
    code, out, err = run(capsys, "sweepout", "--strategy", "random-monotone", "-m", "3",
                         "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "dichromat: invalid input: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("strategy", ["dfs-fill", "bfs-fill", "uniform"])
def test_negative_seed_ignored_by_other_strategies(capsys, strategy):
    code, out, err = run(capsys, "sweepout", "--strategy", strategy, "-m", "3", "--seed", "-1")
    assert code == 0, err
    assert json.loads(out)["seed"] == -1


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "profile", "--kind", "node")
    assert code == 1
    assert "invalid usage" in err


def test_unknown_command_exit_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


COMMANDS = ["profile", "bset", "verify", "width-bound", "iso-bound", "sweepout", "export-dot"]

# the --help text of the top level ("") and of each command, at 80 columns
HELP = {
    "": """\
usage: dichromat [-h]
                 {profile,bset,verify,width-bound,iso-bound,sweepout,export-dot}
                 ...

Command-line front end.

positional arguments:
  {profile,bset,verify,width-bound,iso-bound,sweepout,export-dot}
    profile             node or leaf profile
    bset                achievable black counts at one dichromatic count
    verify              replay one claimed bound
    width-bound         sweepout width lower bounds
    iso-bound           isoperimetric profile lower bound
    sweepout            generate a trace and certify it
    export-dot          witness coloring as Graphviz DOT

options:
  -h, --help            show this help message and exit
""",
    "profile": """\
usage: dichromat profile [-h] --kind {node,leaf} -m M [--format {csv,json}]

options:
  -h, --help           show this help message and exit
  --kind {node,leaf}
  -m M
  --format {csv,json}
""",
    "bset": """\
usage: dichromat bset [-h] -m M -d D

options:
  -h, --help  show this help message and exit
  -m M
  -d D
""",
    "verify": """\
usage: dichromat verify [-h] --which
                        {lemma22,thm27,lipschitz_node,lipschitz_leaf,cor25} -m
                        M

options:
  -h, --help            show this help message and exit
  --which {lemma22,thm27,lipschitz_node,lipschitz_leaf,cor25}
  -m M
""",
    "width-bound": """\
usage: dichromat width-bound [-h] -m M [--params FILE]

options:
  -h, --help     show this help message and exit
  -m M
  --params FILE
""",
    "iso-bound": """\
usage: dichromat iso-bound [-h] -m M [--params FILE]

options:
  -h, --help     show this help message and exit
  -m M
  --params FILE
""",
    "sweepout": """\
usage: dichromat sweepout [-h] --strategy
                          {dfs-fill,bfs-fill,uniform,random-monotone} -m M
                          [--params FILE] [--seed SEED] [--delta DELTA]

options:
  -h, --help            show this help message and exit
  --strategy {dfs-fill,bfs-fill,uniform,random-monotone}
  -m M
  --params FILE
  --seed SEED           random-monotone seed, >= 0; 0 when omitted (the JSON
                        echoes null); other strategies ignore it
  --delta DELTA
""",
    "export-dot": """\
usage: dichromat export-dot [-h] -m M --witness b=K|t=K

options:
  -h, --help         show this help message and exit
  -m M
  --witness b=K|t=K
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "top-level")
def test_help_text_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (0, HELP[command], "")


_CHOICES = ", ".join(f"'{c}'" for c in COMMANDS)
USAGE_ERRORS = [
    ((), "the following arguments are required: command"),
    (("frobnicate",), f"argument command: invalid choice: 'frobnicate' (choose from {_CHOICES})"),
    (("bset", "-m", "x", "-d", "1"), "argument -m: invalid int value: 'x'"),
    (("profile", "--kind", "node"), "the following arguments are required: -m"),
    (("profile", "--kind", "purple", "-m", "1"),
     "argument --kind: invalid choice: 'purple' (choose from 'node', 'leaf')"),
    (("bset", "-m", "2", "-d", "1", "extra"), "unrecognized arguments: extra"),
    (("sweepout", "--strategy", "dfs-fill", "-m", "3", "--delta", "abc"),
     "argument --delta: invalid float value: 'abc'"),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[" ".join(a) or "no-arguments" for a, _ in USAGE_ERRORS]
)
def test_usage_error_message_pinned(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"dichromat: invalid usage: {message}\n")


def _registered_commands(monkeypatch) -> list[str]:
    names: list[str] = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


@pytest.mark.parametrize(
    "argv",
    [
        ("profile", "--kind", "node", "-m", "1"),
        ("bset", "-m", "2", "-d", "1"),
        ("bset", "-m", "x", "-d", "1"),
        ("verify", "--which", "thm27", "-m", "2"),
        ("width-bound", "-m", "2"),
        ("iso-bound", "-m", "2"),
        ("sweepout", "--strategy", "uniform", "-m", "2"),
        ("export-dot", "-m", "1", "--witness", "b=1"),
    ],
    ids=" ".join,
)
def test_a_command_registers_only_its_parser(capsys, monkeypatch, argv):
    names = _registered_commands(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert code == (1 if "x" in argv else 0), err
    assert names == [argv[0]]


@pytest.mark.parametrize(
    "argv", [(), ("--help",), ("-h",), ("frobnicate",)],
    ids=["no-arguments", "--help", "-h", "frobnicate"],
)
def test_no_command_registers_every_parser_in_order(capsys, monkeypatch, argv):
    names = _registered_commands(monkeypatch)
    with contextlib.suppress(SystemExit):
        run(capsys, *argv)
    assert names == COMMANDS


def test_out_of_range_exit_1(capsys):
    code, _, err = run(capsys, "bset", "-m", "2", "-d", "99")
    assert code == 1
    assert "invalid input" in err


def test_capacity_exit_2(capsys):
    # even one row of the m = 23 table is above the cell cap
    code, _, err = run(capsys, "bset", "-m", "23", "-d", "0")
    assert code == 2
    assert "capacity" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("DICHROMAT_MAX_M", "2")
    code, _, err = run(capsys, "profile", "--kind", "node", "-m", "3")
    assert code == 2
    monkeypatch.setenv("DICHROMAT_MAX_M", "8")
    code, _, err = run(capsys, "bset", "-m", "9", "-d", "0")
    assert code == 2  # lowers the depth allowed for achievable sets
    monkeypatch.setenv("DICHROMAT_MAX_M", "30")
    code, _, err = run(capsys, "bset", "-m", "23", "-d", "0")
    assert code == 2  # but cannot lift the cell cap


def test_env_cap_junk_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("DICHROMAT_MAX_M", "many")
    code, _, err = run(capsys, "profile", "--kind", "node", "-m", "1")
    assert code == 1
    assert "DICHROMAT_MAX_M" in err


def test_float_formatting_12_digits(capsys, schema):
    doc = run_json(capsys, schema, "iso-bound", "-m", "2")
    # every float in the document survives a 12-significant-digit round trip
    def walk(x):
        if isinstance(x, float):
            assert float(f"{x:.12g}") == x
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(doc)


# sha256 of stdout and the exit code of one query per subcommand and of the
# three large JSON shapes (sweepout pairs, profile rows, bset members).
# Recorded with json.dumps(sort_keys=True, indent=2) still printing the
# JSON; they pin the byte-stable output of every later formatter.
GOLDEN = [
    (("profile", "--kind", "node", "-m", "7"), 0,
     "523850fe87b7d18f85a2aea384220bb0f1ec5688c2ab0cab8535fbe45e7f060b"),
    (("profile", "--kind", "leaf", "-m", "14", "--format", "json"), 0,
     "90c026a591435eea92a92ed9345705d4a97879e81741f226f78768b6365e4901"),
    (("bset", "-m", "16", "-d", "9"), 0,
     "a326321330e6e8f1e9efc736dc38ce9e5022fea39313bad3ce027749b77d9123"),
    (("bset", "-m", "6", "-d", "5"), 0,
     "f40d8ce2a4308d9366f33347d3ea8c08c2c38d915f9ef0c27a6c60f61efc491d"),
    (("verify", "--which", "lemma22", "-m", "7"), 0,
     "202619d27a382f3ae0d323f76f33a6131f284dff5483bb493e8ca7afc527e621"),
    (("verify", "--which", "cor25", "-m", "9"), 0,
     "5d417809242bf1d4e2af17cd08d11a2279ef716063c3f2e0b5b59aaf2e2b27c2"),
    (("width-bound", "-m", "10", "--params", WIDE_PARAMS), 0,
     "c5a4e8b1d26d6fe1ebb6f1eb999b1753b3e46751d60d13de526b9de57c75d2ce"),
    (("iso-bound", "-m", "9"), 0,
     "59566ca7e45a953a5a390f75c525b158fec57db37681c2e924a9524e92c0ca2c"),
    (("sweepout", "-m", "14", "--strategy", "random-monotone", "--seed", "7",
      "--params", WIDE_PARAMS), 0,
     "40cc6797e863f5bd4bf93bc27c69c1a327775621ed1dcc36009b7027976c2e97"),
    (("sweepout", "-m", "4", "--strategy", "dfs-fill"), 0,
     "29c96e1df1d20120b951d88bbc0cb8fc7f904dc8bfced926dc76bcd68eb854f0"),
    (("sweepout", "-m", "8", "--strategy", "dfs-fill"), 0,
     "b894070805c6b6c739ac39edfa5505909039ff23bd88c548edfc620310bdb85d"),
    (("sweepout", "-m", "8", "--strategy", "bfs-fill"), 0,
     "00f289039bb0d2928adb10da3c794b5f6fbfc3d0c092521129514042e7816814"),
    (("sweepout", "-m", "8", "--strategy", "uniform"), 0,
     "61f44b54741399c6cafaba35afa1914de1efe032b39e39bf13c1cd488ab60fcc"),
    (("export-dot", "-m", "5", "--witness", "t=11"), 0,
     "650470f7aed0a8017122afebe085c1e637092654986a6c9e81704fb195dbc6ac"),
    # the m = 14 witnesses break ties by reading the profile DP's tables
    (("profile", "--kind", "node", "-m", "14"), 0,
     "c6f9296e645bcec17a759ea1910af7eb9ad4bd7698518377aaa7528d31cc707b"),
    (("export-dot", "-m", "14", "--witness", "b=2641"), 0,
     "db7cc9c8cefe3cad93b8b163c5cfe63dd07250c14029fcff662d0ed7a696ed5a"),
    (("export-dot", "-m", "14", "--witness", "t=5461"), 0,
     "a8cb347ac91368e880135d6094f83ab4e1ed15aa406612593a148bd42c07646e"),
    # per m = 5, 6, 7: the row below the achievable-set band, its two
    # edges ceil(m/2) + 1 and 2**m, the row above it, and the top row
    (("bset", "-m", "5", "-d", "3"), 0,
     "57e5afb607286aad908e441a167731e91bf9a666599daad277c74535f90ce36c"),
    (("bset", "-m", "5", "-d", "4"), 0,
     "48ba7b1b4c65f07c886c4bf996dfd1ae3df402c8a77b149fc3ea106179ee826b"),
    (("bset", "-m", "5", "-d", "32"), 0,
     "c825d43dd754c41f82c7cb96708177dffac54f395d1f7a3f5f21064c40344e0d"),
    (("bset", "-m", "5", "-d", "33"), 0,
     "ec0dc00858a3e9a53e59809c9137baad8ec0ceb80c0e56cde1a01210baf5cca7"),
    (("bset", "-m", "5", "-d", "62"), 0,
     "b52dc2d8e026ae3db75b6abc14937230ef6007d7f55e52e766ebdf724bdafe60"),
    (("bset", "-m", "6", "-d", "3"), 0,
     "3a2ae6e719c474c75ed655dc918925d930cbe4e765cce124c26da8a401fe35a0"),
    (("bset", "-m", "6", "-d", "4"), 0,
     "15ad2b90b30e9b47baa126a97dcffc5917b56db4d6b803a8f14a1bae8de3b914"),
    (("bset", "-m", "6", "-d", "64"), 0,
     "408b22ad9f295582872c7737d47d10a864d50cbc561bd28bc81cded31d4a3d39"),
    (("bset", "-m", "6", "-d", "65"), 0,
     "fb26e9a2b6b6d53ef17de765d8252f0d8a6ee6a6c76d1bc5a8604818c34b2d49"),
    (("bset", "-m", "6", "-d", "126"), 0,
     "e4a7a88e0607d60571c791a7b8c0ec26d838b529de65971910cd61385b0049fd"),
    (("bset", "-m", "7", "-d", "4"), 0,
     "1dd79ad874f110777f62d78be69ca4b46c154a8bdabc4ad2ebacff37514ec6b0"),
    (("bset", "-m", "7", "-d", "5"), 0,
     "cef4404598d86908cb327a4d392ea018af266ff8d07424a38bf43416ccbeb8bd"),
    (("bset", "-m", "7", "-d", "128"), 0,
     "76f55692b8b89c868fe86576a111c43c175f7334221eb25b2cd5b6135b65ae7c"),
    (("bset", "-m", "7", "-d", "129"), 0,
     "9c7fa9528760fad731b84f864fab8c802101ad0b96d5c239507d41e2f2c8098e"),
    (("bset", "-m", "7", "-d", "254"), 0,
     "34ab102b356a40a74c1057c740208d0cbced22f06c27b7cc0a0f629e06d3c19b"),
    (("bset", "-m", "23", "-d", "0"), 2, hashlib.sha256(b"").hexdigest()),
    (("sweepout", "-m", "3", "--strategy", "uniform", "--delta", "0"), 1,
     hashlib.sha256(b"").hexdigest()),
    (("sweepout", "-m", "2", "--strategy", "uniform", "--delta", "nan"), 1,
     hashlib.sha256(b"").hexdigest()),
    (("sweepout", "-m", "2", "--strategy", "uniform", "--delta", "inf"), 1,
     hashlib.sha256(b"").hexdigest()),
]


# an id is the first three arguments, or the whole query where an earlier
# id already took those three
GOLDEN_IDS: list[str] = []
for _argv, _, _ in GOLDEN:
    _id = " ".join(_argv[:3])
    GOLDEN_IDS.append(" ".join(_argv) if _id in GOLDEN_IDS else _id)


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=GOLDEN_IDS)
def test_stdout_golden(capsys, argv, code, digest):
    got, out, err = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), err


# random-monotone sweepouts with the wide params, recorded while the generator
# still held the dense table: seed 0 and the three seeds `perfbench/run.py
# --workload sweep-wide` draws for each of its seeds 1-3
MONOTONE_SEEDS = (0, 1855891768, 1001658124, 2146016150, 932210680, 364917092, 880447965,
                  372882755, 179265562, 1748877774)
MONOTONE_PINS = {
    12: (
        "c6e4490723594b618643bf49e53552443576a803e9b2ebfa6b06ff5cbda6dcd2",
        "5cc83531e5fa0e58a66f53f08ae6afa1cbe89cd9a9ebc2e22e4cca1699d2d401",
        "111d7b40ed4dd9a62f73971182f172009753d91870786df7f12c94096b788c96",
        "33e3fff24c884e03e6d062e488947847624c37216ae8e692038a7871ba18ff6f",
        "aa7798ecc0a67ddea035ec7a8eea47e5c4cb9ca9cf7b5aad42aa29846ecf52e3",
        "78a793bd684c14db4e29b37f1d9f101e1791940a8c7ea47d23b220ddbdf9f587",
        "20085915e7f2f5b594e40428cef271e6c514cb79b890fcb40b6aae79c09666a8",
        "21d5ecace40787b5045228becae2d4025be6f6e92cf34d8fc40e59e9368744d4",
        "1d89ab863b9e48be2f24bb486e7b9dbdb15a1dded7586bbcea5ba35f4a7af819",
        "065b9a541b0642a3631a22af6f2ee23904c734f27dd789c81fb7feb3451b4315",
    ),
    14: (
        "947e7de0cae73f94b426b7cba08f85bc1da463be8ae59910705ca9ef2ba27b40",
        "524df187771fb2026de87b6695683c0951a82b460a0e7fd4eb79d2459eb8efb5",
        "8f993dd57d47dde42fe9334a5de075f5311c5c025fb391e20b41cac499f6065d",
        "6061cbd7c567a9a9316b490f4e25c16bbfc8defa838671db3ccbf0be74cf300a",
        "fdc0ba2f13b3bb0eeb60dd5c048c66853f6ddf492db7e18ca6e69e1ba0a555df",
        "22fc447e7e08e9ca556283e70d02301ca8d45c728216fc853971feca40f1a9ab",
        "b6fd4688512ae9520b93f2bce0aecac0d4eef2056287cbaee64681c14f51afa6",
        "232e32a39f839c2ea5c9092602cf310d7a882675005d0005a25041ef691c5ba4",
        "3260c584cf203e7d503c6efa7d3aaf5c28f9ebe74c39c3ced2a4612f239f3afb",
        "81a256bf71824cc4b582d32a1a1627c4e9396c8dbda4228d95f21bd2b3690e85",
    ),
    16: (
        "3846d4eed717e7675fa267b74454e0e378cbba935ab531da558e3ab289a0618e",
        "31323dba8ad9c0fa1ef5490c1dd036824b2c5c493a38570423bf8b31a7bed39b",
        "990201f8ca9289a23b13b4a640c349b4c91b68f03039fa5eed05b16815b9d387",
        "8cac16aa888b56082b5a3892b33895221d7e1a60d89c0f47eb719d11e1abd8d1",
        "e66b7294e5faf074b6b115ef72006d378de262dc26f7f8ccb5d69cbff6363f6e",
        "14a2470e5486e8fab9de3b141b8ea409fbf43312942ebce0ed673abf32465dc9",
        "e7f5261f42ae22b97fbaa21b7d97ca28d21277eb653849a687b01371cf1288e2",
        "f4ff73e46e573bb343b85abda89e3470c19f20245d0148671297cead86c72edf",
        "b027f48e858fc78958e4df99784b5cbefc24b40d75948c93f374d305d90ed3db",
        "6caac41d4a223ad8209c6b06cd14e4b60747313aeeeae6185ff3430cd8b0f6a8",
    ),
}


@pytest.mark.parametrize("m", sorted(MONOTONE_PINS))
def test_random_monotone_stdout_pinned(capsys, m):
    for seed, digest in zip(MONOTONE_SEEDS, MONOTONE_PINS[m]):
        code, out, err = run(capsys, "sweepout", "-m", str(m), "--strategy", "random-monotone",
                             "--seed", str(seed), "--params", WIDE_PARAMS)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), (seed, err)


def _emitted(payload):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli._emit_json(payload)
    except TypeError as exc:
        return f"TypeError: {exc}"
    return buf.getvalue()


def _oracle(payload):
    try:
        return json_dumps_indented(payload)
    except TypeError as exc:
        return f"TypeError: {exc}"


class _Level(IntEnum):
    LOW = 1


_SCALARS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1, 1e-300,
                     123456789.123456789, 2.5e16, np.float64(1 / 3), _Level.LOW]),
    st.fractions(max_denominator=60),
    st.integers(-50, 50).map(Fraction),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", 'say "hi"\n', "\u00fcn\u00efc\u00f8d\u00e9 \u2603", "\u2028", "\x00"]),
)
_INT = st.one_of(st.integers(-(10**12), 10**12), st.booleans(), st.just(_Level.LOW))
_INT_LISTS = st.one_of(st.lists(st.integers()), st.lists(_INT, max_size=6).map(tuple))
_INT_ROWS = st.integers(0, 3).flatmap(
    lambda width: st.lists(
        st.one_of(
            st.lists(st.integers(-9, 10**6), min_size=width, max_size=width),
            st.lists(_INT, min_size=width, max_size=width).map(tuple),
        ),
        max_size=6,
    )
)
_RAGGED = st.lists(st.lists(st.integers(0, 99), max_size=3), max_size=5)
_KEYS = st.one_of(st.text(max_size=5), st.sampled_from(["a", "b", 'q"', "\u00fc", ""]))
_VALUES = st.recursive(
    st.one_of(_SCALARS, _INT_LISTS, _INT_ROWS, _RAGGED),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)
_UNSUPPORTED = st.sampled_from([object(), {1, 2}, 1j, np.int64(3), np.bool_(True), b"x", range(2)])
_ODD_KEYS = st.one_of(
    _KEYS, st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from([(1, 2), Fraction(1, 2), _Level.LOW]),
)


@settings(max_examples=200, deadline=None)
@given(payload=st.dictionaries(_KEYS, _VALUES, max_size=5))
@example(payload={"z": -0.0, "a": math.nan, "i": math.inf, "j": -math.inf})
@example(payload={"f": Fraction(4, 2), "g": Fraction(-1, 3), "h": 1 / 3, "n": None})
@example(payload={"pairs": [[1, 2], [3, 4]], "tuples": [(1, 2), (3, 4)], "mixed": [[1, 2], (3, 4)]})
@example(payload={"bools": [[1, True], [2, 3]], "flat": [1, True, 2], "enum": [_Level.LOW, 2]})
@example(payload={"empty_rows": [[], []], "ragged": [[1], [2, 3]], "nested": [[[1]], [[2]]]})
@example(payload={"e": [], "d": {}, "t": (), "s": 'say "hi" \u2603', "x": [1, "a", 2.5]})
def test_emit_json_equals_dumps_oracle(payload):
    assert _emitted(payload) == _oracle(payload)


@settings(max_examples=150, deadline=None)
@given(
    payload=st.dictionaries(
        _ODD_KEYS,
        st.one_of(_VALUES, _UNSUPPORTED, st.lists(st.one_of(_SCALARS, _UNSUPPORTED), max_size=3)),
        max_size=4,
    )
)
@example(payload={"a": np.int64(3)})
@example(payload={"a": [1, 2, np.int64(3)]})
@example(payload={"a": [[1, 2], [3, np.int64(4)]]})
@example(payload={(1, 2): 0})
@example(payload={1: "a", "b": 2})
@example(payload={1.5: 0, None: 1, True: 2, 7: 3})
def test_emit_json_odd_keys_and_type_errors_match_oracle(payload):
    assert _emitted(payload) == _oracle(payload)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
@pytest.mark.parametrize(
    "shape", [(0,), (5,), (0, 2), (3, 0), (4, 2), (1, 3), (2, 2, 2)], ids=str
)
def test_emit_json_integer_arrays_equal_tolist_oracle(dtype, shape):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(sum(shape) + info.bits)
    x = rng.integers(info.min, info.max, size=shape, dtype=dtype, endpoint=True)
    x.flat[:2] = (info.min, info.max)[: x.size]  # both extremes, negative where signed
    payload = {"x": x, "nested": {"rows": [x, x.T]}, "last": x}
    want = {"x": x.tolist(), "nested": {"rows": [x.tolist(), x.T.tolist()]}, "last": x.tolist()}
    assert _emitted(payload) == json_dumps_indented(want)


def test_emit_json_bool_and_float_arrays_keep_their_json():
    flags = np.array([[True, False], [False, True]])
    floats = np.array([1 / 3, 0.1, 2.5e16, -0.0])
    out = _emitted({"flags": flags, "floats": floats})
    assert out == json_dumps_indented({"flags": flags.tolist(), "floats": floats.tolist()})
    assert out.count("true") == out.count("false") == 2
    assert "0.333333333333" in out and "0.3333333333333" not in out


def test_render_dot_equals_lines_oracle_every_witness_m6():
    for m in range(1, 7):
        for prof in (dp.node_profile(m), dp.leaf_profile(m)):
            for index in prof.index_range:
                coloring = dp.witness(prof, index)
                assert cli.render_dot(coloring) == render_dot_lines(coloring), (m, index)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.5, 0.98]))
def test_render_dot_equals_lines_oracle_random(m, seed, p):
    tree = build_tree(m)
    bits = np.random.default_rng(seed).random(tree.node_count) < p
    coloring = coloring_from_bits(tree, bits)
    assert cli.render_dot(coloring) == render_dot_lines(coloring)


@pytest.mark.parametrize("m", [1, 2, 8, 14])
def test_render_dot_equals_lines_oracle_uniform_colorings(m):
    tree = build_tree(m)
    for coloring in (all_white(tree), all_black(tree)):
        assert cli.render_dot(coloring) == render_dot_lines(coloring)


def test_render_dot_equals_lines_oracle_random_m14():
    tree = build_tree(14)
    coloring = coloring_from_bits(tree, np.random.default_rng(14).integers(0, 2, tree.node_count))
    assert cli.render_dot(coloring) == render_dot_lines(coloring)


def _count_leaf_profile_calls(monkeypatch) -> list[int]:
    calls = []
    real = dp.leaf_profile

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (dp, metric, bounds):
        monkeypatch.setattr(module, "leaf_profile", counting)
    return calls


def test_width_bound_builds_leaf_profile_once(capsys, monkeypatch):
    calls = _count_leaf_profile_calls(monkeypatch)
    code, _, _ = run(capsys, "width-bound", "-m", "4")
    assert code == 0
    assert calls == [4]


def test_sweepout_builds_no_leaf_profile(capsys, monkeypatch):
    # the closed-form paper bound needs no DP table, so no DP cap applies
    calls = _count_leaf_profile_calls(monkeypatch)
    monkeypatch.setenv("DICHROMAT_MAX_M", "2")
    code, _, err = run(capsys, "sweepout", "--strategy", "uniform", "-m", "3")
    assert code == 0, err
    assert calls == []


def _python(*args: str, timeout: float = 120, **extra_env: str) -> subprocess.CompletedProcess:
    # OpenBLAS reserves address space per thread; one thread keeps numpy's
    # import well inside the address-space limit used below
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop("DICHROMAT_MAX_M", None)
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def _main_in_one_gib(*argv: str, timeout: float = 120, **extra_env: str) -> subprocess.CompletedProcess:
    """cli.main(argv) in a child process under a 1 GiB address-space
    limit; the last stderr line is the seconds it took, import excluded."""
    script = (
        "import resource, sys, time\n"
        "limit = 2**30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from dichromat import cli\n"
        "start = time.perf_counter()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(f'{time.perf_counter() - start:.3f}', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    return _python("-c", script, *argv, timeout=timeout, **extra_env)


@pytest.mark.parametrize(
    "argv, what",
    [
        (("profile", "--kind", "leaf", "-m", "30"), "leaf_profile"),
        (("export-dot", "-m", "25", "--witness", "b=1"), "node_profile"),
        (("width-bound", "-m", "25"), "leaf_profile"),
    ],
    ids=["profile", "export-dot", "width-bound"],
)
def test_tree_cap_guards_profiles_past_a_lifted_cap(argv, what):
    # DICHROMAT_MAX_M lifts the profile cap up to the tree cap, m = 24, and
    # no further: the refusal comes before any row of 2**m entries, so a
    # 1 GiB limit never shows as out of memory
    proc = _main_in_one_gib(*argv, timeout=30, DICHROMAT_MAX_M="40")
    assert proc.returncode == 2, proc.stderr[-2000:]
    message, seconds = proc.stderr.splitlines()
    m = argv[argv.index("-m") + 1]
    assert message == f"dichromat: capacity exceeded: {what} is capped at m=24, got m={m}"
    assert float(seconds) < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ("width-bound", "-m", "200000"),
        ("verify", "--which", "lemma22", "-m", "10000000000"),
        ("bset", "-m", "24", "-d", "2000"),
        ("sweepout", "-m", "22", "--strategy", "dfs-fill"),
        ("sweepout", "-m", "23", "--strategy", "uniform"),
    ],
    ids=["width-bound", "lemma22", "bset", "sweepout-dfs-fill", "sweepout-uniform"],
)
def test_oversized_m_refused_before_work(argv):
    # the cap is checked before a(m), 2**(m+1) or any table or capacity
    # vector is formed
    proc = _main_in_one_gib(*argv, timeout=30)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "capacity exceeded" in proc.stderr and "Traceback" not in proc.stderr
    assert float(proc.stderr.splitlines()[-1]) < 2.0


def test_lemma22_past_the_cut_limit_refused_before_any_table():
    # lemma22_depth(21) = 5 passes the depth check, but the table of T_21
    # may be cut at d <= 2 at most, so the cut is refused before any table
    proc = _main_in_one_gib("verify", "--which", "lemma22", "-m", "21", timeout=30)
    assert proc.returncode == 2, proc.stderr[-2000:]
    message, seconds = proc.stderr.splitlines()
    assert message == (
        "dichromat: capacity exceeded: the feasible-pairs table at m=21 cut at d=5 "
        f"exceeds the cap of {dp.PAIRS_CELLS_CAP} cells; use a smaller m or d"
    )
    assert float(seconds) < 2.0


def test_band_bset_reads_no_table():
    # bset -m 12 -d 1535 is a row of the achievable-set band: a fresh
    # process answers it in well under a second (about 15 s when it read
    # the FFT table) and never imports numpy.fft
    script = (
        "import sys, time\n"
        "from dichromat import cli\n"
        "start = time.perf_counter()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(f'{time.perf_counter() - start:.3f}', 'numpy.fft' in sys.modules,\n"
        "      file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = _python("-c", script, "bset", "-m", "12", "-d", "1535", timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seconds, fft = proc.stderr.split()
    assert fft == "False" and float(seconds) < 1.0
    assert json.loads(proc.stdout)["members"] == list(range(512, 7680))


def test_lemma22_m20_runs_in_one_gib():
    proc = _main_in_one_gib("verify", "--which", "lemma22", "-m", "20")
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    assert doc["holds"] is True and doc["computed"] == 1.0


def test_python_m_dichromat():
    proc = _python("-m", "dichromat", "profile", "--kind", "node", "-m", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "b,min_d\n1,1\n2,1\n3,0\n"


def test_python_m_dichromat_cli():
    proc = _python("-m", "dichromat.cli", "profile", "--kind", "node", "-m", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "b,min_d\n1,1\n2,2\n3,1\n4,1\n5,2\n6,1\n7,0\n"


def test_dense_trace_over_cap_exits_2():
    # A 1 GiB address-space limit turns any attempt at a pass over the
    # uniform trace (about 23.5 GiB of cells at m=12) into an immediate
    # allocation failure, so the check never asks the machine for the memory.
    proc = _main_in_one_gib("sweepout", "--strategy", "uniform", "-m", "12")
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "capacity exceeded" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_memory_error_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 375. MiB")

    monkeypatch.setattr(sweepout, "generate_trace", exhausted)
    code, out, err = run(capsys, "sweepout", "--strategy", "dfs-fill", "-m", "3")
    assert code == 2
    assert out == ""
    assert err == "dichromat: capacity exceeded: out of memory (Unable to allocate 375. MiB)\n"


@pytest.mark.parametrize("strategy", ["dfs-fill", "bfs-fill"])
def test_fill_m14_certifies_in_one_gib(strategy):
    # 770 027 steps x 65 533 entries: 376 GiB as a dense table, one
    # (step, entry) cell a step as blocks
    proc = _main_in_one_gib("sweepout", "--strategy", strategy, "-m", "14", timeout=90)
    assert proc.returncode in (0, 3), proc.stderr[-2000:]
    assert json.loads(proc.stdout)["steps"] == 770027
    assert float(proc.stderr.splitlines()[-1]) < 30.0


@pytest.mark.parametrize(
    "strategy, digest",
    [
        ("dfs-fill", "5205269fceaa56d298a4acd14ec6a42c21702fdc3c679a2bf7b04555848a2c59"),
        ("bfs-fill", "dc67300562449af38f98a05ec4ea55fdba5444d65ef904d16d6e526951b2bfd1"),
    ],
    ids=["dfs-fill", "bfs-fill"],
)
def test_fill_m14_runs_well_under_two_seconds(capsys, strategy, digest):
    # one (column, value) event a step in chunks, not one block per entry,
    # which took about 1.5 s a query in-process; stdout as the per-entry
    # blocks printed it
    start = time.perf_counter()
    code, out, err = run(capsys, "sweepout", "-m", "14", "--strategy", strategy)
    elapsed = time.perf_counter() - start
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), err
    assert elapsed < 0.75, f"sweepout -m 14 --strategy {strategy} took {elapsed:.2f} s"


@pytest.mark.parametrize("strategy", ["dfs-fill", "bfs-fill", "uniform"])
def test_sweepout_m8_memory_is_not_table_sized(capsys, strategy):
    # the dense m = 8 table alone is 94 MB; a pass holds one row block
    tracemalloc.start()
    try:
        code = cli.main(["sweepout", "-m", "8", "--strategy", strategy])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < 8 * 2**20, peak


def test_dense_trace_m9_runs_in_one_gib():
    # the 375 MiB m=9 table is the only table-sized allocation of the query
    proc = _main_in_one_gib("sweepout", "--strategy", "dfs-fill", "-m", "9")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["steps"] == 24043
