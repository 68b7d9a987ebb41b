"""End-to-end CLI: frozen outputs, exit codes, schema conformance."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import dichromat
from dichromat import BoundReport
from dichromat import bounds, cli, dp, metric, sweepout

SRC = str(Path(dichromat.__file__).resolve().parents[1])


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


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "profile", "--kind", "node")
    assert code == 1
    assert "invalid usage" in err


def test_unknown_command_exit_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_out_of_range_exit_1(capsys):
    code, _, err = run(capsys, "bset", "-m", "2", "-d", "99")
    assert code == 1
    assert "invalid input" in err


def test_capacity_exit_2(capsys):
    code, _, err = run(capsys, "bset", "-m", "12", "-d", "0")
    assert code == 2
    assert "capacity" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("DICHROMAT_MAX_M", "2")
    code, _, err = run(capsys, "profile", "--kind", "node", "-m", "3")
    assert code == 2
    monkeypatch.setenv("DICHROMAT_MAX_M", "9")
    code, out, _ = run(capsys, "bset", "-m", "9", "-d", "0")
    assert code == 0  # raised above the built-in default


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


def _python(*args: str) -> subprocess.CompletedProcess:
    # OpenBLAS reserves address space per thread; one thread keeps numpy's
    # import well inside the address-space limit used below
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop("DICHROMAT_MAX_M", None)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_m_dichromat():
    proc = _python("-m", "dichromat", "profile", "--kind", "node", "-m", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "b,min_d\n1,1\n2,1\n3,0\n"


def test_python_m_dichromat_cli():
    proc = _python("-m", "dichromat.cli", "profile", "--kind", "node", "-m", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "b,min_d\n1,1\n2,2\n3,1\n4,1\n5,2\n6,1\n7,0\n"


def test_dense_trace_over_cap_exits_2():
    # A 1 GiB address-space limit turns any attempt at the full dense table
    # (about 23.5 GiB at m=12) into an immediate allocation failure, so the
    # check never asks the machine for the memory.
    script = (
        "import resource, sys\n"
        "limit = 2**30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from dichromat import cli\n"
        "sys.exit(cli.main(['sweepout', '--strategy', 'dfs-fill', '-m', '12']))\n"
    )
    proc = _python("-c", script)
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


def test_dense_trace_m9_runs_in_one_gib():
    # the 375 MiB m=9 table is the only table-sized allocation of the query
    script = (
        "import resource, sys\n"
        "limit = 2**30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from dichromat import cli\n"
        "sys.exit(cli.main(['sweepout', '--strategy', 'dfs-fill', '-m', '9']))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["steps"] == 24043
