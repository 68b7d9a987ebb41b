"""`tools/replay.py`, the CLI replay at two checkouts."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("replay", ROOT / "tools" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# an answer, a cap refusal, a usage error and help, which exits through SystemExit
ARGVS = [
    ["profile", "--kind", "node", "-m", "2"],
    ["bset", "-m", "23", "-d", "0"],
    ["sweepout", "-m", "2", "--strategy", "nope"],
    ["-h"],
]


def test_checkout_replays_identical_to_itself(tmp_path, capsys):
    path = tmp_path / "argvs"
    path.write_text("".join(json.dumps(argv) + "\n" for argv in ARGVS))
    assert _tool().main([str(ROOT), str(ROOT), str(path)]) == 0
    assert capsys.readouterr().out == f"{len(ARGVS)} identical, 0 differ\n"


def test_side_captures_each_outcome():
    (out, err, code), (_, refusal, capped), (_, usage, invalid), (_, _, helped) = (
        _tool().run_side(ROOT, ARGVS)
    )
    empty = hashlib.sha256(b"").hexdigest()
    assert (code, capped, invalid, helped) == (0, 2, 1, 0)
    assert out != empty and err == empty and refusal != empty and usage != empty


def test_changed_stdout_stderr_and_exit_code_reported(monkeypatch, tmp_path, capsys):
    tool = _tool()
    parent = [["a", "x", 0], ["b", "y", 0], ["c", "z", 1], ["d", "w", 3]]
    change = [["a", "x", 0], ["B", "y", 0], ["c", "Z", 2], ["d", "w", 0]]
    assert tool.differences(ARGVS, parent, change) == [
        (ARGVS[1], ["stdout"]), (ARGVS[2], ["stderr", "exit code"]), (ARGVS[3], ["exit code"]),
    ]
    sides = {"parent": parent, "change": change}
    monkeypatch.setattr(tool, "run_side", lambda root, argvs: sides[root])
    path = tmp_path / "argvs"
    path.write_text("".join(json.dumps(argv) + "\n" for argv in ARGVS))
    assert tool.main(["parent", "change", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "1 identical, 3 differ",
        f"differs in stdout: {json.dumps(ARGVS[1])}",
        f"differs in stderr, exit code: {json.dumps(ARGVS[2])}",
        f"differs in exit code: {json.dumps(ARGVS[3])}",
    ]
