"""Replay CLI argvs at two checkouts and compare what each prints.

Usage: ``python tools/replay.py PARENT CHANGE ARGVS``

PARENT and CHANGE are checkout roots.  ARGVS holds one JSON array of
strings per line, the arguments after ``dichromat``.  Each side runs in
one fresh interpreter with ``PYTHONPATH=<root>/src``, started in the
current directory, and calls ``dichromat.cli.main`` on every argv in
turn, capturing its stdout, stderr and exit code.  Prints the identical
and differing counts, then every differing argv with what differs; exits
1 if any argv differs, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# run by each side's interpreter: argvs on stdin, one JSON line out per
# argv, [stdout sha256, stderr sha256, exit code]; an exception main lets
# through is an outcome too, named in place of the exit code
_SIDE = """
import contextlib, hashlib, io, json, sys
from dichromat.cli import main

def digest(buf):
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()

for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    print(json.dumps([digest(out), digest(err), code]), flush=True)
"""

_OUTCOMES = ("stdout", "stderr", "exit code")


def run_side(root: str | Path, argvs: list[list[str]]) -> list[list]:
    """[stdout sha256, stderr sha256, exit code] of each argv, all run in
    one interpreter on ``root``'s ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _SIDE], input="".join(json.dumps(a) + "\n" for a in argvs),
        capture_output=True, text=True, env=env,
    )
    results = [json.loads(line) for line in done.stdout.splitlines()]
    if done.returncode or len(results) != len(argvs):
        raise RuntimeError(f"the replay at {root} stopped after {len(results)} argvs:\n"
                           f"{done.stderr}")
    return results


def differences(
    argvs: list[list[str]], parent: list[list], change: list[list]
) -> list[tuple[list[str], list[str]]]:
    """Each argv whose outcomes differ, with the names of those outcomes."""
    found = []
    for argv, before, after in zip(argvs, parent, change):
        names = [name for name, a, b in zip(_OUTCOMES, before, after) if a != b]
        if names:
            found.append((argv, names))
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tools/replay.py PARENT CHANGE ARGVS", file=sys.stderr)
        return 2
    parent, change, path = argv
    argvs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    found = differences(argvs, run_side(parent, argvs), run_side(change, argvs))
    print(f"{len(argvs) - len(found)} identical, {len(found)} differ")
    for args, names in found:
        print(f"differs in {', '.join(names)}: {json.dumps(args)}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
