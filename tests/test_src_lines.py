"""`tools/src_lines.py`, the code-line count of ``src/``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# every line the count keeps ends in "# code"; the rest are docstrings,
# comments and blank lines
SNIPPET = '''\
"""Module docstring
over two lines."""

import os  # code


# a comment line
class Box:  # code
    """Class docstring."""

    def size(self):  # code
        """Function
        docstring."""
        "a bare string after the docstring"  # code
        return max(  # code
            1,  # code

            2,  # code
        )  # code
'''


def test_code_lines_counts_only_code():
    assert _tool().code_lines(SNIPPET) == SNIPPET.count("# code") == 8


def test_main_rows_sum_to_its_total(capsys):
    tool = _tool()
    src = ROOT / "src"
    assert tool.main([str(src)]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    counts = {path: int(count) for count, path in map(str.split, rows)}
    assert counts == {
        str(path.relative_to(src)): tool.code_lines(path.read_text(encoding="utf-8"))
        for path in src.rglob("*.py")
    }
    assert total.split() == [str(sum(counts.values())), "total"]
