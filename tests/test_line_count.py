"""Smoke test of tests/line_count.py, the one counter of the package's size."""

import subprocess
import sys
from pathlib import Path

import line_count

_MODULE = '''"""A module docstring
over two lines."""

# a comment line
x = 1  # a trailing comment


def f():
    """One line."""
    return (x +
            2)


class C:
    s = """not a docstring"""
'''


def test_counts_leave_out_blank_comment_and_docstring_lines():
    assert line_count.counts(_MODULE) == (15, 6)


def test_script_prints_every_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(_MODULE)
    (tmp_path / "b.py").write_text("y = 2\n")
    out = subprocess.run([sys.executable, line_count.__file__, str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [row.split() for row in out.splitlines()] == [
        ["module", "lines", "code"], ["a.py", "15", "6"], ["b.py", "1", "1"], ["total", "16", "7"]]
    # on the package, the lines are what wc -l counts
    package = Path(line_count.__file__).parents[1] / "src" / "pencils"
    rows = subprocess.run([sys.executable, line_count.__file__], capture_output=True,
                          text=True, check=True).stdout.splitlines()
    total = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    assert rows[-1].split()[:2] == ["total", str(total)]
