"""The source size counter, ``tools/codelines.py``, on a module whose lines are counted by hand."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"

# 19 lines.  Code: 4 (import and comment), 9 (def), 11 and 12 (a string that is no docstring), 13, 16 and 19.
MODULE = '''\
"""Module docstring
over two lines."""

import os  # a comment after code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string
that is code"""
    return x


class C:
    """Class docstring."""

    y = 1
'''


def run_tool(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=cwd, capture_output=True, text=True, encoding="utf-8", timeout=60
    )


def test_codelines_counts_lines_and_code_lines_per_file_and_in_total(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(MODULE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n", encoding="utf-8")
    (package / "notes.txt").write_text("not python\n", encoding="utf-8")
    proc = run_tool("pkg", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "  lines    code  file",
        "     19       7  pkg/a.py",
        "      1       1  pkg/b.py",
        "     20       8  total",
    ]


def test_codelines_exits_2_naming_a_missing_path(tmp_path):
    proc = run_tool("missing", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: missing: no such file or directory\n"
    assert proc.stdout == ""
