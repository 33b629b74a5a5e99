"""Source size: each Python file's line count, as ``wc -l`` gives it, and its code lines.

Usage: python3 tools/codelines.py [PATH ...]

A code line holds a token other than a comment, and lies outside every
docstring: the string that opens a module, class or function body.  Lines
inside any other string literal are code.  Each PATH is a Python file or a
directory searched for ``*.py`` files; the default is the package,
``src/bibliorank``.  Prints one row per file, then the total.  Exits 2
naming a PATH that does not exist.  Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bibliorank"

# Tokens that hold no code: a comment, a line end, the indentation changes, and the stream's own markers.
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: bytes) -> tuple[int, int]:
    """The number of newlines in ``source``, and of its code lines."""
    code: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return source.count(b"\n"), len(code)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [PACKAGE]
    for path in paths:
        if not path.exists():
            print(f"error: {path}: no such file or directory", file=sys.stderr)
            return 2
    files = [file for path in paths for file in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  file")
    for file in files:
        lines, code = count(file.read_bytes())
        total_lines += lines
        total_code += code
        print(f"{lines:7d} {code:7d}  {os.path.relpath(file)}")
    print(f"{total_lines:7d} {total_code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
