"""Cross-interpreter byte gate: ``score``, ``vtr`` and ``rank`` write the same bytes under every given Python.

Usage: python3 tools/xpython.py PYTHON [PYTHON ...]

The running interpreter, which needs numpy, synthesizes a small seeded
corpus.  Then the running interpreter and each PYTHON run ``score``,
``vtr`` and ``rank`` on it from this checkout's ``src``, with numpy and
scipy blocked, so each run also shows that ``bibliorank.cli`` imports and
those subcommands work where neither is installed.  Every output file's
sha256 is compared with the running interpreter's.

Exit codes: 0 when every file matches, 1 naming the first file that differs
or the first command that fails, 2 for a usage error.  Uses the standard
library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the bibliorank CLI with the arguments after -c; importing numpy or scipy raises ImportError.
BLOCKED_RUN = "import sys; sys.modules.update(numpy=None, scipy=None); from bibliorank.cli import run; run()"


def bibliorank(python: str, args: list[str], block: bool) -> None:
    """Run one bibliorank command under ``python``, raising SystemExit(1) with its stderr if it fails."""
    code = BLOCKED_RUN if block else "from bibliorank.cli import run; run()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([python, "-c", code, *args], env=env, capture_output=True, text=True, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"{python}: cannot run: {exc.strerror}") from None
    if proc.returncode != 0:
        raise SystemExit(f"{python}: bibliorank {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def outputs(python: str, corpus: Path, out: Path) -> dict[str, str]:
    """sha256 of every file that score, vtr and rank write under ``python``, keyed by its path below ``out``."""
    scores, ranks = out / "scores", out / "ranks"
    for args in (
        ["score", "--corpus-dir", str(corpus), "--out-dir", str(scores)],
        ["vtr", "--outcomes", str(corpus / "peer_outcomes.csv"), "--out-dir", str(scores)],
        ["rank", "--input", str(scores / "scores_university.csv"), "--out-dir", str(ranks)],
        ["rank", "--input", str(scores / "scores_sds.csv"), "--out-dir", str(ranks)],
        ["rank", "--input", str(scores / "vtr_ratings.csv"), "--out-dir", str(ranks)],
        ["rank", "--input", str(corpus / "indicators.csv"), "--out-dir", str(ranks)],
    ):
        bibliorank(python, args, block=True)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = work / "corpus"
        bibliorank(sys.executable, ["synth", "--seed", "3", "--out-dir", str(corpus)], block=False)
        expected = outputs(sys.executable, corpus, work / "reference")
        for index, python in enumerate(argv):
            got = outputs(python, corpus, work / str(index))
            for name in sorted(expected.keys() | got.keys()):
                if expected.get(name) != got.get(name):
                    print(f"{python}: {name} differs from {sys.executable}'s", file=sys.stderr)
                    return 1
            print(f"{python}: {len(got)} files match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
