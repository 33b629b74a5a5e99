"""Golden output hashes: the default synth corpus (seed 3) and its reports.

``golden_seed3.json`` maps every file that ``synth --seed 3`` and
``report`` in csv, json and markdown format write to its sha256.  A
change that alters any of these bytes must say why and repin the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from bibliorank import cli

GOLDEN = Path(__file__).with_name("golden_seed3.json")


def test_default_corpus_reports_match_golden_hashes(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--seed", "3", "--out-dir", str(corpus)]) == 0
    for fmt in ("csv", "json", "markdown"):
        argv = ["report", "--corpus-dir", str(corpus), "--format", fmt, "--out-dir", str(tmp_path / fmt)]
        assert cli.main(argv) == 0
    hashes = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert hashes == json.loads(GOLDEN.read_text(encoding="utf-8"))
