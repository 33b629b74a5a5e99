"""Golden outputs: the default synth corpus (seed 3) and its reports, and a hand-written ``compare``.

``golden_seed3.json`` maps every file that ``synth --seed 3`` and
``report`` in csv, json and markdown format write to its sha256.
``golden_synth.json`` maps each of five small ``synth`` settings to the
sha256 of the nine files it writes.  Each setting takes a draw path that
the seed-3 corpus never takes (a one-year window; a lone SDS, where 6 of
the 20 universities take the one-SDS staff fallback; no external authors;
a single peer university; long bylines in three life-science UDAs), so a
change to the order or number of draws on that path shows in its bytes.
``golden_compare.json`` holds the exact text of every file ``compare``
writes in each format for ``RANKINGS``: entities dropped on both sides of
every pair, tied scores, a ranking whose scores rise with rank, and top
percentages small enough to leave a top-k row empty.  A change that alters
any of these bytes must say why and repin the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bibliorank import cli

GOLDEN = Path(__file__).with_name("golden_seed3.json")
GOLDEN_SYNTH = json.loads(Path(__file__).with_name("golden_synth.json").read_text(encoding="utf-8"))
GOLDEN_COMPARE = Path(__file__).with_name("golden_compare.json")

RANKINGS = {
    "P": """\
U01,9.5,1.0
U02,8.0,2.5
U03,8.0,2.5
U04,7.25,4.0
U05,6.0,5.0
U06,5.5,6.5
U07,5.5,6.5
U08,4.0,8.0
U09,3.0,9.0
U10,2.0,10.0
U11,1.0,11.0
""",
    "VTR": """\
U03,0.9,1.0
U02,0.85,2.0
U13,0.8,3.0
U04,0.7,4.5
U06,0.7,4.5
U12,0.6,6.0
U07,0.5,7.0
U08,0.4,8.5
U09,0.4,8.5
U10,0.2,10.0
""",
    "GDP": """\
U05,100.0,1.0
U01,120.0,2.0
U14,130.0,3.0
U02,150.0,4.5
U09,150.0,4.5
U03,170.0,6.0
U10,180.0,7.0
U04,200.0,8.5
U07,200.0,8.5
U06,250.0,10.0
U08,260.0,11.0
""",
}


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


@pytest.mark.parametrize("settings", GOLDEN_SYNTH)
def test_synth_settings_match_golden_hashes(tmp_path, settings):
    assert cli.main(["synth", *settings.split(), "--out-dir", str(tmp_path)]) == 0
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
    assert hashes == GOLDEN_SYNTH[settings]


def compare_outputs(root: Path, rankings: dict[str, str] = RANKINGS) -> dict[str, str]:
    """Run ``compare`` on ``rankings`` in every format under ``root``; map each output to its text."""
    paths = []
    for label, rows in rankings.items():
        path = root / "rankings" / f"{label}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("entity_id,score,rank\n" + rows, encoding="utf-8", newline="\n")
        paths.append(str(path))
    out = root / "out"
    for fmt in ("csv", "json", "markdown"):
        argv = ["compare", *paths, "--percentages", "2.5,5,50,100", "--format", fmt, "--out-dir", str(out / fmt)]
        assert cli.main(argv) == 0
    return {
        path.relative_to(out).as_posix(): path.read_bytes().decode("utf-8")
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_compare_outputs_match_golden_bytes(tmp_path):
    golden = json.loads(GOLDEN_COMPARE.read_text(encoding="utf-8"))
    assert compare_outputs(tmp_path / "as_written") == golden
    # A ranking file's row order is not part of the ranking.
    reversed_rows = {label: "".join(reversed(rows.splitlines(keepends=True))) for label, rows in RANKINGS.items()}
    assert compare_outputs(tmp_path / "reversed", reversed_rows) == golden
