"""Every input fault that the column table implies exits 2 naming its file, line and message, and writes nothing.

The faults come from ``conftest.column_faults``, so a new column or a new
rule in ``corpus.SCHEMAS`` gets its rows here without an edit.  Each is put
into one row of a file that a small synth corpus and the step commands
wrote: corpus files go through ``report``, score and rated files through
``rank``, ranking files through ``compare``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from bibliorank import cli
from bibliorank.corpus import DEFAULT_WINDOW, SCHEMAS, CorpusPaths
from bibliorank.synth import SynthParams, synthesize

from conftest import column_faults, spoil

WINDOW_LEN = DEFAULT_WINDOW[1] - DEFAULT_WINDOW[0] + 1
CORPUS_FILES = tuple(CorpusPaths.__annotations__)
# The directory and file each read schema's faults go into; the eligibility file is written, never read.
INPUTS = {
    **{stem: ("corpus", f"{stem}.csv") for stem in CORPUS_FILES},
    "scores": ("scores", "scores_uda.csv"),
    "rated": ("vtr", "vtr_ratings.csv"),
    "ranking": ("rank", "ranking_LAT.csv"),
}
CASES = [fault for stem in INPUTS for fault in column_faults(stem, WINDOW_LEN)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("inputs")
    synthesize(SynthParams(seed=3, universities=4, udas=2, sds_per_uda=2), root / "corpus")
    for argv in (
        ["score", "--corpus-dir", str(root / "corpus"), "--out-dir", str(root / "scores")],
        ["vtr", "--outcomes", str(root / "corpus" / "peer_outcomes.csv"), "--out-dir", str(root / "vtr")],
        ["rank", "--input", str(root / "corpus" / "indicators.csv"), "--out-dir", str(root / "rank")],
    ):
        assert cli.main(argv) == 0
    return root


def _command(stem: str, path: Path, inputs: Path, out: Path) -> list[str]:
    if stem in CORPUS_FILES:
        return ["report", "--corpus-dir", str(path.parent), "--out-dir", str(out)]
    if stem == "ranking":
        return ["compare", str(path), str(inputs / "rank" / "ranking_RES.csv"), "--out-dir", str(out)]
    return ["rank", "--input", str(path), "--out-dir", str(out)]


@pytest.mark.parametrize("fault", CASES, ids=[f"{f.stem}-{f.column}-{f.label}" for f in CASES])
def test_input_fault_exits_2_naming_file_line_and_message(inputs, tmp_path, capsys, fault):
    directory, name = INPUTS[fault.stem]
    shutil.copytree(inputs / directory, tmp_path / directory)
    path = tmp_path / directory / name
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    # A value fault goes into the first row (line 2), a repeated key into the second row (line 3).
    index = 0 if fault.value is not None else 1
    fields, message = spoil(fault, rows[index].split(","), rows[0].split(","))
    rows[index] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8", errors="surrogateescape")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(_command(fault.stem, path, inputs, out)) == 2
    assert capsys.readouterr().err == f"error: {name}:{index + 2}: {message}\n"
    assert not out.exists()


def test_every_read_column_has_faults():
    assert {(f.stem, f.column) for f in CASES} == {(stem, str(spec)) for stem in INPUTS for spec in SCHEMAS[stem]}


def test_vtr_reads_peer_outcomes_without_the_taxonomy(inputs, tmp_path):
    # vtr has no taxonomy, so a UDA that report refuses as unknown is rated.
    path = tmp_path / "peer_outcomes.csv"
    text = (inputs / "corpus" / "peer_outcomes.csv").read_text(encoding="utf-8")
    path.write_text(text.replace(",UDA1,", ",UDAX,", 1), encoding="utf-8")
    assert cli.main(["vtr", "--outcomes", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert ",UDAX," in (tmp_path / "out" / "vtr_ratings.csv").read_text(encoding="utf-8")


def test_vtr_reads_peer_outcomes_without_the_staff_roster(inputs, tmp_path):
    # vtr has no staff roster, so a university that report refuses as unknown is rated.
    path = tmp_path / "peer_outcomes.csv"
    text = (inputs / "corpus" / "peer_outcomes.csv").read_text(encoding="utf-8")
    path.write_text(text.replace("\nU001,", "\nUX01,", 1), encoding="utf-8")
    assert cli.main(["vtr", "--outcomes", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert "\nUX01," in (tmp_path / "out" / "vtr_ratings.csv").read_text(encoding="utf-8")
