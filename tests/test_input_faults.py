"""Every input fault that the column table implies exits 2 naming its file, line and message, and writes nothing.

The faults come from ``conftest.column_faults``, so a new column or a new
rule in ``corpus.SCHEMAS`` gets its rows here without an edit.  Each is put
into one row of a file that a small synth corpus and the step commands
wrote: corpus files go through ``report``, score and rated files through
``rank``, ranking files through ``compare``.  Each is read in one block and
in blocks of one row, and both name the same line with the same message.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from bibliorank import cli
from bibliorank import corpus as corpus_mod
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
# The label of the fault that each rule a column carries implies.
RULE_FAULTS = {"ref": "unknown reference", "blank_when": "blank where set", "per": "another group value"}


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
def test_input_fault_exits_2_naming_file_line_and_message(inputs, tmp_path, monkeypatch, capsys, fault):
    directory, name = INPUTS[fault.stem]
    shutil.copytree(inputs / directory, tmp_path / directory)
    path = tmp_path / directory / name
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    # The first row the fault can go into: a repeated key or group value needs an earlier row, a blank a set value.
    index = next(i for i, row in enumerate(rows) if fault.applies(row.split(","), i))
    fields, message = spoil(fault, rows[index].split(","), rows[0].split(","))
    rows[index] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8", errors="surrogateescape")
    out = tmp_path / "out"
    capsys.readouterr()
    # In one block the block fails and its rows are checked again one by one; in one-row blocks each is checked alone.
    for block_rows in (corpus_mod.BLOCK_ROWS, 1):
        monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", block_rows)
        assert cli.main(_command(fault.stem, path, inputs, out)) == 2, block_rows
        assert capsys.readouterr().err == f"error: {name}:{index + 2}: {message}\n", block_rows
        assert not out.exists(), block_rows


def test_every_read_column_has_faults():
    assert {(f.stem, f.column) for f in CASES} == {(stem, str(spec)) for stem in INPUTS for spec in SCHEMAS[stem]}
    # Every rule in the column table has its fault: each rule a column carries, and each file's key.
    ruled = {
        (stem, str(spec), label) for stem in INPUTS for spec in SCHEMAS[stem]
        for rule, label in RULE_FAULTS.items() if getattr(spec, rule) is not None
    }
    assert ruled <= {(f.stem, f.column, f.label) for f in CASES}
    assert {f.stem for f in CASES if f.label == "repeated key"} == set(INPUTS)


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
