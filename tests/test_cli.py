"""CLI behaviour: start-up imports, collector state, rank labels, input-file validation."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bibliorank
from bibliorank import cli
from bibliorank.corpus import SCHEMAS

from conftest import minimal_rows, write_corpus

SRC = str(Path(bibliorank.__file__).resolve().parents[1])


def header(schema: str) -> str:
    return ",".join(SCHEMAS[schema]) + "\n"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory) -> Path:
    """Default synth corpus (seed 3) with its score tables and peer ratings."""
    root = tmp_path_factory.mktemp("synth")
    corpus = root / "corpus"
    assert cli.main(["synth", "--seed", "3", "--out-dir", str(corpus)]) == 0
    assert cli.main(["score", "--corpus-dir", str(corpus), "--out-dir", str(root / "scores")]) == 0
    outcomes = str(corpus / "peer_outcomes.csv")
    assert cli.main(["vtr", "--outcomes", outcomes, "--out-dir", str(root / "scores")]) == 0
    return root


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_and_score_load_neither_numpy_nor_scipy(minimal_corpus_dir, tmp_path):
    proc = run_python(
        f"""
        import sys
        import bibliorank, bibliorank.cli
        heavy = {{"numpy", "scipy"}}
        assert not heavy & set(sys.modules), "import"
        out = {str(tmp_path / "out")!r}
        assert bibliorank.cli.main(["score", "--corpus-dir", {str(minimal_corpus_dir)!r}, "--out-dir", out]) == 0
        assert bibliorank.cli.main(["rank", "--input", out + "/scores_university.csv", "--out-dir", out]) == 0
        assert not heavy & set(sys.modules), "score/rank"
        """
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_collector_state(enabled, minimal_corpus_dir, tmp_path):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        argv = ["score", "--corpus-dir", str(minimal_corpus_dir), "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert gc.isenabled() is enabled
        assert cli.main(["score", "--corpus-dir", str(tmp_path / "missing"), "--out-dir", str(tmp_path)]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_report_leaves_little_cyclic_garbage(synth_dir, tmp_path):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        argv = ["report", "--corpus-dir", str(synth_dir / "corpus"), "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert gc.collect() < 2000
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", ["scores_uda.csv", "vtr_ratings.csv"])
def test_rank_label_rejected_for_several_rankings(synth_dir, tmp_path, capsys, name):
    argv = ["rank", "--input", str(synth_dir / "scores" / name), "--label", "X", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "--label requires a single ranking" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["scores_uda.csv", "vtr_ratings.csv"])
def test_rank_label_with_unit_names_the_ranking(synth_dir, tmp_path, name):
    argv = ["rank", "--input", str(synth_dir / "scores" / name), "--unit", "UDA1", "--label", "X"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["ranking_X.csv"]


@pytest.mark.parametrize(
    "rows, message",
    [
        ("U1,UDA1,0.5,50.0\nU2,UDA1,nan,50.0\n", "vtr_ratings.csv:3: R must be finite"),
        ("U1,UDA1,0.5,50.0\nU1,UDA1,0.7,50.0\n", "vtr_ratings.csv:3: duplicate rating"),
        ("U1,UDA1,0.5,50.0\n ,UDA1,0.7,50.0\n", "vtr_ratings.csv:3: university_id must not be empty"),
        ("U1,UDA1,0.5,50.0\nU2,,0.7,50.0\n", "vtr_ratings.csv:3: uda_id must not be empty"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,high,50.0\n", "vtr_ratings.csv:3: R must be a number"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,0.7\n", "vtr_ratings.csv:3: wrong number of fields"),
    ],
)
def test_rated_file_rejects_bad_rows(tmp_path, capsys, rows, message):
    path = tmp_path / "vtr_ratings.csv"
    path.write_text(header("rated") + rows, encoding="utf-8")
    assert cli.main(["rank", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


GOOD_RANKING = "A,3.0,1.0\nB,2.0,2.0\nC,1.0,3.0\nD,0.0,4.0\n"


@pytest.mark.parametrize(
    "name, body, message",
    [
        (
            "scores_university.csv",
            header("scores") + "university,U1,,1.0,3.0\nuniversity,U2,,inf,3.0\n",
            "scores_university.csv:3: P must be finite",
        ),
        (
            "scores_university.csv",
            header("scores") + "university,U1,,1.0,3.0\nuniversity,U2,,nan,3.0\n",
            "scores_university.csv:3: P must be finite",
        ),
        (
            "ranking_B.csv",
            header("ranking") + "A,3.0,1.0\nB,inf,2.0\nC,1.0,3.0\nD,0.0,4.0\n",
            "ranking_B.csv:3: score must be finite",
        ),
    ],
)
def test_non_finite_value_rejected_with_file_and_line(tmp_path, capsys, name, body, message):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    if name.startswith("ranking_"):
        good = tmp_path / "ranking_A.csv"
        good.write_text(header("ranking") + GOOD_RANKING, encoding="utf-8")
        argv = ["compare", str(good), str(path), "--out-dir", str(out)]
    else:
        argv = ["rank", "--input", str(path), "--out-dir", str(out)]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rank_rejects_empty_input_file(tmp_path, capsys):
    path = tmp_path / "scores_university.csv"
    path.write_text("", encoding="utf-8")
    assert cli.main(["rank", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "scores_university.csv:1: empty file, header row required" in capsys.readouterr().err


@pytest.mark.parametrize("names", [("X Y", "X_Y"), ("P",)])
def test_report_rejects_colliding_labels_before_writing(tmp_path, capsys, names):
    rows = minimal_rows()
    rows["indicators"] = [(name, "higher_is_better", "U1", "1.0") for name in names]
    corpus = write_corpus(tmp_path / "corpus", **rows)
    out = tmp_path / "out"
    assert cli.main(["report", "--corpus-dir", str(corpus), "--out-dir", str(out)]) == 2
    assert "name the same output files" in capsys.readouterr().err
    assert not out.exists()


def test_rank_rejects_units_colliding_once_sanitised(tmp_path, capsys):
    path = tmp_path / "scores_uda.csv"
    path.write_text(header("scores") + "uda,U1,X Y,1.0,3.0\nuda,U1,X_Y,2.0,3.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["rank", "--input", str(path), "--out-dir", str(out)]) == 2
    assert "'P_uda_X Y' and 'P_uda_X_Y' name the same output files ('P_uda_X_Y')" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stems", [("X Y", "X_Y", "Z"), ("X", "X")])
def test_compare_rejects_colliding_labels(tmp_path, capsys, stems):
    paths = []
    for index, stem in enumerate(stems):
        path = tmp_path / str(index) / f"{stem}.csv"
        path.parent.mkdir()
        path.write_text(header("ranking") + GOOD_RANKING, encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "out"
    assert cli.main(["compare", *paths, "--out-dir", str(out)]) == 2
    assert "name the same output files ('X" in capsys.readouterr().err
    assert not out.exists()
