"""CLI behaviour: start-up imports, collector state, rank labels, input-file and config validation."""

from __future__ import annotations

import gc
import os
import shutil
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


THREE_ENTITIES = "A,3.0,1.0\nB,2.0,2.0\nC,1.0,3.0\n"


@pytest.mark.parametrize(
    "command, inputs, message",
    [
        ("compare", (THREE_ENTITIES, THREE_ENTITIES), "too few common entities between 'a' and 'b': 3 < 4"),
        (
            "compare",
            (GOOD_RANKING, "A,1.0,1.0\nB,1.0,1.0\nC,1.0,1.0\nD,1.0,1.0\n"),
            "b.csv:2: entity 'A' has rank 1.0, expected the tie-averaged position 2.5",
        ),
        (
            "compare",
            (GOOD_RANKING, "A,1.0,2.5\nB,1.0,2.5\nC,1.0,2.5\nD,1.0,2.5\n"),
            "ranking 'b': all 4 entities it shares with 'a' tie, so rho is undefined",
        ),
        (
            "compare",
            (GOOD_RANKING, "A,5.0,1.0\nB,5.0,2.0\nC,3.0,3.0\nD,1.0,4.0\n"),
            "b.csv:2: entity 'A' has rank 1.0, expected the tie-averaged position 1.5",
        ),
        (
            "compare",
            (GOOD_RANKING, "A,5.0,1.0\nB,3.0,2.0\nC,5.0,3.0\nD,1.0,4.0\n"),
            "b.csv:4: entity 'C' has score 5.0, out of order after 'B' with 3.0",
        ),
        (
            "report",
            "".join(f"GDP,higher_is_better,U{i:03d},{i}.0\n" for i in range(1, 4)),
            "too few common entities between 'P' and 'GDP': 3 < 4",
        ),
        (
            "report",
            "".join(f"GDP,higher_is_better,U{i:03d},1.0\n" for i in range(1, 21)),
            "ranking 'GDP': all 20 entities it shares with 'P' tie",
        ),
    ],
    ids=["compare-3-entities", "compare-ranks-not-averaged", "compare-all-tied", "compare-unaveraged-tie",
         "compare-scores-out-of-order", "report-3-universities", "report-constant-indicator"],
)
def test_failed_comparison_exits_2_and_writes_nothing(synth_dir, tmp_path, capsys, command, inputs, message):
    if command == "compare":
        argv = ["compare"]
        for stem, body in zip("ab", inputs):
            path = tmp_path / f"{stem}.csv"
            path.write_text(header("ranking") + body, encoding="utf-8")
            argv.append(str(path))
    else:
        corpus = tmp_path / "corpus"
        shutil.copytree(synth_dir / "corpus", corpus)
        (corpus / "indicators.csv").write_text(header("indicators") + inputs, encoding="utf-8")
        argv = ["report", "--corpus-dir", str(corpus)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_line_break_in_an_indicator_name(synth_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir / "corpus", corpus)
    indicators = corpus / "indicators.csv"
    text = indicators.read_text(encoding="utf-8")
    first_gdp_line = 1 + next(i for i, row in enumerate(text.splitlines()) if row.startswith("GDP,"))
    indicators.write_text(text.replace("GDP,", '"GDP\nX",'), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["report", "--corpus-dir", str(corpus), "--out-dir", str(out)]) == 2
    assert f"error: indicators.csv:{first_gdp_line}: line break inside a field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[synth]\nuniversities = abc\n", "[synth] universities: invalid literal for int()"),
        ("[synth]\nseed = x\n", "[synth] seed: invalid literal for int()"),
        ("[synth]\nuniversites = 50\n", "unknown setting [synth] universites"),
        ("[analysis]\nwindow = 2001\n", "[analysis] window: window must look like 2001-2003"),
        ("[io]\nformat = csv\n[DEFAULT]\nformat = csv\n", "unknown setting [DEFAULT] format"),
    ],
    ids=["bad-int", "bad-seed", "misspelt-key", "bad-window", "default-section"],
)
def test_config_error_exits_2_and_names_the_setting(tmp_path, capsys, text, message):
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "synth", "--out-dir", str(out)]) == 2
    assert f"run.ini: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_settings_reach_run_and_synth_parameters(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[io]\nformat = json\n[analysis]\nwindow = 2002-2004\npercentages = 10, 20\n"
        "[synth]\nseed = 7\nuniversities = 5\nlife_science_udas = 2\n"
        "max_external_authors = 40\ncross_university_rate = 0.6\n",
        encoding="utf-8",
    )
    args = cli.build_parser().parse_args(["--config", str(config), "synth", "--universities", "6"])
    run = cli.build_config(args)
    params = cli.build_synth_params(run)
    assert (run.format, run.window, run.percentages, run.seed) == ("json", (2002, 2004), (10.0, 20.0), 7)
    assert (params.seed, params.window, params.universities) == (7, (2002, 2004), 6)
    assert (params.life_science_udas, params.max_external_authors, params.cross_university_rate) == (2, 40, 0.6)


@pytest.mark.parametrize("key", [key for section, key in cli.SETTINGS if section == "synth"])
def test_synth_setting_reaches_parameters_from_flag_and_key(tmp_path, key):
    flag, cast = cli.SETTINGS["synth", key]
    in_file, on_line = ("7", "9") if cast is int else ("0.35", "0.45")
    config = tmp_path / "run.ini"
    config.write_text(f"[synth]\n{key} = {in_file}\n", encoding="utf-8")

    def value(config_argv: list[str], flag_argv: list[str]):
        args = cli.build_parser().parse_args([*config_argv, "synth", *flag_argv])
        return getattr(cli.build_synth_params(cli.build_config(args)), key)

    assert value([], []) != cast(in_file)
    assert value(["--config", str(config)], []) == value([], [flag, in_file]) == cast(in_file)
    assert value(["--config", str(config)], [flag, on_line]) == cast(on_line)


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--universities", "abc", "--universities: invalid literal for int()"),
        ("--format", "xml", "--format: format must be one of ('csv', 'json', 'markdown'), got 'xml'"),
        ("--window", "2001", "--window: window must look like 2001-2003, got '2001'"),
    ],
    ids=["universities", "format", "window"],
)
def test_bad_flag_value_exits_2_and_names_the_flag(tmp_path, capsys, flag, text, message):
    out = tmp_path / "out"
    assert cli.main(["synth", flag, text, "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_reads_its_config_file_once(tmp_path, monkeypatch):
    read_ini = cli._read_ini
    calls = []
    monkeypatch.setattr(cli, "_read_ini", lambda path: calls.append(path) or read_ini(path))
    config = tmp_path / "run.ini"
    config.write_text("[synth]\nuniversities = 4\nudas = 1\nsds_per_uda = 1\n", encoding="utf-8")
    assert cli.main(["--config", str(config), "synth", "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == [config]


@pytest.mark.parametrize(
    "command, name, body, message",
    [
        ("vtr", "peer_outcomes.csv", None, "peer_outcomes.csv: missing input file"),
        ("vtr", "peer_outcomes.csv", header("peer_outcomes"), "peer_outcomes.csv: no peer outcomes"),
        ("rank", "indicators.csv", header("indicators"), "indicators.csv: no rows to rank"),
        ("rank", "vtr_ratings.csv", header("rated"), "vtr_ratings.csv: no rows to rank"),
    ],
    ids=["vtr-missing", "vtr-header-only", "rank-indicators-header-only", "rank-rated-header-only"],
)
def test_empty_input_exits_2_and_writes_nothing(tmp_path, capsys, command, name, body, message):
    path = tmp_path / name
    if body is not None:
        path.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    flag = "--outcomes" if command == "vtr" else "--input"
    assert cli.main([command, flag, str(path), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
