"""CLI behaviour: process entry, start-up imports, collector state, rank labels, input-file and config validation."""

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
from bibliorank import corpus as corpus_mod
from bibliorank.corpus import SCHEMAS

from conftest import minimal_rows, write_corpus, write_file

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
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )


def run_module(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m bibliorank`` with a block-buffered standard output, as on any user's pipe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "bibliorank", *args], env=env, timeout=120, **kwargs)


def test_import_and_score_load_neither_numpy_nor_scipy(minimal_corpus_dir, tmp_path):
    outcomes = write_file(tmp_path, "peer_outcomes.csv", [("U1", "UDA1", 1, 0, 0, 0)])
    proc = run_python(
        f"""
        import sys
        import bibliorank, bibliorank.cli

        def refuse(stage, *names):
            loaded = sorted(name for name in names if name in sys.modules)
            assert not loaded, f"{{stage}} loaded {{loaded}}"

        refuse("import", "bibliorank.productivity", "bibliorank.scoring", "bibliorank.rankcmp",
               "bibliorank.peer_rating", "logging", "configparser", "numpy", "scipy")
        out = {str(tmp_path / "out")!r}
        assert bibliorank.cli.main(["vtr", "--outcomes", {str(outcomes)!r}, "--out-dir", out]) == 0
        refuse("vtr", "bibliorank.rankcmp", "bibliorank.productivity")
        assert bibliorank.cli.main(["score", "--corpus-dir", {str(minimal_corpus_dir)!r}, "--out-dir", out]) == 0
        refuse("score", "bibliorank.rankcmp")
        assert bibliorank.cli.main(["rank", "--input", out + "/scores_university.csv", "--out-dir", out]) == 0
        refuse("score/rank", "numpy", "scipy")
        """
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_process_prints_its_whole_summary_line_and_exits_0(minimal_corpus_dir, tmp_path, stdout):
    out = tmp_path / "out"
    argv = ["score", "--corpus-dir", str(minimal_corpus_dir), "--out-dir", str(out)]
    if stdout == "pipe":
        proc = run_module(argv, capture_output=True)
        printed = proc.stdout
    else:
        with open(tmp_path / "stdout.txt", "wb") as fh:
            proc = run_module(argv, stdout=fh, stderr=subprocess.PIPE)
        printed = (tmp_path / "stdout.txt").read_bytes()
    assert proc.returncode == 0, proc.stderr
    summary = f"scored 1 publications (0 rejected), 1 universities, 1/1 SDSs eligible -> {out}\n"
    assert printed.decode("utf-8") == summary
    assert (out / "scores_university.csv").is_file()


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["score", "--corpus-dir", "missing", "--out-dir", "out"], 2, "stderr", "error: missing: not a directory"),
        (
            ["score", "--corpus-dir", ".", "--out-dir", "out"], 2, "stderr",
            "error: taxonomy.csv: missing required input file",
        ),
        (["bogus"], 2, "stderr", "invalid choice: 'bogus'"),
        (["--help"], 0, "stdout", "usage: bibliorank"),
    ],
    ids=["validation-error", "missing-corpus-file", "unknown-subcommand", "help"],
)
def test_process_exit_code(tmp_path, argv, code, stream, text):
    proc = run_module(argv, capture_output=True, text=True, encoding="utf-8", cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert text in getattr(proc, stream)
    assert not list(tmp_path.iterdir())


def test_process_whose_stdout_reader_has_gone_exits_1_without_a_traceback(minimal_corpus_dir, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = ["score", "--corpus-dir", str(minimal_corpus_dir), "--out-dir", str(tmp_path / "out")]
        proc = run_module(argv, stdout=write_end, stderr=subprocess.PIPE, text=True, encoding="utf-8")
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr


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
    "name, unit, message",
    [
        ("corpus/indicators.csv", "UDA1", "--unit does not apply to indicator files"),
        ("scores/scores_uda.csv", "UDA9", "scores_uda.csv: no rows for unit 'UDA9'"),
        ("scores/vtr_ratings.csv", "UDA9", "vtr_ratings.csv: no rows for unit 'UDA9'"),
    ],
)
def test_rank_unit_not_in_the_file_exits_2_and_writes_nothing(synth_dir, tmp_path, capsys, name, unit, message):
    out = tmp_path / "out"
    assert cli.main(["rank", "--input", str(synth_dir / name), "--unit", unit, "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("U1,UDA1,0.5,50.0\nU2,UDA1,nan,50.0\n", "vtr_ratings.csv:3: R must be finite"),
        ("U1,UDA1,0.5,50.0\nU1,UDA1,0.7,50.0\n", "vtr_ratings.csv:3: duplicate rating"),
        ("U1,UDA1,0.5,50.0\n ,UDA1,0.7,50.0\n", "vtr_ratings.csv:3: university_id must not be empty"),
        ("U1,UDA1,0.5,50.0\nU2,,0.7,50.0\n", "vtr_ratings.csv:3: uda_id must not be empty"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,high,50.0\n", "vtr_ratings.csv:3: R must be a number"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,0.7\n", "vtr_ratings.csv:3: wrong number of fields"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,0.7,abc\n", "vtr_ratings.csv:3: category_percentile must be a number, got 'abc'"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,0.7,\n", "vtr_ratings.csv:3: category_percentile must be a number, got ''"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,0.7,inf\n", "vtr_ratings.csv:3: category_percentile must be finite"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,0.7,100.5\n", "vtr_ratings.csv:3: category_percentile must be in [0, 100], got 100.5"),
        ("U1,UDA1,0.5,50.0\nU2,UDA1,0.7,-1\n", "vtr_ratings.csv:3: category_percentile must be in [0, 100], got -1"),
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


def test_rank_rejects_an_oversized_header_field_with_file_and_line(tmp_path, capsys):
    path = tmp_path / "scores_university.csv"
    path.write_text("x" * 131073 + ",y\n", encoding="utf-8")
    assert cli.main(["rank", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "error: scores_university.csv:1: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        ("compare", (GOOD_RANKING, ""), "b.csv: empty ranking"),
    ],
    ids=["compare-3-entities", "compare-ranks-not-averaged", "compare-all-tied", "compare-unaveraged-tie",
         "compare-scores-out-of-order", "report-3-universities", "report-constant-indicator",
         "compare-header-only"],
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
        ("seed = 1\n", "File contains no section headers"),
        ("[analysis]\nwindow = 2001\n", "[analysis] window: window must look like 2001-2003"),
        ("[io]\nformat = csv\n[DEFAULT]\nformat = csv\n", "unknown setting [DEFAULT] format"),
        ("[io]\nout_dir =\n", "[io] out_dir: directory must not be empty"),
        ("[corpus]\ndir =\n", "[corpus] dir: directory must not be empty"),
        ("[analysis]\npercentages = 10, 20, 10.0\n", "[analysis] percentages: duplicate percentage 10.0"),
        (b"[synth]\nseed = 1\xff\n", "not UTF-8: byte 0xff (invalid start byte)"),
        (None, "Is a directory"),
        (False, "missing config file"),
    ],
    ids=["bad-int", "bad-seed", "misspelt-key", "no-section", "bad-window", "default-section", "empty-out-dir",
         "empty-corpus-dir", "duplicate-percentages", "not-utf8", "directory", "missing"],
)
def test_config_error_exits_2_and_names_the_setting(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.ini"
    if text is None:
        config.mkdir()
    elif isinstance(text, bytes):
        config.write_bytes(text)
    elif text is not False:
        config.write_text(text, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert cli.main(["--config", str(config), "synth", "--universities", "3", "--udas", "1", "--sds-per-uda", "1"]) == 2
    assert f"run.ini: {message}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


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
    "argv, message",
    [
        (["synth", "--universities", "abc"], "--universities: invalid literal for int()"),
        (
            ["compare", "a.csv", "b.csv", "--format", "xml"],
            "--format: format must be one of ('csv', 'json', 'markdown'), got 'xml'",
        ),
        (["synth", "--window", "2001"], "--window: window must look like 2001-2003, got '2001'"),
        (["synth", "--out-dir", ""], "--out-dir: directory must not be empty"),
        (["score", "--corpus-dir", ""], "--corpus-dir: directory must not be empty"),
        (["synth", "--seed", "-1"], "synth: seed must be >= 0, got -1"),
        (["synth", "--max-external-authors", "-1"], "synth: max_external_authors must be >= 0, got -1"),
        (["synth", "--pubs-per-fte", "nan"], "synth: pubs_per_fte must be finite and >= 0, got nan"),
        (["synth", "--pubs-per-fte", "inf"], "synth: pubs_per_fte must be finite and >= 0, got inf"),
        (["synth", "--citation-sigma", "nan"], "synth: citation_sigma must be finite and > 0, got nan"),
        (["synth", "--peer-noise", "nan"], "synth: peer_noise must be finite and >= 0, got nan"),
        (["synth", "--peer-noise", "inf"], "synth: peer_noise must be finite and >= 0, got inf"),
        (["synth", "--universities", "1"], "synth: need at least 2 universities"),
        (["synth", "--udas", "0"], "synth: need at least one UDA and one SDS per UDA"),
        (["synth", "--sds-per-uda", "0"], "synth: need at least one UDA and one SDS per UDA"),
        (["synth", "--life-science-udas", "2"], "synth: life_science_udas out of range"),
        (["synth", "--life-science-udas", "-1"], "synth: life_science_udas out of range"),
        (["synth", "--window", "2003-2001"], "synth: window end precedes start"),
        (["synth", "--staff-min", "0"], "synth: staff_min/staff_max out of range"),
        (["synth", "--staff-min", "7"], "synth: staff_min/staff_max out of range"),
        (["synth", "--staff-presence", "1.5"], "synth: staff_presence must be in [0, 1], got 1.5"),
        (["synth", "--multi-category-rate", "-0.1"], "synth: multi_category_rate must be in [0, 1], got -0.1"),
        (["synth", "--cross-university-rate", "2"], "synth: cross_university_rate must be in [0, 1], got 2.0"),
        (["synth", "--external-listed-rate", "nan"], "synth: external_listed_rate must be in [0, 1], got nan"),
        (["synth", "--gradient-strength", "1.01"], "synth: gradient_strength must be in [0, 1], got 1.01"),
        (["report", "--percentages", "50,50.0"], "--percentages: duplicate percentage 50.0"),
        (["report", "--percentages", "0"], "--percentages: percentage must be in (0, 100], got 0"),
        (["report", "--percentages", "10,101"], "--percentages: percentage must be in (0, 100], got 101"),
        (["report", "--percentages", "x"], "--percentages: bad percentage 'x'"),
        (["report", "--percentages", ","], "--percentages: empty percentages list"),
        (["score", "--corpus-dir", ".", "--window", "2003-2001"], "window 2003-2001: end year precedes start year"),
        (["score"], "no corpus directory given (use --corpus-dir or [corpus] dir)"),
    ],
    ids=["universities", "format", "window", "empty-out-dir", "empty-corpus-dir", "negative-seed",
         "negative-external-authors", "nan-pubs-per-fte", "inf-pubs-per-fte", "nan-citation-sigma",
         "nan-peer-noise", "inf-peer-noise", "one-university", "no-udas", "no-sds-per-uda",
         "too-many-life-science-udas", "negative-life-science-udas", "synth-reversed-window", "zero-staff-min",
         "staff-min-over-max", "staff-presence-over-1", "negative-multi-category-rate",
         "cross-university-rate-over-1", "nan-external-listed-rate", "gradient-strength-over-1",
         "duplicate-percentages", "zero-percentage", "percentage-over-100", "non-numeric-percentage",
         "empty-percentages", "reversed-window", "no-corpus-dir"],
)
def test_bad_flag_value_exits_2_and_names_the_flag(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    small = ["--universities", "3", "--udas", "1", "--sds-per-uda", "1"] if argv[0] == "synth" else []
    # The flag under test comes last, so it wins over these.
    assert cli.main([argv[0], "--out-dir", "out", *small, *argv[1:]]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
        (
            "vtr", "peer_outcomes.csv", header("peer_outcomes") + "U1,UDA1,1,0,0,0\nU2,UDA1,0,0,0,0\n",
            "peer_outcomes.csv:3: all grade counts are zero",
        ),
        (
            "report", "publications.csv", header("publications") + "P1,2001,article,4,0\n",
            "publications.csv:2: total_author_count must be >= 1, got 0",
        ),
        (
            "report", "publications.csv", header("publications") + f"P1,2001,article,{10**309},1\n",
            f"publications.csv:2: citations must be <= {2**53}, got {10**309}",
        ),
        (
            "report", "publications.csv",
            header("publications") + f"P1,2001,article,{10**308},1\nP2,2001,article,{10**308},1\n",
            f"publications.csv:2: citations must be <= {2**53}, got {10**308}",
        ),
        (
            "report", "publications.csv",
            header("publications") + "P1,2001,article,4,1\nP2,2001,article,4,1\nP3,2001,article,4,1\n",
            "pub_categories.csv: pub 'P3': no categories listed",
        ),
        (
            "report", "publications.csv", header("publications") + "P1,2001,article,4,1\nP2,2001,article,4,1\n",
            "report needs peer outcomes or indicators to compare against P",
        ),
        ("rank", "scores_university.csv", None, "scores_university.csv: missing input file"),
        ("rank", "scores_university.csv", "a,b\n1,2\n", "scores_university.csv: unrecognized header 'a,b'"),
        ("rank", "scores_university.csv", '"level\nX",b\n', "scores_university.csv:1: line break inside a field"),
        (
            "rank", "scores_university.csv", header("scores") + "faculty,U1,,1.0,3.0\n",
            "scores_university.csv:2: unknown level 'faculty'",
        ),
        ("rank", "scores_university.csv", header("scores"), "scores_university.csv: empty score table"),
    ],
    ids=["vtr-missing", "vtr-header-only", "rank-indicators-header-only", "rank-rated-header-only",
         "vtr-all-grades-zero", "report-no-authors", "report-citations-over-float-range",
         "report-citations-summing-past-float-range", "report-publication-without-categories",
         "report-nothing-to-compare", "rank-missing", "rank-unrecognized-header", "rank-line-break-in-header",
         "rank-unknown-level", "rank-scores-header-only"],
)
def test_bad_input_file_exits_2_and_writes_nothing(tmp_path, capsys, command, name, body, message):
    if command == "report":
        rows = minimal_rows()  # with a second publication, P2, for the body to list
        rows["pub_categories"].append(("P2", "C1", "1.0"))
        rows["pub_authors"].append(("P2", 1, "true", "U1", "S1"))
        directory = write_corpus(tmp_path / "corpus", **rows)
        argv = [command, "--corpus-dir", str(directory)]
    else:
        directory = tmp_path
        argv = [command, "--outcomes" if command == "vtr" else "--input", str(tmp_path / name)]
    path = directory / name
    if body is not None:
        path.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "vtr", "compare", "report"])
def test_an_input_path_that_is_a_directory_exits_2_and_writes_nothing(tmp_path, capsys, command):
    directory = tmp_path / "d"
    if command == "report":  # a corpus whose optional indicators.csv is a directory
        directory = write_corpus(tmp_path / "corpus", **minimal_rows()) / "indicators.csv"
    directory.mkdir()
    argv = {
        "rank": ["rank", "--input", str(directory)],
        "vtr": ["vtr", "--outcomes", str(directory)],
        "compare": ["compare", str(directory), str(directory)],
        "report": ["report", "--corpus-dir", str(directory.parent)],
    }[command]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 2
    assert f"error: {directory}: not a regular file" in capsys.readouterr().err
    assert not out.exists()


WRITING_COMMANDS = ["synth", "score", "vtr", "rank", "compare", "report"]


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_format_is_offered_by_compare_and_report_only(tmp_path, capsys, command):
    argv = {
        "synth": ["synth"],
        "score": ["score"],
        "vtr": ["vtr", "--outcomes", "peer_outcomes.csv"],
        "rank": ["rank", "--input", "scores_uda.csv"],
        "compare": ["compare", "a.csv", "b.csv"],
        "report": ["report"],
    }[command] + ["--format", "json", "--out-dir", str(tmp_path / "out")]
    if command in ("compare", "report"):
        assert cli.build_parser().parse_args(argv).format == "json"
        return
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --format json" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def writing_argv(command: str, synth_dir: Path, tmp_path: Path) -> list[str]:
    """The arguments, bar ``--out-dir``, of a small successful run of ``command``."""
    corpus, scores = synth_dir / "corpus", synth_dir / "scores"
    rankings = []
    for stem in "ab":
        rankings.append(tmp_path / f"{stem}.csv")
        rankings[-1].write_text(header("ranking") + GOOD_RANKING, encoding="utf-8")
    return {
        "synth": ["synth", "--seed", "1", "--universities", "4", "--udas", "1", "--sds-per-uda", "1"],
        "score": ["score", "--corpus-dir", str(corpus)],
        "vtr": ["vtr", "--outcomes", str(corpus / "peer_outcomes.csv")],
        "rank": ["rank", "--input", str(scores / "scores_uda.csv")],
        "compare": ["compare", *map(str, rankings)],
        "report": ["report", "--corpus-dir", str(corpus)],
    }[command]


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_no_run_writes_over_an_existing_file(synth_dir, tmp_path, capsys, command):
    argv = writing_argv(command, synth_dir, tmp_path)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    written = sorted(out.iterdir())
    # Keep one file, the last by name, so a rerun that wrote anything before refusing would leave more.
    kept = written[-1]
    for path in written[:-1]:
        path.unlink()
    kept.write_text("kept", encoding="utf-8")
    capsys.readouterr()
    assert cli.main([*argv, "--out-dir", str(out)]) == 2
    assert f"error: {kept}: output file exists" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [kept.name]
    assert kept.read_text(encoding="utf-8") == "kept"



@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_an_out_dir_that_is_a_file_exits_2_before_any_work(synth_dir, tmp_path, monkeypatch, capsys, command, nested):
    argv = writing_argv(command, synth_dir, tmp_path)
    blocker = tmp_path / "out"
    blocker.write_text("kept", encoding="utf-8")

    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(corpus_mod, "_open_csv", no_read)
    out = blocker / "sub" if nested else blocker
    assert cli.main([*argv, "--out-dir", str(out)]) == 2
    assert f"error: {blocker}: not a directory" in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "kept"
