"""CLI behaviour: process entry, start-up imports, collector state, rank labels, input-file and config validation."""

from __future__ import annotations

import argparse
import errno
import gc
import os
import pkgutil
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import get_type_hints

import pytest

import bibliorank
from bibliorank import cli
from bibliorank import corpus as corpus_mod
from bibliorank import synth as synth_mod
from bibliorank.corpus import SCHEMAS
from bibliorank.synth import SynthParams, generate

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


def test_synth_writes_the_same_bytes_under_any_hash_seed(tmp_path):
    written = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        argv = ["synth", "--seed", "5", "--universities", "6", "--udas", "3", "--sds-per-uda", "2", "--out-dir", str(out)]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "bibliorank", *argv], env=env, capture_output=True, timeout=120, check=False
        )
        assert proc.returncode == 0, proc.stderr
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert sorted(written[0]) == sorted(path.name for path in vars(corpus_mod.CorpusPaths.from_dir(out)).values())
    assert written[0] == written[1]


def test_import_and_score_load_neither_numpy_nor_scipy(minimal_corpus_dir, tmp_path):
    outcomes = write_file(tmp_path, "peer_outcomes.csv", [("U1", "UDA1", 1, 0, 0, 0)])
    rows = [(name, direction, f"U{i}", i) for name, direction in (("X", "higher_is_better"), ("Y", "lower_is_better"))
            for i in range(1, 5)]
    indicators = write_file(tmp_path, "indicators.csv", rows)
    proc = run_python(
        f"""
        import builtins, sys

        # Every module name an import statement in a bibliorank module asks for, even one already loaded.
        asked = set()
        real_import = builtins.__import__

        def watch(name, globals=None, *args, **kwargs):
            if (globals or {{}}).get("__name__", "").startswith("bibliorank"):
                asked.add(name)
            return real_import(name, globals, *args, **kwargs)

        builtins.__import__ = watch
        import bibliorank, bibliorank.cli

        def refuse(stage, *names):
            loaded = sorted(name for name in names if name in sys.modules)
            assert not loaded, f"{{stage}} loaded {{loaded}}"

        refuse("import", "bibliorank.productivity", "bibliorank.scoring", "bibliorank.rankcmp",
               "bibliorank.peer_rating", "logging", "configparser", "numpy", "scipy", "dataclasses", "json")
        out = {str(tmp_path / "out")!r}
        assert bibliorank.cli.main(["vtr", "--outcomes", {str(outcomes)!r}, "--out-dir", out]) == 0
        refuse("vtr", "bibliorank.rankcmp", "bibliorank.productivity", "dataclasses", "json")
        assert bibliorank.cli.main(["score", "--corpus-dir", {str(minimal_corpus_dir)!r}, "--out-dir", out]) == 0
        refuse("score", "bibliorank.rankcmp", "dataclasses", "json")
        assert bibliorank.cli.main(["rank", "--input", out + "/scores_university.csv", "--out-dir", out]) == 0
        assert bibliorank.cli.main(["rank", "--input", {str(indicators)!r}, "--out-dir", out]) == 0
        refuse("score/rank", "numpy", "scipy", "dataclasses", "json")
        argv = ["compare", out + "/ranking_X.csv", out + "/ranking_Y.csv", "--format", "markdown", "--out-dir", out]
        assert bibliorank.cli.main(argv) == 0
        # scipy.special loads all three modules itself, so compare refuses only bibliorank's own imports of them.
        assert not asked & {{"dataclasses", "json", "numpy"}}, sorted(asked)
        """
    )
    assert proc.returncode == 0, proc.stderr
    # score and rank, run before vtr (whose exact ratings need fractions), load no statistics module.
    proc = run_python(
        f"""
        import sys
        import bibliorank.cli

        out = {str(tmp_path / "scores")!r}
        assert bibliorank.cli.main(["score", "--corpus-dir", {str(minimal_corpus_dir)!r}, "--out-dir", out]) == 0
        assert bibliorank.cli.main(["rank", "--input", out + "/scores_university.csv", "--out-dir", out]) == 0
        loaded = sorted(name for name in ("statistics", "fractions", "decimal") if name in sys.modules)
        assert not loaded, f"score/rank loaded {{loaded}}"
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_synth_loads_neither_dataclasses_nor_json(tmp_path):
    proc = run_python(
        f"""
        import sys
        import bibliorank.cli

        assert bibliorank.cli.main(["synth", "--seed", "3", "--universities", "4", "--out-dir", {str(tmp_path)!r}]) == 0
        loaded = sorted(name for name in ("dataclasses", "json") if name in sys.modules)
        assert not loaded, f"synth loaded {{loaded}}"
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


def test_report_frees_the_corpus_before_the_comparisons(synth_dir, tmp_path, monkeypatch):
    load_corpus, compare_all = corpus_mod.load_corpus, cli._compare_all
    loaded: list[int] = []
    alive_at_compare: list[bool] = []

    def load(*args):
        corpus = load_corpus(*args)
        loaded.append(id(corpus))
        return corpus

    def compare(*args):
        alive_at_compare.append(any(type(o) is corpus_mod.Corpus and id(o) in loaded for o in gc.get_objects()))
        return compare_all(*args)

    monkeypatch.setattr(corpus_mod, "load_corpus", load)
    monkeypatch.setattr(cli, "_compare_all", compare)
    assert cli.main(["report", "--corpus-dir", str(synth_dir / "corpus"), "--out-dir", str(tmp_path)]) == 0
    assert alive_at_compare == [False]


@pytest.mark.parametrize("flag", ["--unit", "--label"])
def test_rank_offers_neither_unit_nor_label(synth_dir, tmp_path, capsys, flag):
    # rank writes every ranking its input holds, each under its own label, so neither picks nor renames one.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["rank", "--input", str(synth_dir / "scores" / "scores_uda.csv"), flag, "UDA1", "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {flag} UDA1" in capsys.readouterr().err
    assert not out.exists()


def test_report_writes_the_bytes_of_the_step_commands(synth_dir, tmp_path):
    corpus, steps = synth_dir / "corpus", synth_dir / "scores"
    for argv, out in [
        (["report", "--corpus-dir", str(corpus)], "report"),
        (["rank", "--input", str(corpus / "indicators.csv")], "indicators"),
        (["rank", "--input", str(steps / "scores_university.csv")], "university"),
    ]:
        assert cli.main([*argv, "--out-dir", str(tmp_path / out)]) == 0
    # Each file that report and a step command both write, by its name in report's output: steps holds what
    # score and vtr wrote.
    same = {path.name: path for path in (*steps.iterdir(), *(tmp_path / "indicators").iterdir())}
    same["ranking_P.csv"] = tmp_path / "university" / "ranking_P_university.csv"
    assert sorted(same) == [
        "eligibility.csv", "ranking_EXP.csv", "ranking_GDP.csv", "ranking_LAT.csv", "ranking_P.csv",
        "ranking_QUALITY.csv", "scores_macro.csv", "scores_sds.csv", "scores_uda.csv", "scores_university.csv",
        "vtr_ratings.csv",
    ]
    for name, path in same.items():
        assert (tmp_path / "report" / name).read_bytes() == path.read_bytes(), name


@pytest.mark.parametrize(
    "rows, message",
    [
        ("U1,UDA1,0.5,50.0\nU2,UDA1,nan,50.0\n", "vtr_ratings.csv:3: R must be finite"),
        ("U1,UDA1,0.5,50.0\nU1,UDA1,0.7,50.0\n", "vtr_ratings.csv:3: duplicate (university_id, uda_id) ('U1', 'UDA1')"),
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


@pytest.mark.parametrize(
    "name, data, message",
    [
        (
            "indicators.csv", b"indicator_name,direction,university_\xe9d,value\nLAT,higher_is_better,U1,1.0\n",
            "indicators.csv:1: not UTF-8: byte 0xe9 (invalid continuation byte)",
        ),
        (
            "indicators.csv",
            header("indicators").encode() + b"LAT,higher_is_better,U1,1.0\nLAT,higher_is_better,U\xe9,2.0\n",
            "indicators.csv:3: not UTF-8: byte 0xe9 (invalid continuation byte)",
        ),
        (
            "scores_uda.csv", header("scores").encode() + b"uda,U1,UDA1,1.0,3.0\nuda,U2,,2.0,3.0\n",
            "scores_uda.csv:3: unit_id must not be empty unless level is 'university'",
        ),
        (
            "scores_university.csv", header("scores").encode() + b"university,U1,,1.0,3.0\nuniversity,U2,X,2.0,3.0\n",
            "scores_university.csv:3: unit_id must be empty when level is 'university', got 'X'",
        ),
    ],
    ids=["latin1-header", "latin1-university", "uda-without-unit", "university-with-unit"],
)
def test_rank_refuses_a_bad_value_with_file_and_line(tmp_path, capsys, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    out = tmp_path / "out"
    assert cli.main(["rank", "--input", str(path), "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_rank_reads_an_input_with_a_byte_order_mark_as_without_it(synth_dir, tmp_path):
    plain = synth_dir / "corpus" / "indicators.csv"
    marked = tmp_path / "input" / "indicators.csv"
    marked.parent.mkdir()
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path, out in [(plain, "plain"), (marked, "marked")]:
        assert cli.main(["rank", "--input", str(path), "--out-dir", str(tmp_path / out)]) == 0
    written = sorted(path.name for path in (tmp_path / "plain").iterdir())
    assert written and sorted(path.name for path in (tmp_path / "marked").iterdir()) == written
    for name in written:
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize(
    "names, message",
    [
        (("X Y", "X_Y"), "ranking labels 'X Y' and 'X_Y' name the same output files ('X_Y')"),
        (("P",), "ranking labels 'P' and 'P' name the same output files ('P')"),
        # The seed-3 corpus with LAT, EXP and GDP renamed: 15 pairs, but two of them name one file.
        (
            {"LAT": "P_vs_VTR", "EXP": "VTR_vs_Z", "GDP": "Z"},
            "comparisons 'P' vs 'VTR_vs_Z' and 'P_vs_VTR' vs 'Z' name the same output file "
            "('comparison_P_vs_VTR_vs_Z.csv')",
        ),
    ],
    ids=["sanitised", "P", "seed3-vs-labels"],
)
def test_report_rejects_colliding_labels_before_writing(synth_dir, tmp_path, capsys, names, message):
    corpus = tmp_path / "corpus"
    if isinstance(names, dict):
        shutil.copytree(synth_dir / "corpus", corpus)
        indicators = corpus / "indicators.csv"
        text = indicators.read_text(encoding="utf-8")
        for old, new in names.items():
            assert f"\n{old}," in text
            text = text.replace(f"\n{old},", f"\n{new},")
        indicators.write_text(text, encoding="utf-8")
    else:
        rows = minimal_rows()
        rows["indicators"] = [(name, "higher_is_better", "U1", "1.0") for name in names]
        write_corpus(corpus, **rows)
    out = tmp_path / "out"
    assert cli.main(["report", "--corpus-dir", str(corpus), "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_rank_rejects_units_colliding_once_sanitised(tmp_path, capsys):
    path = tmp_path / "scores_uda.csv"
    path.write_text(header("scores") + "uda,U1,X Y,1.0,3.0\nuda,U1,X_Y,2.0,3.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["rank", "--input", str(path), "--out-dir", str(out)]) == 2
    assert "'P_uda_X Y' and 'P_uda_X_Y' name the same output files ('P_uda_X_Y')" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "stems, message",
    [
        (("X Y", "X_Y", "Z"), "ranking labels 'X Y' and 'X_Y' name the same output files ('X_Y')"),
        (("X", "X"), "ranking labels 'X' and 'X' name the same output files ('X')"),
        (
            ("A", "B_vs_C", "A_vs_B", "C"),
            "comparisons 'A' vs 'B_vs_C' and 'A_vs_B' vs 'C' name the same output file ('comparison_A_vs_B_vs_C.csv')",
        ),
    ],
    ids=["sanitised", "equal", "vs-labels"],
)
def test_compare_rejects_colliding_labels(tmp_path, capsys, stems, message):
    paths = []
    for index, stem in enumerate(stems):
        path = tmp_path / str(index) / f"{stem}.csv"
        path.parent.mkdir()
        path.write_text(header("ranking") + GOOD_RANKING, encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "out"
    assert cli.main(["compare", *paths, "--out-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
@pytest.mark.parametrize("stem", ["x\ny", "x\ry"], ids=["LF", "CR"])
def test_compare_rejects_a_label_with_a_line_break(tmp_path, capsys, stem, fmt):
    # A file name is the one way a line break reaches a label: read_rows refuses one in any field.
    paths = []
    for name in (stem, "z"):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(header("ranking") + GOOD_RANKING, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["compare", *map(str, paths), "--format", fmt, "--out-dir", str(out)]) == 2
    assert f"error: ranking label {stem!r} holds a line break" in capsys.readouterr().err
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
            "b.csv:2: entity 'A' has rank 1.0, expected the tie-averaged position 1.5",
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
        ("compare", (GOOD_RANKING,), "compare needs at least 2 ranking files"),
    ],
    ids=["compare-3-entities", "compare-ranks-not-averaged", "compare-all-tied", "compare-unaveraged-tie",
         "compare-scores-out-of-order", "report-3-universities", "report-constant-indicator",
         "compare-header-only", "compare-one-file"],
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


SMALL_SYNTH = ["synth", "--universities", "3", "--udas", "1", "--sds-per-uda", "1"]


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (SMALL_SYNTH, "[synth]\nuniversities = abc\n", "[synth] universities: invalid literal for int()"),
        (SMALL_SYNTH, "[synth]\nseed = x\n", "[synth] seed: invalid literal for int()"),
        (SMALL_SYNTH, "[synth]\nuniversites = 50\n", "unknown setting [synth] universites"),
        (SMALL_SYNTH, "seed = 1\n", "File contains no section headers"),
        (SMALL_SYNTH, "[analysis]\nwindow = 2001\n", "[analysis] window: window must look like 2001-2003"),
        (SMALL_SYNTH, "[io]\nformat = csv\n[DEFAULT]\nformat = csv\n", "unknown setting [DEFAULT] format"),
        (SMALL_SYNTH, "[io]\nout_dir =\n", "[io] out_dir: directory must not be empty"),
        (["score"], "[corpus]\ndir =\n", "[corpus] dir: directory must not be empty"),
        (["report"], "[analysis]\npercentages = 10, 20, 10.0\n", "[analysis] percentages: duplicate percentage 10.0"),
        (SMALL_SYNTH, b"[synth]\nseed = 1\xff\n", "not UTF-8: byte 0xff (invalid start byte)"),
        (SMALL_SYNTH, None, "Is a directory"),
        (SMALL_SYNTH, False, "missing config file"),
        (["score", "--corpus-dir", "c"], "[io]\nformat = json\n", "[io] format: not a setting of score"),
        (["score"], "[analysis]\npercentages = 10\n", "[analysis] percentages: not a setting of score"),
        (SMALL_SYNTH, "[io]\nformat = json\n", "[io] format: not a setting of synth"),
        (SMALL_SYNTH, "[corpus]\ndir = c\n", "[corpus] dir: not a setting of synth"),
        (["vtr", "--outcomes", "o"], "[analysis]\nwindow = 2001-2003\n", "[analysis] window: not a setting of vtr"),
        (["rank", "--input", "i.csv"], "[corpus]\ndir = c\n", "[corpus] dir: not a setting of rank"),
        (["compare", "a.csv", "b.csv"], "[synth]\nudas = 5\n", "[synth] udas: not a setting of compare"),
        (["report", "--corpus-dir", "c"], "[synth]\nseed = 1\n", "[synth] seed: not a setting of report"),
    ],
    ids=["bad-int", "bad-seed", "misspelt-key", "no-section", "bad-window", "default-section", "empty-out-dir",
         "empty-corpus-dir", "duplicate-percentages", "not-utf8", "directory", "missing", "score-format",
         "score-percentages", "synth-format", "synth-corpus-dir", "vtr-window", "rank-corpus-dir",
         "compare-synth-key", "report-synth-key"],
)
def test_config_error_exits_2_and_names_the_setting(tmp_path, monkeypatch, capsys, argv, text, message):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.ini"
    if text is None:
        config.mkdir()
    elif isinstance(text, bytes):
        config.write_bytes(text)
    elif text is not False:
        config.write_text(text, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert cli.main(["--config", str(config), *argv]) == 2
    assert f"run.ini: {message}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


# What each subcommand requires besides its settings.
REQUIRED_ARGS = {"vtr": ["--outcomes", "o.csv"], "rank": ["--input", "i.csv"], "compare": ["a.csv", "b.csv"]}


def setting_cases() -> list:
    """(subcommand, flag, section, key) of each setting flag that each subcommand offers, from ``cli.SETTINGS``."""
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    keys = {flag: section_key for section_key, (flag, _) in cli.SETTINGS.items()}
    return [
        pytest.param(command, flag, *keys[flag], id=f"{command}-{flag[2:]}")
        for command, parser in subparsers.choices.items()
        for flag in parser.get_default("setting_flags")
    ]


@pytest.mark.parametrize("command, flag, section, key", setting_cases())
def test_an_empty_setting_exits_2_and_names_its_flag_or_key(tmp_path, monkeypatch, capsys, command, flag, section,
                                                             key):
    # No cast in SETTINGS accepts an empty string, so every setting flag of every subcommand gets this case.
    monkeypatch.chdir(tmp_path)
    argv = [command, *REQUIRED_ARGS.get(command, []), *([] if flag == "--out-dir" else ["--out-dir", "out"])]
    assert cli.main([*argv, flag, ""]) == 2
    assert f"error: {flag}: " in capsys.readouterr().err
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} =\n", encoding="utf-8")
    assert cli.main(["--config", str(config), *argv]) == 2
    assert f"error: {config}: [{section}] {key}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_config_settings_reach_run_and_synth_parameters(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[analysis]\nwindow = 2002-2004\n"
        "[synth]\nseed = 7\nuniversities = 5\nlife_science_udas = 2\n"
        "max_external_authors = 40\ncross_university_rate = 0.6\n",
        encoding="utf-8",
    )
    args = cli.build_parser().parse_args(["--config", str(config), "synth", "--universities", "6"])
    run = cli.build_config(args)
    params = cli.build_synth_params(run)
    assert (run.window, run.seed) == ((2002, 2004), 7)
    assert (params.seed, params.window, params.universities) == (7, (2002, 2004), 6)
    assert (params.life_science_udas, params.max_external_authors, params.cross_university_rate) == (2, 40, 0.6)
    config.write_text(
        "[io]\nformat = json\n[corpus]\ndir = c\n[analysis]\nwindow = 2002-2004\npercentages = 10, 20\n",
        encoding="utf-8",
    )
    run = cli.build_config(cli.build_parser().parse_args(["--config", str(config), "report"]))
    assert (run.format, run.corpus_dir, run.window, run.percentages) == ("json", Path("c"), (2002, 2004), (10.0, 20.0))
    assert run.synth == {}


def test_config_file_with_a_byte_order_mark_is_read(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("\ufeff[analysis]\nwindow = 2002-2004\n", encoding="utf-8")
    assert cli.build_config(cli.build_parser().parse_args(["--config", str(config), "report"])).window == (2002, 2004)


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


def test_synth_settings_restate_the_synth_parameters():
    # SETTINGS derives the [synth] rows from the fields; each cast must be the field's annotated type, so a
    # float field with an int default still parses "0.5".
    types = get_type_hints(SynthParams)
    casts = {key: cast for (section, key), (_, cast) in cli.SETTINGS.items() if section == "synth"}
    assert casts == {field: types[field] for field in SynthParams._fields if field != "window"}


@pytest.mark.parametrize("udas, sds_per_uda", [(10, 101), (11, 100)])
def test_synth_ids_are_unique_up_to_the_refused_sizes(udas, sds_per_uda):
    data = generate(SynthParams(seed=1, universities=2, udas=udas, sds_per_uda=sds_per_uda))
    sds_ids = {sds for sds, _, _ in data.taxonomy}
    categories = {category for category, _ in data.categories}
    assert len(sds_ids) == len(categories) == udas * sds_per_uda


def test_synth_draws_bylines_at_the_external_authors_limit():
    limit = synth_mod.EXTERNAL_AUTHORS_LIMIT
    data = generate(SynthParams(seed=1, universities=2, udas=1, sds_per_uda=1, max_external_authors=limit))
    totals = [total for *_, total in data.publications]
    # A byline has at most STAFF_MAX home and 2 cross-university authors besides its externals.
    assert totals and all(total <= synth_mod.STAFF_MAX + 2 + limit for total in totals)
    assert min(totals) > limit // 10  # Binomial(limit, 0.15) has mean 1,500 and sd under 36
    positions: dict[str, list[int]] = {}
    for pub_id, position, *_ in data.pub_authors:
        positions.setdefault(pub_id, []).append(position)
    assert all(1 <= p <= total for (pub_id, *_, total) in data.publications for p in positions[pub_id])


def test_synth_without_staff_presence_staffs_one_sds_per_university(tmp_path, monkeypatch):
    # A university whose presence draws all fail is staffed in one drawn SDS.  With one UDA of two SDSs, seed 4
    # takes that fallback for 2 of its 20 universities; the recorder below reads which from the drawn doubles.
    import numpy as np

    default_rng = np.random.default_rng
    presence: list[list[float]] = []  # each university's presence draws, one per SDS, in university order

    class Recorder:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, *size):
            drawn = self.rng.random(*size)
            if size:
                presence.append(drawn.tolist())
            return drawn

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", Recorder)
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--seed", "4", "--udas", "1", "--sds-per-uda", "2", "--out-dir", str(corpus)]) == 0
    monkeypatch.undo()
    fallback = {f"U{i + 1:03d}" for i, draws in enumerate(presence) if min(draws) >= synth_mod.STAFF_PRESENCE}
    assert len(presence) == 20 and fallback == {"U019", "U020"}
    assert cli.main(["score", "--corpus-dir", str(corpus), "--out-dir", str(tmp_path / "scores")]) == 0
    loaded = corpus_mod.load_corpus(corpus, corpus_mod.DEFAULT_WINDOW)
    staffed: dict[str, set[str]] = {}
    for entry in loaded.staff:
        staffed.setdefault(entry.university_id, set()).add(entry.sds_id)
    assert len(staffed) == 20 and all(len(staffed[university]) == 1 for university in fallback)
    assert len(loaded.peer_outcomes) == 20  # every university rated in the one UDA


REMOVED_SYNTH_SETTINGS = ["staff_presence", "staff_min", "staff_max", "pubs_per_fte", "multi_category_rate",
                          "external_listed_rate", "citation_sigma"]


@pytest.mark.parametrize("key", REMOVED_SYNTH_SETTINGS)
def test_a_removed_synth_setting_exits_2_as_a_flag(tmp_path, monkeypatch, capsys, key):
    # Each is now a synth module constant, so its flag is no option of synth.
    assert key.upper() in vars(synth_mod)
    monkeypatch.chdir(tmp_path)
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*SMALL_SYNTH, "--out-dir", "out", flag, "1"])
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", REMOVED_SYNTH_SETTINGS)
def test_a_removed_synth_setting_exits_2_as_a_config_key(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.ini"
    config.write_text(f"[synth]\n{key} = 1\n", encoding="utf-8")
    assert cli.main(["--config", str(config), *SMALL_SYNTH, "--out-dir", "out"]) == 2
    assert f"error: {config}: unknown setting [synth] {key}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


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
        (["synth", "--max-external-authors", "-1"], "synth: max_external_authors must be in [0, 10000], got -1"),
        (
            ["synth", "--max-external-authors", "10001"],
            "synth: max_external_authors must be in [0, 10000], got 10001",
        ),
        (
            ["synth", "--max-external-authors", str(10**20)],
            f"synth: max_external_authors must be in [0, 10000], got {10**20}",
        ),
        (["synth", "--peer-noise", "nan"], "synth: peer_noise must be finite and >= 0, got nan"),
        (["synth", "--peer-noise", "inf"], "synth: peer_noise must be finite and >= 0, got inf"),
        (["synth", "--universities", "1"], "synth: need at least 2 universities"),
        (["synth", "--udas", "0"], "synth: need at least one UDA and one SDS per UDA"),
        (["synth", "--sds-per-uda", "0"], "synth: need at least one UDA and one SDS per UDA"),
        (
            ["synth", "--udas", "11", "--sds-per-uda", "101"],
            "synth: more than 10 UDAs with more than 100 SDSs per UDA repeat SDS ids",
        ),
        (["synth", "--life-science-udas", "2"], "synth: life_science_udas out of range"),
        (["synth", "--life-science-udas", "-1"], "synth: life_science_udas out of range"),
        (["synth", "--window", "2003-2001"], "synth: window end precedes start"),
        (["synth", "--cross-university-rate", "2"], "synth: cross_university_rate must be in [0, 1], got 2.0"),
        (["synth", "--gradient-strength", "1.01"], "synth: gradient_strength must be in [0, 1], got 1.01"),
        (["report", "--percentages", "50,50.0"], "--percentages: duplicate percentage 50.0 (prints as 50)"),
        (
            ["report", "--percentages", "50.0000001,50.0000002"],
            "--percentages: duplicate percentage 50.0000002 (prints as 50)",
        ),
        (["report", "--percentages", "0"], "--percentages: percentage must be in (0, 100], got 0"),
        (["report", "--percentages", "10,101"], "--percentages: percentage must be in (0, 100], got 101"),
        (["report", "--percentages", "x"], "--percentages: bad percentage 'x'"),
        (["report", "--percentages", ","], "--percentages: empty percentages list"),
        (["score", "--corpus-dir", ".", "--window", "2003-2001"], "window 2003-2001: end year precedes start year"),
        (["score"], "no corpus directory given (use --corpus-dir or [corpus] dir)"),
    ],
    ids=["universities", "format", "window", "empty-out-dir", "empty-corpus-dir", "negative-seed",
         "negative-external-authors", "external-authors-over-limit", "external-authors-over-int64",
         "nan-peer-noise", "inf-peer-noise", "one-university", "no-udas",
         "no-sds-per-uda", "repeated-sds-ids", "too-many-life-science-udas", "negative-life-science-udas",
         "synth-reversed-window", "cross-university-rate-over-1", "gradient-strength-over-1",
         "duplicate-percentages", "percentages-printing-alike", "zero-percentage", "percentage-over-100",
         "non-numeric-percentage", "empty-percentages", "reversed-window", "no-corpus-dir"],
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
        ("rank", "scores_university.csv", "a,b\n1,2\n", "scores_university.csv:1: unrecognized header 'a,b'"),
        ("rank", "scores_university.csv", '"level\nX",b\n', "scores_university.csv:1: line break inside a field"),
        (
            "rank", "scores_university.csv", header("scores") + "faculty,U1,,1.0,3.0\n",
            "scores_university.csv:2: level must be one of ('sds', 'uda', 'macro', 'university'), got 'faculty'",
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


def test_every_subcommand_exits_0_on_the_seed3_chain(tmp_path, capsys):
    # Each run reads what the runs before it wrote, as in a user's session; each prints one summary line.
    corpus = tmp_path / "synth"
    chain = [
        ["synth", "--seed", "3"],
        ["score", "--corpus-dir", str(corpus)],
        ["vtr", "--outcomes", str(corpus / "peer_outcomes.csv")],
        ["rank", "--input", str(corpus / "indicators.csv")],
        ["compare", str(tmp_path / "rank" / "ranking_LAT.csv"), str(tmp_path / "rank" / "ranking_QUALITY.csv")],
        ["report", "--corpus-dir", str(corpus)],
    ]
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argv[0] for argv in chain) == sorted(subparsers.choices)
    for argv in chain:
        assert cli.main([*argv, "--out-dir", str(tmp_path / argv[0])]) == 0
        printed = capsys.readouterr()
        assert printed.err == ""
        assert len(printed.out.splitlines()) == (4 if argv[0] == "rank" else 1)  # rank: one line per ranking


# The writer that each subcommand calls first; synth writes each row to its file as it draws it.
FIRST_WRITER = {
    "synth": "bibliorank.synth._FileSink.extend",
    "score": "bibliorank.productivity.write_csv",
    "vtr": "bibliorank.peer_rating.write_csv",
    "rank": "bibliorank.rankcmp.write_csv",
    "compare": "bibliorank.cli._write_text",
    "report": "bibliorank.productivity.write_csv",
}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_a_failed_write_exits_1_with_one_error_line(synth_dir, tmp_path, monkeypatch, capsys, command):
    def full_disk(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(FIRST_WRITER[command], full_disk)
    out = tmp_path / "out"
    assert cli.main([*writing_argv(command, synth_dir, tmp_path), "--out-dir", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"  # no traceback
    assert printed.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [command for command in WRITING_COMMANDS if command != "vtr"])  # vtr writes one file
def test_a_write_failing_after_the_first_file_exits_1_with_one_error_line(
    synth_dir, tmp_path, monkeypatch, capsys, command
):
    # The run stops at the second write and prints one line.  The first file is written whole and kept,
    # except by synth, which writes all its files or none.
    target = FIRST_WRITER[command]
    write = pkgutil.resolve_name(target)
    calls = []

    def disk_full_after_one(*args):
        calls.append(args)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write(*args)

    monkeypatch.setattr(target, disk_full_after_one)
    out = tmp_path / "out"
    assert cli.main([*writing_argv(command, synth_dir, tmp_path), "--out-dir", str(out)]) == 1
    assert len(calls) == 2
    printed = capsys.readouterr()
    assert printed.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"  # no traceback
    assert printed.out == ""
    if command == "synth":
        assert not out.exists()
    else:
        (written,) = out.iterdir()
        assert written.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
@pytest.mark.parametrize("step", ["extend", "commit"])
def test_a_synth_failing_midway_leaves_its_out_dir_as_it_was(tmp_path, monkeypatch, capsys, step, existing):
    # A write that fails while the publications are drawn, or a rename after four files are in place, leaves
    # no corpus file and no temporary, and removes the directories the run created.
    sink_method = getattr(synth_mod._FileSink, step)
    calls = []

    def disk_full_midway(sink, *args):
        calls.append(sink.path.name)
        midway = sink.path.name == "pub_authors.csv.tmp" and len(sink) if step == "extend" else len(calls) == 5
        if midway:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        sink_method(sink, *args)

    monkeypatch.setattr(synth_mod._FileSink, step, disk_full_midway)
    out = tmp_path / "new" / "out"
    if existing:
        out.mkdir(parents=True)
        (out / "notes.txt").write_text("kept", encoding="utf-8")
    assert cli.main(["synth", "--seed", "3", "--out-dir", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"  # no traceback
    assert printed.out == ""
    if step == "extend":
        assert calls.count("pub_authors.csv.tmp") == 2 and "staff.csv.tmp" in calls
    else:
        assert calls == ["publications.csv.tmp", "pub_categories.csv.tmp", "pub_authors.csv.tmp", "staff.csv.tmp",
                         "taxonomy.csv.tmp"]
    if existing:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
    else:
        assert list(tmp_path.iterdir()) == []


def test_synth_refuses_a_temporary_left_by_a_killed_run(tmp_path, capsys):
    # A synth that is killed leaves its temporaries behind; the next run into that directory refuses them as it
    # refuses the corpus files, and creates and removes nothing.
    out = tmp_path / "out"
    out.mkdir()
    leftover = out / "staff.csv.tmp"
    leftover.write_text("", encoding="utf-8")
    assert cli.main(["synth", "--seed", "3", "--universities", "4", "--out-dir", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.err == f"error: {leftover}: output file exists\n"
    assert printed.out == ""
    assert list(out.iterdir()) == [leftover]
    assert leftover.read_text(encoding="utf-8") == ""
