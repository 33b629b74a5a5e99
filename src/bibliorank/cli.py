"""Command-line front end: score, vtr, rank, compare, synth, report.

Outputs are written under ``--out-dir`` and are byte-identical across
reruns with the same inputs and seed.  ``rank`` writes every ranking its
input holds, each to ``ranking_<label>.csv``: one per unit of a score table
or of vtr ratings, and one per indicator.

Every setting is one row of ``SETTINGS``: its config-file key, its flag and
its cast.  That table alone gives each subcommand its setting flags, the
keys an INI config file (``--config``) may hold, and the layering of
defaults, then the file, then the flags given, so a flag wins over its key.
A config file holds only keys whose flags the running subcommand offers.
Flag and file values share the cast: a value that does not parse, an
unknown key, or a key of a flag the subcommand lacks exits 2 and names the
flag or the setting.  ``--format`` belongs to ``compare`` and ``report``,
which render comparisons; the rest write CSV.

Exit codes: 0 success, 1 runtime failure, 2 input validation failure.
Every subcommand computes all its outputs (scores, ratings, rankings and
every pairwise comparison) before its first write, so a run that exits 2
writes nothing.  No run writes over a file: when any file it would write
exists already, it exits 2 naming that file, before its first write, so a
rerun into an old ``--out-dir`` cannot leave stale files beside new ones.

Each run pays only for the machinery it uses.  This module imports at
module level only what every subcommand needs: argparse, ``corpus``,
``errors``, and ``synth``, whose ``SynthParams`` fields give the settings
table its ``[synth]`` rows; ``synth`` imports numpy only inside
``generate``.  Each subcommand imports the other modules it calls
(``productivity``, ``peer_rating``, ``rankcmp``) inside its own function,
and ``configparser`` is imported only for ``--config``.  So ``vtr`` loads
neither ``productivity`` nor ``rankcmp``, ``score`` does not load
``rankcmp``, ``score``, ``vtr`` and ``rank`` load neither numpy nor scipy,
and ``compare`` and ``report`` load only ``scipy.special``, which loads
numpy (see ``rankcmp``).  No module defines a dataclass (every record is a
``NamedTuple``), and ``rankcmp`` imports ``json`` only to render JSON, so
``score``, ``vtr`` and ``rank`` load neither the dataclass machinery (with
``inspect`` and ``ast`` behind it) nor ``json``, ``synth`` loads neither
``dataclasses`` nor ``json`` (numpy loads ``inspect`` and ``ast``), and
``scipy.special`` loads both for ``compare`` and ``report``.

A process started as ``python -m bibliorank``, ``python -m bibliorank.cli``
or the ``bibliorank`` script runs :func:`run`.  It calls :func:`main`,
flushes standard output and error, and ends with ``os._exit``, skipping
interpreter teardown.  The skip relies on one condition: every output file
is written and closed inside ``main``, so only the standard streams can
still hold unwritten bytes, and ``run`` flushes them.  When the reader of
standard output has gone, that flush fails and the process exits 1
without a traceback.  Callers of ``main`` in a running interpreter, such
as tests, are unaffected.

``main`` also switches the cyclic garbage collector off while a subcommand
runs and restores its previous state afterwards.  The corpus, score and
ranking objects hold no reference cycles, so the collector's passes over
the growing row lists would free nothing.  The cyclic garbage a run
leaves instead is bounded: under a thousand objects for a ``report`` on a
200-university corpus.  ``report`` runs one collection, after it frees the
corpus and before it compares rankings, to lower its peak memory (see
:func:`cmd_report`).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, NoReturn, get_type_hints

from . import corpus as corpus_mod
from .errors import ValidationError
from .synth import SynthParams, synthesize, temporary_path

if TYPE_CHECKING:
    from . import productivity, rankcmp

_EXT = {"csv": "csv", "json": "json", "markdown": "md"}  # output format -> file extension
FORMATS = tuple(_EXT)


class RunConfig(NamedTuple):
    """Resolved settings: fields named after their flags, and ``synth`` with the other ``[synth]`` values given."""

    window: tuple[int, int] = corpus_mod.DEFAULT_WINDOW
    corpus_dir: Path | None = None
    out_dir: Path = Path("out")
    format: str = "csv"
    seed: int = 0
    percentages: tuple[float, ...] = corpus_mod.DEFAULT_PERCENTAGES
    synth: Mapping[str, Any] = MappingProxyType({})


def parse_dir(raw: str) -> Path:
    if not raw.strip():
        raise ValidationError("directory must not be empty")
    return Path(raw)


def parse_format(raw: str) -> str:
    if raw not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {raw!r}")
    return raw


def parse_window(raw: str) -> tuple[int, int]:
    try:
        start, end = raw.split("-")
        return int(start), int(end)
    except ValueError:
        raise ValidationError(f"window must look like 2001-2003, got {raw!r}") from None


def parse_percentages(raw: str) -> tuple[float, ...]:
    values: dict[str, float] = {}  # by the form csv and markdown print, so 50 and 50.0 are one percentage
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = float(piece)
        except ValueError:
            raise ValidationError(f"bad percentage {piece!r}") from None
        if not 0 < value <= 100:
            raise ValidationError(f"percentage must be in (0, 100], got {piece}")
        printed = f"{value:g}"
        if printed in values:
            raise ValidationError(f"duplicate percentage {piece} (prints as {printed})")
        values[printed] = value
    if not values:
        raise ValidationError("empty percentages list")
    return tuple(values.values())


# Flag and cast of every setting, keyed by its (section, key) in a config file.
# A flag's argparse dest names the RunConfig field, or the SynthParams field
# for the [synth] keys other than seed.  Those keys are the SynthParams fields
# that RunConfig lacks, in field order, each cast by its annotated type.
SETTINGS: dict[tuple[str, str], tuple[str, Callable[[str], Any]]] = {
    ("io", "out_dir"): ("--out-dir", parse_dir),
    ("io", "format"): ("--format", parse_format),
    ("corpus", "dir"): ("--corpus-dir", parse_dir),
    ("analysis", "window"): ("--window", parse_window),
    ("analysis", "percentages"): ("--percentages", parse_percentages),
    ("synth", "seed"): ("--seed", int),
    **{
        ("synth", field): ("--" + field.replace("_", "-"), cast)
        for field, cast in get_type_hints(SynthParams).items()
        if field not in RunConfig._fields
    },
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _cast(where: str, cast: Callable[[str], Any], text: str) -> Any:
    try:
        return cast(text)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _read_ini(path: Path) -> dict[tuple[str, str], Any]:
    """Read a config file into cast values keyed by (section, key), refusing unknown and malformed settings."""
    import configparser

    if not path.exists():
        raise ValidationError(f"{path}: missing config file")
    parser = configparser.ConfigParser()
    try:
        # read_file, unlike read, fails on a file it cannot open or decode.
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
        # [DEFAULT] comes first, so a key set there is refused under its own name, not a section's.
        raw = {(section, key): text for section in parser for key, text in parser[section].items()}
    except configparser.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None
    values: dict[tuple[str, str], Any] = {}
    for (section, key), text in raw.items():
        if (section, key) not in SETTINGS:
            raise ValidationError(f"{path}: unknown setting [{section}] {key}")
        values[section, key] = _cast(f"{path}: [{section}] {key}", SETTINGS[section, key][1], text)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then the flags given, refusing a key whose flag the subcommand lacks."""
    values: dict[str, Any] = {}
    if args.config:
        path = Path(args.config)
        for (section, key), value in _read_ini(path).items():
            flag = SETTINGS[section, key][0]
            if flag not in args.setting_flags:
                raise ValidationError(f"{path}: [{section}] {key}: not a setting of {args.command}")
            values[_dest(flag)] = value
    for flag, cast in SETTINGS.values():
        text = getattr(args, _dest(flag), None)
        if text is not None:
            values[_dest(flag)] = _cast(flag, cast, text)
    config = RunConfig(
        **{name: value for name, value in values.items() if name in RunConfig._fields},
        synth={name: value for name, value in values.items() if name not in RunConfig._fields},
    )
    for path in (config.out_dir, *config.out_dir.parents):  # refuse a file, or a path under one, before any work
        if path.is_dir():
            break
        if path.exists():
            raise ValidationError(f"{path}: not a directory")
    return config


def build_synth_params(config: RunConfig) -> SynthParams:
    return SynthParams(seed=config.seed, window=config.window, **config.synth)


def _require_corpus_dir(config: RunConfig) -> Path:
    if config.corpus_dir is None:
        raise ValidationError("no corpus directory given (use --corpus-dir or [corpus] dir)")
    return config.corpus_dir


def _safe_label(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)


def _check_labels(rankings: list[rankcmp.RankingList]) -> None:
    """Reject rankings whose labels hold a line break, or are equal or name the same output files once sanitised."""
    seen: dict[str, str] = {}
    for ranking in rankings:
        if "\n" in ranking.label or "\r" in ranking.label:  # it would split a line of the rendered comparisons
            raise ValidationError(f"ranking label {ranking.label!r} holds a line break")
        safe = _safe_label(ranking.label)
        if safe in seen:
            raise ValidationError(
                f"ranking labels {seen[safe]!r} and {ranking.label!r} name the same output files ({safe!r})"
            )
        seen[safe] = ranking.label


# Each output file of a run: its path -> (writer, what it writes); writer(what, path) writes it.
Outputs = dict[Path, tuple[Callable[[Any, Path], None], Any]]


def _refuse_existing(paths: Iterable[Path]) -> None:
    for path in paths:
        if path.exists():
            raise ValidationError(f"{path}: output file exists")


def _write_outputs(outputs: Outputs) -> None:
    """Write every output file, once none of them exists, so a run never writes over a file."""
    _refuse_existing(outputs)
    for path, (write, data) in outputs.items():
        write(data, path)


def _score_outputs(bundle: productivity.ScoreBundle, out: Path) -> Outputs:
    from . import productivity

    outputs: Outputs = {
        out / f"scores_{level}.csv": (productivity.write_score_csv, getattr(bundle, level))
        for level in productivity.LEVELS
    }
    outputs[out / "eligibility.csv"] = (productivity.write_eligibility_csv, bundle.eligibility)
    return outputs


# ---------------------------------------------------------------------------
# Subcommands


def cmd_score(args: argparse.Namespace) -> int:
    from . import productivity

    config = build_config(args)
    corpus = corpus_mod.load_corpus(_require_corpus_dir(config), config.window)
    bundle = productivity.score_corpus(corpus)
    out = config.out_dir
    _write_outputs(_score_outputs(bundle, out))
    eligible = sum(1 for e in bundle.eligibility.values() if e.eligible)
    print(
        f"scored {len(corpus.publications)} publications "
        f"({corpus.rejected_count} rejected), {len(corpus.universities())} universities, "
        f"{eligible}/{len(bundle.eligibility)} SDSs eligible -> {out}"
    )
    return 0


def cmd_vtr(args: argparse.Namespace) -> int:
    from . import peer_rating

    config = build_config(args)
    path = Path(args.outcomes)
    outcomes = corpus_mod.read_peer_outcomes_csv(path)
    if not outcomes:
        raise ValidationError(f"{path}: no peer outcomes" if path.exists() else f"{path}: missing input file")
    rated = peer_rating.rate_outcomes(outcomes)
    out = config.out_dir / "vtr_ratings.csv"
    _write_outputs({out: (peer_rating.write_rated_csv, rated)})
    print(f"rated {len(rated)} (university, UDA) cells -> {out}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    from . import rankcmp

    config = build_config(args)
    path = Path(args.input)
    if not path.exists():
        raise ValidationError(f"{path}: missing input file")
    with corpus_mod._open_csv(path) as (_, header):
        header = tuple(header)
    if header == corpus_mod.SCHEMAS["scores"]:
        from . import productivity

        table = productivity.read_score_csv(path)
        units = _by_unit((unit, university, entry.P) for (university, unit), entry in table.entries.items())
        rankings = [
            rankcmp.build_ranking(
                scores, corpus_mod.HIGHER_IS_BETTER, f"P_{table.level}_{unit}" if unit else f"P_{table.level}"
            )
            for unit, scores in units
        ]
    elif header == corpus_mod.SCHEMAS["indicators"]:
        rankings = [
            rankcmp.build_ranking(t.values, t.direction, t.indicator_name) for t in corpus_mod.read_indicators_csv(path)
        ]
    elif header == corpus_mod.SCHEMAS["rated"]:
        from . import peer_rating

        units = _by_unit((r.uda_id, r.university_id, r.R) for r in peer_rating.read_rated_csv(path))
        rankings = [rankcmp.build_ranking(scores, corpus_mod.HIGHER_IS_BETTER, f"VTR_{uda}") for uda, scores in units]
    else:
        raise ValidationError(f"{path.name}:1: unrecognized header {','.join(header)!r}")
    if not rankings:
        raise ValidationError(f"{path.name}: no rows to rank")
    _check_labels(rankings)
    outputs = _ranking_outputs(rankings, config.out_dir)
    _write_outputs(outputs)
    for ranking, out in zip(rankings, outputs):
        print(f"ranked {ranking.n} entities ({ranking.label}) -> {out}")
    return 0


def _by_unit(rows: Iterable[tuple[str, str, float]]) -> list[tuple[str, dict[str, float]]]:
    """Group (unit, university, score) rows, in one pass, into each unit's scores by university, in unit order."""
    units: dict[str, dict[str, float]] = {}
    for unit, university, score in rows:
        units.setdefault(unit, {})[university] = score
    return sorted(units.items())


def _write_text(text: str, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _ranking_outputs(rankings: list[rankcmp.RankingList], out: Path) -> Outputs:
    from . import rankcmp

    return {
        out / f"ranking_{_safe_label(ranking.label)}.csv": (rankcmp.write_ranking_csv, ranking) for ranking in rankings
    }


def _compare_all(
    rankings: list[rankcmp.RankingList], config: RunConfig
) -> tuple[list[rankcmp.ComparisonReport], rankcmp.CorrelationMatrix]:
    from . import rankcmp

    reports = [rankcmp.compare_rankings(a, b, config.percentages) for a, b in combinations(rankings, 2)]
    return reports, rankcmp.correlation_matrix(rankings, reports)


def _comparison_outputs(
    reports: list[rankcmp.ComparisonReport], matrix: rankcmp.CorrelationMatrix, config: RunConfig, out: Path
) -> Outputs:
    from . import rankcmp

    ext = _EXT[config.format]
    outputs: Outputs = {out / f"correlation_matrix.{ext}": (_write_text, rankcmp.render_matrix(matrix, config.format))}
    # A label may hold "_vs_", so two pairs can name one file: A with B_vs_C, and A_vs_B with C.
    named: dict[str, rankcmp.ComparisonReport] = {}
    for report in reports:
        name = f"comparison_{_safe_label(report.label_a)}_vs_{_safe_label(report.label_b)}.{ext}"
        if name in named:
            first = named[name]
            raise ValidationError(
                f"comparisons {first.label_a!r} vs {first.label_b!r} and {report.label_a!r} vs {report.label_b!r} "
                f"name the same output file ({name!r})"
            )
        named[name] = report
        outputs[out / name] = (_write_text, rankcmp.render_comparison(report, config.format))
    return outputs


def cmd_compare(args: argparse.Namespace) -> int:
    from . import rankcmp

    config = build_config(args)
    if len(args.rankings) < 2:
        raise ValidationError("compare needs at least 2 ranking files")
    rankings = [rankcmp.read_ranking_csv(Path(p)) for p in args.rankings]
    _check_labels(rankings)
    reports, matrix = _compare_all(rankings, config)
    _write_outputs(_comparison_outputs(reports, matrix, config, config.out_dir))
    print(f"compared {len(rankings)} rankings ({len(reports)} pairs) -> {config.out_dir}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = build_config(args)
    params = build_synth_params(config)
    paths = vars(corpus_mod.CorpusPaths.from_dir(config.out_dir)).values()
    # A killed synth leaves its temporaries behind, and a run cannot write its own over them.
    _refuse_existing([*paths, *map(temporary_path, paths)])
    data = synthesize(params, config.out_dir)
    print(
        f"synthesized {len(data.publications)} publications, {len(data.staff)} staff, "
        f"{params.universities} universities (seed {params.seed}) -> {config.out_dir}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from . import peer_rating, productivity, rankcmp

    config = build_config(args)
    corpus = corpus_mod.load_corpus(_require_corpus_dir(config), config.window)
    out = config.out_dir
    bundle = productivity.score_corpus(corpus)
    scores = {university: entry.P for (university, _), entry in bundle.university.entries.items()}
    rankings = [rankcmp.build_ranking(scores, corpus_mod.HIGHER_IS_BETTER, "P")]
    rated = peer_rating.rate_outcomes(corpus.peer_outcomes) if corpus.peer_outcomes else None
    if corpus.peer_outcomes:
        pooled = peer_rating.pooled_university_ratings(corpus.peer_outcomes)
        rankings.append(rankcmp.build_ranking(pooled, corpus_mod.HIGHER_IS_BETTER, "VTR"))
    for table in corpus.indicators:
        rankings.append(rankcmp.build_ranking(table.values, table.direction, table.indicator_name))
    # The comparisons read only the rankings, so the corpus goes before they import scipy and numpy.  The
    # collection empties the interpreter's free lists: without it the freed corpus still held 7 MB of
    # memory at national size, and that set the run's peak.
    del corpus
    gc.collect()
    if len(rankings) < 2:
        raise ValidationError("report needs peer outcomes or indicators to compare against P")
    _check_labels(rankings)
    reports, matrix = _compare_all(rankings, config)

    outputs = _score_outputs(bundle, out)
    if rated is not None:
        outputs[out / "vtr_ratings.csv"] = (peer_rating.write_rated_csv, rated)
    outputs.update(_ranking_outputs(rankings, out))
    outputs.update(_comparison_outputs(reports, matrix, config, out))
    _write_outputs(outputs)
    print(f"report over {len(rankings)} rankings -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibliorank",
        description="Field-normalized productivity scoring, peer ratings, and ranking comparison",
    )
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    keys = {flag: f"[{section}] {key}" for (section, key), (flag, _) in SETTINGS.items()}

    def add(name: str, func: Callable[..., int], summary: str, flags: tuple[str, ...]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, description=summary)
        setting_flags = (*flags, "--out-dir")
        for flag in setting_flags:
            p.add_argument(flag, help=f"overrides {keys[flag]} in the config file")
        p.set_defaults(func=func, setting_flags=setting_flags)
        return p

    add("score", cmd_score, "compute productivity score tables from a corpus", ("--corpus-dir", "--window"))
    p_vtr = add("vtr", cmd_vtr, "compute peer-review ratings and category percentiles", ())
    p_vtr.add_argument("--outcomes", required=True, help="peer_outcomes.csv file")
    p_rank = add("rank", cmd_rank, "write every ranking its input holds, each to ranking_<label>.csv", ())
    p_rank.add_argument("--input", required=True, help="score table, indicators, or vtr ratings CSV")
    p_cmp = add("compare", cmd_compare, "compare ranking files pairwise", ("--percentages", "--format"))
    p_cmp.add_argument("rankings", nargs="+", help="ranking CSV files (entity_id,score,rank)")
    synth_flags = tuple(flag for (section, _), (flag, _) in SETTINGS.items() if section == "synth")
    add("synth", cmd_synth, "generate a seeded synthetic corpus", ("--window", *synth_flags))
    add("report", cmd_report, "full pipeline: score, rate, rank, compare",
        ("--corpus-dir", "--window", "--percentages", "--format"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> NoReturn:
    """Process entry point: run :func:`main`, flush the standard streams, and exit without interpreter teardown."""
    try:
        code = main()
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = 0 if exc.code is None else int(exc.code)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:  # the reader has gone
            code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
