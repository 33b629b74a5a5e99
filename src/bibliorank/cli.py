"""Command-line front end: score, vtr, rank, compare, synth, report.

Outputs are written under ``--out-dir`` and are byte-identical across
reruns with the same inputs and seed.

Every setting is one row of ``SETTINGS``: its config-file key, its flag and
its cast.  That table alone gives each subcommand its setting flags, the
keys an INI config file (``--config``) may hold, and the layering of
defaults, then the file, then the flags given, so a flag wins over its key.
Flag and file values share the cast: a value that does not parse, or an
unknown key, exits 2 and names the flag or the setting.

Exit codes: 0 success, 1 runtime failure, 2 input validation failure.
Every subcommand computes all its outputs (scores, ratings, rankings and
every pairwise comparison) before its first write, so a run that exits 2
writes nothing.

Each run pays only for the machinery it uses.  The ``synth`` module needs
numpy, so it is imported inside the synth subcommand; ``score``, ``vtr`` and
``rank`` load neither numpy nor scipy, and ``compare`` and ``report`` load
only ``scipy.special`` (see ``rankcmp``).  Interpreter start-up and imports
would otherwise cost more than the work of most subcommands.

``main`` also switches the cyclic garbage collector off while a subcommand
runs and restores its previous state afterwards.  The corpus, score and
ranking objects hold no reference cycles, so the collector's passes over
the growing row lists free nothing, yet they took about a quarter of a
``report`` on a 200-university corpus.  The cyclic garbage a run leaves
instead is bounded: under a thousand objects for such a ``report``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import gc
import sys
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from . import corpus as corpus_mod
from . import peer_rating, productivity, rankcmp
from .errors import ValidationError

if TYPE_CHECKING:
    from .synth import SynthParams

DEFAULT_WINDOW = (2001, 2003)
FORMATS = ("csv", "json", "markdown")
_EXT = {"csv": "csv", "json": "json", "markdown": "md"}


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings: fields named after their flags, and ``synth`` with the other ``[synth]`` values given."""

    window: tuple[int, int] = DEFAULT_WINDOW
    corpus_dir: Path | None = None
    out_dir: Path = Path("out")
    format: str = "csv"
    seed: int = 0
    percentages: tuple[float, ...] = rankcmp.DEFAULT_PERCENTAGES
    synth: dict[str, Any] = field(default_factory=dict)


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
    values = []
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
        values.append(value)
    if not values:
        raise ValidationError("empty percentages list")
    return tuple(values)


# Flag and cast of every setting, keyed by its (section, key) in a config file.
# A flag's argparse dest names the RunConfig field, or the SynthParams field
# for the [synth] keys other than seed.
SETTINGS: dict[tuple[str, str], tuple[str, Callable[[str], Any]]] = {
    ("io", "out_dir"): ("--out-dir", Path),
    ("io", "format"): ("--format", parse_format),
    ("corpus", "dir"): ("--corpus-dir", Path),
    ("analysis", "window"): ("--window", parse_window),
    ("analysis", "percentages"): ("--percentages", parse_percentages),
    ("synth", "seed"): ("--seed", int),
    ("synth", "universities"): ("--universities", int),
    ("synth", "udas"): ("--udas", int),
    ("synth", "sds_per_uda"): ("--sds-per-uda", int),
    ("synth", "life_science_udas"): ("--life-science-udas", int),
    ("synth", "staff_presence"): ("--staff-presence", float),
    ("synth", "staff_min"): ("--staff-min", int),
    ("synth", "staff_max"): ("--staff-max", int),
    ("synth", "pubs_per_fte"): ("--pubs-per-fte", float),
    ("synth", "multi_category_rate"): ("--multi-category-rate", float),
    ("synth", "cross_university_rate"): ("--cross-university-rate", float),
    ("synth", "external_listed_rate"): ("--external-listed-rate", float),
    ("synth", "max_external_authors"): ("--max-external-authors", int),
    ("synth", "citation_sigma"): ("--citation-sigma", float),
    ("synth", "gradient_strength"): ("--gradient-strength", float),
    ("synth", "peer_noise"): ("--peer-noise", float),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _cast(where: str, cast: Callable[[str], Any], text: str) -> Any:
    try:
        return cast(text)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _read_ini(path: Path) -> dict[str, Any]:
    """Read a config file into cast values keyed by flag dest, refusing unknown and malformed settings."""
    if not path.exists():
        raise ValidationError(f"{path}: missing config file")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
        # [DEFAULT] comes first, so a key set there is refused under its own name, not a section's.
        raw = {(section, key): text for section in parser for key, text in parser[section].items()}
    except configparser.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None
    values: dict[str, Any] = {}
    for (section, key), text in raw.items():
        if (section, key) not in SETTINGS:
            raise ValidationError(f"{path}: unknown setting [{section}] {key}")
        flag, cast = SETTINGS[section, key]
        values[_dest(flag)] = _cast(f"{path}: [{section}] {key}", cast, text)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then the flags given."""
    values = _read_ini(Path(args.config)) if args.config else {}
    for flag, cast in SETTINGS.values():
        text = getattr(args, _dest(flag), None)
        if text is not None:
            values[_dest(flag)] = _cast(flag, cast, text)
    run_fields = {f.name for f in fields(RunConfig)}
    return RunConfig(
        **{name: value for name, value in values.items() if name in run_fields},
        synth={name: value for name, value in values.items() if name not in run_fields},
    )


def build_synth_params(config: RunConfig) -> SynthParams:
    from .synth import SynthParams

    return SynthParams(seed=config.seed, window=config.window, **config.synth)


def _require_corpus_dir(config: RunConfig) -> Path:
    if config.corpus_dir is None:
        raise ValidationError("no corpus directory given (use --corpus-dir or [corpus] dir)")
    return config.corpus_dir


def _safe_label(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)


def _check_labels(rankings: list[rankcmp.RankingList]) -> None:
    """Reject rankings whose labels are equal or name the same output files once sanitised."""
    seen: dict[str, str] = {}
    for ranking in rankings:
        safe = _safe_label(ranking.label)
        if safe in seen:
            raise ValidationError(
                f"ranking labels {seen[safe]!r} and {ranking.label!r} name the same output files ({safe!r})"
            )
        seen[safe] = ranking.label


def _write_scores(bundle: productivity.ScoreBundle, out: Path) -> None:
    for level in productivity.LEVELS:
        productivity.write_score_csv(getattr(bundle, level), out / f"scores_{level}.csv")
    productivity.write_eligibility_csv(bundle.eligibility, out / "eligibility.csv")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_score(args: argparse.Namespace) -> int:
    config = build_config(args)
    corpus = corpus_mod.load_corpus(_require_corpus_dir(config), config.window)
    bundle = productivity.score_corpus(corpus)
    out = config.out_dir
    _write_scores(bundle, out)
    eligible = sum(1 for e in bundle.eligibility.values() if e.eligible)
    print(
        f"scored {len(corpus.publications)} publications "
        f"({corpus.rejected_count} rejected), {len(corpus.universities())} universities, "
        f"{eligible}/{len(bundle.eligibility)} SDSs eligible -> {out}"
    )
    return 0


def cmd_vtr(args: argparse.Namespace) -> int:
    config = build_config(args)
    path = Path(args.outcomes)
    outcomes = corpus_mod.read_peer_outcomes_csv(path)
    if not outcomes:
        raise ValidationError(f"{path}: no peer outcomes" if path.exists() else f"{path}: missing input file")
    rated = peer_rating.rate_outcomes(outcomes)
    out = config.out_dir / "vtr_ratings.csv"
    peer_rating.write_rated_csv(rated, out)
    print(f"rated {len(rated)} (university, UDA) cells -> {out}")
    return 0


def _sniff_header(path: Path) -> tuple[str, ...]:
    if not path.exists():
        raise ValidationError(f"{path}: missing input file")
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise ValidationError(f"{path.name}:1: empty file, header row required")
    return tuple(header)


def cmd_rank(args: argparse.Namespace) -> int:
    config = build_config(args)
    path = Path(args.input)
    header = _sniff_header(path)
    # (unit, default label, university scores, direction) of each ranking in the file; indicators have no unit.
    found: list[tuple[str | None, str, dict[str, float], str]]
    if header == corpus_mod.SCHEMAS["scores"]:
        table = productivity.read_score_csv(path)
        found = [
            (unit, f"P_{table.level}_{unit}" if unit else f"P_{table.level}", table.university_scores(unit),
             corpus_mod.HIGHER_IS_BETTER)
            for unit in sorted({unit for _, unit in table.entries})
        ]
    elif header == corpus_mod.SCHEMAS["indicators"]:
        found = [(None, t.indicator_name, t.values, t.direction) for t in corpus_mod.read_indicators_csv(path)]
    elif header == corpus_mod.SCHEMAS["rated"]:
        rated = _read_rated_csv(path)
        found = [
            (uda, f"VTR_{uda}", {univ: value for (univ, cell_uda), value in rated.items() if cell_uda == uda},
             corpus_mod.HIGHER_IS_BETTER)
            for uda in sorted({uda for _, uda in rated})
        ]
    else:
        raise ValidationError(f"{path.name}: unrecognized header {','.join(header)!r}")
    if not found:
        raise ValidationError(f"{path.name}: no rows to rank")
    if args.unit is not None:
        if found[0][0] is None:
            raise ValidationError("--unit does not apply to indicator files")
        found = [ranking for ranking in found if ranking[0] == args.unit]
        if not found:
            raise ValidationError(f"{path.name}: no rows for unit {args.unit!r}")
    if args.label and len(found) > 1:
        raise ValidationError(f"--label requires a single ranking; {path.name} holds {len(found)}")
    rankings = [
        rankcmp.build_ranking(scores, direction, args.label or label) for _, label, scores, direction in found
    ]
    _check_labels(rankings)
    for ranking in rankings:
        out = config.out_dir / f"ranking_{_safe_label(ranking.label)}.csv"
        rankcmp.write_ranking_csv(ranking, out)
        print(f"ranked {ranking.n} entities ({ranking.label}) -> {out}")
    return 0


def _read_rated_csv(path: Path) -> dict[tuple[str, str], float]:
    name = path.name
    rated: dict[tuple[str, str], float] = {}
    for line, (raw_university, raw_uda, raw_r, _) in corpus_mod.read_rows(path, "rated"):
        key = (
            corpus_mod._require(name, line, "university_id", raw_university),
            corpus_mod._require(name, line, "uda_id", raw_uda),
        )
        if key in rated:
            raise ValidationError(f"{name}:{line}: duplicate rating for {key}")
        rated[key] = corpus_mod._parse_float(name, line, "R", raw_r)
    return rated


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _compare_all(
    rankings: list[rankcmp.RankingList], config: RunConfig
) -> tuple[list[rankcmp.ComparisonReport], rankcmp.CorrelationMatrix]:
    reports = [rankcmp.compare_rankings(a, b, config.percentages) for a, b in combinations(rankings, 2)]
    return reports, rankcmp.correlation_matrix(rankings, reports)


def _write_comparisons(
    reports: list[rankcmp.ComparisonReport], matrix: rankcmp.CorrelationMatrix, config: RunConfig, out: Path
) -> None:
    ext = _EXT[config.format]
    _write_text(out / f"correlation_matrix.{ext}", rankcmp.render_matrix(matrix, config.format))
    for report in reports:
        name = f"comparison_{_safe_label(report.label_a)}_vs_{_safe_label(report.label_b)}.{ext}"
        _write_text(out / name, rankcmp.render_comparison(report, config.format))


def cmd_compare(args: argparse.Namespace) -> int:
    config = build_config(args)
    if len(args.rankings) < 2:
        raise ValidationError("compare needs at least 2 ranking files")
    rankings = [rankcmp.read_ranking_csv(Path(p)) for p in args.rankings]
    _check_labels(rankings)
    reports, matrix = _compare_all(rankings, config)
    _write_comparisons(reports, matrix, config, config.out_dir)
    print(f"compared {len(rankings)} rankings ({len(reports)} pairs) -> {config.out_dir}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = build_config(args)
    params = build_synth_params(config)
    from .synth import synthesize

    data = synthesize(params, config.out_dir)
    print(
        f"synthesized {len(data.publications)} publications, {len(data.staff)} staff, "
        f"{params.universities} universities (seed {params.seed}) -> {config.out_dir}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = build_config(args)
    corpus = corpus_mod.load_corpus(_require_corpus_dir(config), config.window)
    out = config.out_dir
    bundle = productivity.score_corpus(corpus)
    rankings = [rankcmp.build_ranking(bundle.university.university_scores(""), corpus_mod.HIGHER_IS_BETTER, "P")]
    if corpus.peer_outcomes:
        pooled = peer_rating.pooled_university_ratings(corpus.peer_outcomes)
        rankings.append(rankcmp.build_ranking(pooled, corpus_mod.HIGHER_IS_BETTER, "VTR"))
    for table in corpus.indicators:
        rankings.append(rankcmp.build_ranking(table.values, table.direction, table.indicator_name))
    if len(rankings) < 2:
        raise ValidationError("report needs peer outcomes or indicators to compare against P")
    _check_labels(rankings)
    reports, matrix = _compare_all(rankings, config)
    rated = peer_rating.rate_outcomes(corpus.peer_outcomes) if corpus.peer_outcomes else None

    _write_scores(bundle, out)
    if rated is not None:
        peer_rating.write_rated_csv(rated, out / "vtr_ratings.csv")
    for ranking in rankings:
        rankcmp.write_ranking_csv(ranking, out / f"ranking_{_safe_label(ranking.label)}.csv")
    _write_comparisons(reports, matrix, config, out)
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
        p = sub.add_parser(name, help=summary)
        for flag in (*flags, "--out-dir", "--format"):
            p.add_argument(flag, help=f"overrides {keys[flag]} in the config file")
        p.set_defaults(func=func)
        return p

    add("score", cmd_score, "compute productivity score tables from a corpus", ("--corpus-dir", "--window"))
    p_vtr = add("vtr", cmd_vtr, "compute peer-review ratings and category percentiles", ())
    p_vtr.add_argument("--outcomes", required=True, help="peer_outcomes.csv file")
    p_rank = add("rank", cmd_rank, "build ranking lists from scores, indicators, or ratings", ())
    p_rank.add_argument("--input", required=True, help="score table, indicators, or vtr ratings CSV")
    p_rank.add_argument("--unit", help="restrict to one unit id (SDS/UDA/macro)")
    p_rank.add_argument("--label", help="ranking label (single ranking only)")
    p_cmp = add("compare", cmd_compare, "compare ranking files pairwise", ("--percentages",))
    p_cmp.add_argument("rankings", nargs="+", help="ranking CSV files (entity_id,score,rank)")
    synth_flags = tuple(flag for (section, _), (flag, _) in SETTINGS.items() if section == "synth")
    add("synth", cmd_synth, "generate a seeded synthetic corpus", ("--window", *synth_flags))
    add("report", cmd_report, "full pipeline: score, rate, rank, compare",
        ("--corpus-dir", "--window", "--percentages"))
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


if __name__ == "__main__":
    sys.exit(main())
