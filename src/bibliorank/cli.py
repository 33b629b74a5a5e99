"""Command-line front end: score, vtr, rank, compare, synth, report.

All subcommands read an optional INI config file (``--config``) whose
values individual flags override.  Outputs are written under ``--out-dir``
and are byte-identical across reruns with the same inputs and seed.

Exit codes: 0 success, 1 runtime failure, 2 input validation failure.
Every subcommand computes all its outputs (scores, ratings, rankings and
every pairwise comparison) before its first write, so a run that exits 2
writes nothing.  A config file may hold only the settings listed in
``_SETTINGS``; an unknown key or a value that does not parse exits 2 and
names the setting.

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
from dataclasses import dataclass, replace
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
    window: tuple[int, int] = DEFAULT_WINDOW
    corpus_dir: Path | None = None
    out_dir: Path = Path("out")
    out_format: str = "csv"
    rng_seed: int = 0
    percentages: tuple[float, ...] = rankcmp.DEFAULT_PERCENTAGES


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


_SYNTH_RENAME = {"universities": "n_universities", "udas": "n_udas"}
_SYNTH_KEYS: dict[str, type] = {
    "universities": int,
    "udas": int,
    "sds_per_uda": int,
    "life_science_udas": int,
    "staff_presence": float,
    "staff_min": int,
    "staff_max": int,
    "pubs_per_fte": float,
    "multi_category_rate": float,
    "cross_university_rate": float,
    "external_listed_rate": float,
    "max_external_authors": int,
    "citation_sigma": float,
    "gradient_strength": float,
    "peer_noise": float,
}


# RunConfig field and cast of each config-file setting that is not a synth parameter.
_CONFIG_KEYS: dict[tuple[str, str], tuple[str, Callable[[str], Any]]] = {
    ("io", "out_dir"): ("out_dir", Path),
    ("io", "format"): ("out_format", str),
    ("corpus", "dir"): ("corpus_dir", Path),
    ("analysis", "window"): ("window", parse_window),
    ("analysis", "percentages"): ("percentages", parse_percentages),
    ("synth", "seed"): ("rng_seed", int),
}
# Cast of every setting a config file may hold; any other key is refused.
_SETTINGS = {key: cast for key, (_, cast) in _CONFIG_KEYS.items()} | {
    ("synth", key): cast for key, cast in _SYNTH_KEYS.items()
}


def _read_ini(path: Path) -> dict[tuple[str, str], Any]:
    """Read a config file into cast values keyed by (section, key), refusing unknown and malformed settings."""
    if not path.exists():
        raise ValidationError(f"{path}: missing config file")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
        raw = {(configparser.DEFAULTSECT, key): text for key, text in parser.defaults().items()}
        raw.update(
            ((section, key), parser.get(section, key))
            for section in parser.sections()
            for key in parser.options(section)
        )
    except configparser.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None
    values: dict[tuple[str, str], Any] = {}
    for (section, key), text in raw.items():
        if (section, key) not in _SETTINGS:
            raise ValidationError(f"{path}: unknown setting [{section}] {key}")
        try:
            values[section, key] = _SETTINGS[section, key](text)
        except ValueError as exc:
            raise ValidationError(f"{path}: [{section}] {key}: {exc}") from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then explicit flags."""
    config = RunConfig()
    if args.config:
        ini = _read_ini(Path(args.config))
        config = replace(config, **{field: ini[key] for key, (field, _) in _CONFIG_KEYS.items() if key in ini})
    if getattr(args, "out_dir", None):
        config = replace(config, out_dir=Path(args.out_dir))
    if getattr(args, "format", None):
        config = replace(config, out_format=args.format)
    if getattr(args, "corpus_dir", None):
        config = replace(config, corpus_dir=Path(args.corpus_dir))
    if getattr(args, "window", None):
        config = replace(config, window=parse_window(args.window))
    if getattr(args, "percentages", None):
        config = replace(config, percentages=parse_percentages(args.percentages))
    if getattr(args, "seed", None) is not None:
        config = replace(config, rng_seed=args.seed)
    if config.out_format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {config.out_format!r}")
    return config


def build_synth_params(args: argparse.Namespace, config: RunConfig) -> SynthParams:
    from .synth import SynthParams

    values: dict[str, object] = {}
    ini = _read_ini(Path(args.config)) if args.config else {}
    for key in _SYNTH_KEYS:
        value = getattr(args, key, None)
        if value is None:
            value = ini.get(("synth", key))
        if value is not None:
            values[_SYNTH_RENAME.get(key, key)] = value
    values["window"] = config.window
    values["seed"] = config.rng_seed
    try:
        return SynthParams(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ValidationError(f"bad synth parameter: {exc}") from None


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
    outcomes = corpus_mod.read_peer_outcomes_csv(Path(args.outcomes))
    rated = peer_rating.rate_outcomes(outcomes)
    out = config.out_dir / "vtr_ratings.csv"
    peer_rating.write_rated_csv(rated, out)
    print(f"rated {len(rated)} (university, UDA) cells -> {out}")
    return 0


def _sniff_header(path: Path) -> tuple[str, ...]:
    if not path.exists():
        raise ValidationError(f"{path}: missing input file")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return tuple(next(reader))
        except StopIteration:
            raise ValidationError(f"{path.name}:1: empty file, header row required") from None


def cmd_rank(args: argparse.Namespace) -> int:
    config = build_config(args)
    path = Path(args.input)
    header = _sniff_header(path)
    rankings: list[rankcmp.RankingList] = []
    if header == corpus_mod.SCHEMAS["scores"]:
        table = productivity.read_score_csv(path)
        units = sorted({unit for _, unit in table.entries}) if args.unit is None else [args.unit]
        if args.label and len(units) > 1:
            raise ValidationError("--label requires a single ranking; choose one with --unit")
        for unit in units:
            scores = table.university_scores(unit)
            if not scores:
                raise ValidationError(f"{path.name}: no rows for unit {args.unit!r}")
            label = args.label or (f"P_{table.level}_{unit}" if unit else f"P_{table.level}")
            rankings.append(
                rankcmp.build_ranking(scores, corpus_mod.HIGHER_IS_BETTER, label, table.level)
            )
    elif header == corpus_mod.SCHEMAS["indicators"]:
        if args.unit is not None:
            raise ValidationError("--unit does not apply to indicator files")
        tables = corpus_mod.read_indicators_csv(path)
        if args.label and len(tables) > 1:
            raise ValidationError("--label requires a single-indicator file")
        for table in tables:
            label = args.label or table.indicator_name
            rankings.append(
                rankcmp.build_ranking(table.values, table.direction, label, "university")
            )
    elif header == corpus_mod.SCHEMAS["rated"]:
        rated = _read_rated_csv(path)
        udas = sorted({uda for _, uda in rated}) if args.unit is None else [args.unit]
        if args.label and len(udas) > 1:
            raise ValidationError("--label requires a single ranking; choose one with --unit")
        for uda in udas:
            scores = {univ: value for (univ, cell_uda), value in rated.items() if cell_uda == uda}
            if not scores:
                raise ValidationError(f"{path.name}: no rows for UDA {uda!r}")
            label = args.label or f"VTR_{uda}"
            rankings.append(rankcmp.build_ranking(scores, corpus_mod.HIGHER_IS_BETTER, label, "uda"))
    else:
        raise ValidationError(f"{path.name}: unrecognized header {','.join(header)!r}")
    _check_labels(rankings)
    for ranking in rankings:
        out = config.out_dir / f"ranking_{_safe_label(ranking.label)}.csv"
        rankcmp.write_ranking_csv(ranking, out)
        print(f"ranked {ranking.n} entities ({ranking.label}) -> {out}")
    return 0


def _read_rated_csv(path: Path) -> dict[tuple[str, str], float]:
    name = path.name
    rated: dict[tuple[str, str], float] = {}
    for line, row in corpus_mod.read_rows(path, "rated"):
        key = (
            corpus_mod._require(name, line, "university_id", row["university_id"]),
            corpus_mod._require(name, line, "uda_id", row["uda_id"]),
        )
        if key in rated:
            raise ValidationError(f"{name}:{line}: duplicate rating for {key}")
        rated[key] = corpus_mod._parse_float(name, line, "R", row["R"])
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
    ext = _EXT[config.out_format]
    _write_text(out / f"correlation_matrix.{ext}", rankcmp.render_matrix(matrix, config.out_format))
    for report in reports:
        name = f"comparison_{_safe_label(report.label_a)}_vs_{_safe_label(report.label_b)}.{ext}"
        _write_text(out / name, rankcmp.render_comparison(report, config.out_format))


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
    params = build_synth_params(args, config)
    from .synth import synthesize

    data = synthesize(params, config.out_dir)
    print(
        f"synthesized {len(data.publications)} publications, {len(data.staff)} staff, "
        f"{params.n_universities} universities (seed {params.seed}) -> {config.out_dir}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = build_config(args)
    corpus = corpus_mod.load_corpus(_require_corpus_dir(config), config.window)
    out = config.out_dir
    bundle = productivity.score_corpus(corpus)
    rankings = [
        rankcmp.build_ranking(bundle.university.university_scores(""), corpus_mod.HIGHER_IS_BETTER, "P", "university")
    ]
    if corpus.peer_outcomes:
        pooled = peer_rating.pooled_university_ratings(corpus.peer_outcomes)
        rankings.append(rankcmp.build_ranking(pooled, corpus_mod.HIGHER_IS_BETTER, "VTR", "university"))
    for table in corpus.indicators:
        rankings.append(
            rankcmp.build_ranking(table.values, table.direction, table.indicator_name, "university")
        )
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-dir", help="output directory (default: out)")
        p.add_argument("--format", choices=FORMATS, help="report format (default: csv)")

    p_score = sub.add_parser("score", help="compute productivity score tables from a corpus")
    p_score.add_argument("--corpus-dir", help="directory with the corpus CSV files")
    p_score.add_argument("--window", help="observation window, e.g. 2001-2003")
    common(p_score)
    p_score.set_defaults(func=cmd_score)

    p_vtr = sub.add_parser("vtr", help="compute peer-review ratings and category percentiles")
    p_vtr.add_argument("--outcomes", required=True, help="peer_outcomes.csv file")
    common(p_vtr)
    p_vtr.set_defaults(func=cmd_vtr)

    p_rank = sub.add_parser("rank", help="build ranking lists from scores, indicators, or ratings")
    p_rank.add_argument("--input", required=True, help="score table, indicators, or vtr ratings CSV")
    p_rank.add_argument("--unit", help="restrict to one unit id (SDS/UDA/macro)")
    p_rank.add_argument("--label", help="ranking label (single ranking only)")
    common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_cmp = sub.add_parser("compare", help="compare ranking files pairwise")
    p_cmp.add_argument("rankings", nargs="+", help="ranking CSV files (entity_id,score,rank)")
    p_cmp.add_argument("--percentages", help="top-k percentages, e.g. 5,10,25")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p_synth.add_argument("--seed", type=int, help="RNG seed")
    p_synth.add_argument("--window", help="observation window, e.g. 2001-2003")
    p_synth.add_argument("--universities", type=int, help="number of universities")
    p_synth.add_argument("--udas", type=int)
    p_synth.add_argument("--sds-per-uda", dest="sds_per_uda", type=int)
    p_synth.add_argument("--life-science-udas", dest="life_science_udas", type=int)
    p_synth.add_argument("--staff-presence", dest="staff_presence", type=float)
    p_synth.add_argument("--staff-min", dest="staff_min", type=int)
    p_synth.add_argument("--staff-max", dest="staff_max", type=int)
    p_synth.add_argument("--pubs-per-fte", dest="pubs_per_fte", type=float)
    p_synth.add_argument("--gradient-strength", dest="gradient_strength", type=float)
    p_synth.add_argument("--peer-noise", dest="peer_noise", type=float)
    p_synth.add_argument("--citation-sigma", dest="citation_sigma", type=float)
    common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_rep = sub.add_parser("report", help="full pipeline: score, rate, rank, compare")
    p_rep.add_argument("--corpus-dir", help="directory with the corpus CSV files")
    p_rep.add_argument("--window", help="observation window, e.g. 2001-2003")
    p_rep.add_argument("--percentages", help="top-k percentages, e.g. 5,10,25")
    common(p_rep)
    p_rep.set_defaults(func=cmd_report)
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
