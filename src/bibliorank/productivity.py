"""Aggregate credit shares into productivity scores per SDS, UDA, macro-UDA and university.

Productivity in an SDS is the sum of a university's fractional
standardized citations divided by its research staff time equivalent
(full-time-equivalent head count over the observation window), giving an
average annual per-capita figure.  Higher levels are the staff-weighted
average of SDS scores standardized by their national SDS means, so a
university matching the national average everywhere scores exactly 1.

An SDS only enters the aggregation when at least half of its national
staff belong to a (university, SDS) group with at least one credit share;
ineligible SDSs are excluded from every downstream table.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .corpus import Column, Corpus, RowFault, StaffEntry, check_unique, float_column, id_column, read_rows, write_csv
from .errors import ValidationError
from .scoring import CreditShare, compute_baselines, credit_shares

LEVELS = ("sds", "uda", "macro", "university")


class ScoreEntry(NamedTuple):
    P: float
    RS: float


class EligibilityEntry(NamedTuple):
    staff_count: int
    active_count: int
    active_fraction: float
    eligible: bool


@dataclass(frozen=True)
class ScoreTable:
    """Productivity scores at one aggregation level.

    ``entries`` maps (university_id, unit_id) to (P, RS); ``unit_id`` is
    the SDS/UDA/macro identifier, or "" at university level.
    ``national_means`` is populated at SDS level only.
    """

    level: str
    entries: dict[tuple[str, str], ScoreEntry]
    national_means: dict[str, float]


def filter_eligible_sds(corpus: Corpus, shares: Sequence[CreditShare]) -> dict[str, EligibilityEntry]:
    """Per-SDS activity report: eligible iff >= 50% of national staff published.

    A researcher counts as publishing when any of their (university, SDS)
    affiliations owns at least one credit share; the corpus schema does
    not tie individual publications to researcher ids.
    """
    active_groups = set(map(itemgetter(1, 2), shares))  # (university_id, sds_id)
    researchers: dict[str, set[str]] = {sds: set() for sds in corpus.taxonomy.sds_to_uda}
    active: dict[str, set[str]] = {sds: set() for sds in corpus.taxonomy.sds_to_uda}
    for researcher, university, sds, _ in corpus.staff:  # every staff SDS is in the taxonomy
        researchers[sds].add(researcher)
        if (university, sds) in active_groups:
            active[sds].add(researcher)
    report: dict[str, EligibilityEntry] = {}
    for sds in sorted(researchers):
        count = len(researchers[sds])
        active_count = len(active[sds])
        fraction = active_count / count if count else 0.0
        report[sds] = EligibilityEntry(count, active_count, fraction, count > 0 and fraction >= 0.5)
    return report


def sds_productivity(
    shares: Sequence[CreditShare], roster: Sequence[StaffEntry], window: tuple[int, int]
) -> ScoreTable:
    """Per-(university, SDS) productivity plus the national mean of each SDS.

    Every (university, SDS) group present in the roster gets an entry;
    groups with staff but no shares score 0 and still enter the national
    mean (productivity is per capita, silent staff count).
    """
    window_len = window[1] - window[0] + 1
    rs: dict[tuple[str, str], float] = {}
    # Sorting on the researcher (below, the pub) id alone gives each (university, SDS) key its terms in the order
    # the full (university, SDS, id) key gave them; the sorts are stable, so ties keep input order either way.
    for _, university, sds, years_on_staff in sorted(roster, key=itemgetter(0)):  # by researcher_id
        key = (university, sds)
        rs[key] = rs.get(key, 0.0) + years_on_staff
    numerators: dict[tuple[str, str], float] = {}
    for _, university, sds, fraction, standardized_value in sorted(shares, key=itemgetter(0)):  # by pub_id
        key = (university, sds)
        numerators[key] = numerators.get(key, 0.0) + standardized_value * fraction
    entries: dict[tuple[str, str], ScoreEntry] = {}
    for key in sorted(rs):
        staff_equivalent = rs[key] / window_len
        entries[key] = ScoreEntry(numerators.get(key, 0.0) / staff_equivalent, staff_equivalent)
    by_sds: dict[str, list[float]] = {}
    for (university, sds), entry in entries.items():
        by_sds.setdefault(sds, []).append(entry.P)
    national_means = {sds: statistics.fmean(values) for sds, values in sorted(by_sds.items())}
    return ScoreTable(level="sds", entries=entries, national_means=national_means)


def _aggregate(sds_table: ScoreTable, unit_of: Callable[[str], str | None], level: str) -> ScoreTable:
    dropped_zero_mean: set[str] = set()
    dropped_unmapped: set[str] = set()
    numerators: dict[tuple[str, str], float] = {}
    denominators: dict[tuple[str, str], float] = {}
    for (university, sds), entry in sorted(sds_table.entries.items()):
        unit = unit_of(sds)
        if unit is None:
            dropped_unmapped.add(sds)
            continue
        mean = sds_table.national_means[sds]
        if mean == 0:
            dropped_zero_mean.add(sds)
            continue
        key = (university, unit)
        numerators[key] = numerators.get(key, 0.0) + (entry.P / mean) * entry.RS
        denominators[key] = denominators.get(key, 0.0) + entry.RS
    if dropped_zero_mean or dropped_unmapped:
        import logging  # only here, so a run that never warns does not load it

        log = logging.getLogger(__name__)
        for sds in sorted(dropped_zero_mean):
            log.warning("SDS %s dropped from %s aggregation: national mean productivity is 0", sds, level)
        for sds in sorted(dropped_unmapped):
            log.warning("SDS %s dropped from %s aggregation: no unit mapping", sds, level)
    entries = {
        key: ScoreEntry(numerators[key] / denominators[key], denominators[key])
        for key in sorted(numerators)
    }
    return ScoreTable(level=level, entries=entries, national_means={})


def uda_productivity(sds_table: ScoreTable, taxonomy) -> ScoreTable:
    """Staff-weighted, mean-standardized SDS scores rolled up to UDAs."""
    return _aggregate(sds_table, taxonomy.sds_to_uda.get, "uda")


def macro_uda_productivity(sds_table: ScoreTable, taxonomy) -> ScoreTable:
    """Same roll-up as UDAs, but over the UDA -> macro-UDA merge map."""
    return _aggregate(sds_table, lambda sds: taxonomy.uda_to_macro.get(taxonomy.sds_to_uda.get(sds)), "macro")


def university_productivity(sds_table: ScoreTable) -> ScoreTable:
    """Whole-university roll-up over every SDS where the university has staff."""
    return _aggregate(sds_table, lambda sds: "", "university")


@dataclass(frozen=True)
class ScoreBundle:
    """Everything the scoring pipeline produces for one corpus."""

    eligibility: dict[str, EligibilityEntry]
    sds: ScoreTable
    uda: ScoreTable
    macro: ScoreTable
    university: ScoreTable


def score_corpus(corpus: Corpus) -> ScoreBundle:
    """Run the full pipeline: baselines, credit shares, eligibility, all score tables."""
    baselines = compute_baselines(corpus)
    shares = credit_shares(corpus, baselines)
    eligibility = filter_eligible_sds(corpus, shares)
    eligible = {sds for sds, entry in eligibility.items() if entry.eligible}
    roster = [e for e in corpus.staff if e.sds_id in eligible]
    kept_shares = [s for s in shares if s.sds_id in eligible]
    sds_table = sds_productivity(kept_shares, roster, corpus.window)
    return ScoreBundle(
        eligibility=eligibility,
        sds=sds_table,
        uda=uda_productivity(sds_table, corpus.taxonomy),
        macro=macro_uda_productivity(sds_table, corpus.taxonomy),
        university=university_productivity(sds_table),
    )


def read_score_csv(path: Path) -> ScoreTable:
    """Read a score table written by :func:`write_score_csv`; ``unit_id`` is empty at university level."""
    entries: dict[tuple[str, str], ScoreEntry] = {}
    level: str | None = None  # the level of the file's first row

    def parse_level(raw: str) -> str:
        row_level = raw.strip()
        if row_level not in LEVELS:
            raise ValueError(f"unknown level {row_level!r}")
        return row_level

    level_of, university_of, unit_of = Column(parse_level), id_column({}, "university_id"), Column(str.strip)
    p_of, rs_of = float_column("P"), float_column("RS")

    def scores_block(lines: Sequence[int], columns: list[tuple[str, ...]]) -> None:
        nonlocal level
        raw_level, raw_university, raw_unit, raw_p, raw_rs = columns
        levels = level_of(raw_level)
        file_level = level or levels[0]
        if levels.count(file_level) != len(levels):
            index = next(i for i, row_level in enumerate(levels) if row_level != file_level)
            raise RowFault(index, f"mixed levels {file_level!r} and {levels[index]!r}")
        keys = list(zip(university_of(raw_university), unit_of(raw_unit)))
        check_unique(keys, entries.keys(), lambda key: f"duplicate entry {key}")
        entries.update(zip(keys, map(ScoreEntry, p_of(raw_p), rs_of(raw_rs))))
        level = file_level

    read_rows(path, "scores", scores_block)
    if level is None:
        raise ValidationError(f"{path.name}: empty score table")
    return ScoreTable(level=level, entries=dict(sorted(entries.items())), national_means={})


def write_score_csv(table: ScoreTable, path) -> None:
    write_csv(
        path,
        "scores",
        (
            (table.level, university, unit, repr(entry.P), repr(entry.RS))
            for (university, unit), entry in sorted(table.entries.items())
        ),
    )


def write_eligibility_csv(report: dict[str, EligibilityEntry], path) -> None:
    write_csv(
        path,
        "eligibility",
        (
            (sds, e.staff_count, e.active_count, repr(e.active_fraction), "true" if e.eligible else "false")
            for sds, e in sorted(report.items())
        ),
    )
