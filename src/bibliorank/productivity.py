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

import logging
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .corpus import Corpus, StaffEntry, _parse_float, _require, read_rows, write_csv
from .errors import ValidationError
from .scoring import CreditShare, compute_baselines, credit_shares

log = logging.getLogger(__name__)

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

    def university_scores(self, unit_id: str | None = None) -> dict[str, float]:
        """Scores keyed by university, optionally restricted to one unit."""
        return {
            university: entry.P
            for (university, unit), entry in self.entries.items()
            if unit_id is None or unit == unit_id
        }


def filter_eligible_sds(corpus: Corpus, shares: Sequence[CreditShare]) -> dict[str, EligibilityEntry]:
    """Per-SDS activity report: eligible iff >= 50% of national staff published.

    A researcher counts as publishing when any of their (university, SDS)
    affiliations owns at least one credit share; the corpus schema does
    not tie individual publications to researcher ids.
    """
    active_groups = {(s.university_id, s.sds_id) for s in shares}
    researchers: dict[str, set[str]] = {sds: set() for sds in corpus.taxonomy.sds_to_uda}
    active: dict[str, set[str]] = {sds: set() for sds in corpus.taxonomy.sds_to_uda}
    for entry in corpus.staff:
        researchers.setdefault(entry.sds_id, set()).add(entry.researcher_id)
        if (entry.university_id, entry.sds_id) in active_groups:
            active.setdefault(entry.sds_id, set()).add(entry.researcher_id)
    report: dict[str, EligibilityEntry] = {}
    for sds in sorted(researchers):
        count = len(researchers[sds])
        active_count = len(active.get(sds, ()))
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
    if window_len <= 0:
        raise ValueError(f"window {window} has non-positive length")
    rs: dict[tuple[str, str], float] = {}
    for entry in sorted(roster, key=lambda e: (e.university_id, e.sds_id, e.researcher_id)):
        key = (entry.university_id, entry.sds_id)
        rs[key] = rs.get(key, 0.0) + entry.years_on_staff
    numerators: dict[tuple[str, str], float] = {}
    for share in sorted(shares, key=lambda s: (s.university_id, s.sds_id, s.pub_id)):
        key = (share.university_id, share.sds_id)
        if key not in rs:
            raise ValueError(f"orphan credit: shares for {key} but no staff time equivalent")
        numerators[key] = numerators.get(key, 0.0) + share.standardized_value * share.fraction
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
    if sds_table.level != "sds":
        raise ValueError(f"aggregation starts from an SDS table, got level {sds_table.level!r}")
    dropped_zero_mean: set[str] = set()
    dropped_unmapped: set[str] = set()
    numerators: dict[tuple[str, str], float] = {}
    denominators: dict[tuple[str, str], float] = {}
    for (university, sds), entry in sorted(sds_table.entries.items()):
        unit = unit_of(sds)
        if unit is None:
            dropped_unmapped.add(sds)
            continue
        mean = sds_table.national_means.get(sds)
        if mean is None:
            raise ValueError(f"SDS table has no national mean for {sds!r}")
        if mean == 0:
            dropped_zero_mean.add(sds)
            continue
        key = (university, unit)
        numerators[key] = numerators.get(key, 0.0) + (entry.P / mean) * entry.RS
        denominators[key] = denominators.get(key, 0.0) + entry.RS
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

    def macro_of(sds: str) -> str | None:
        uda = taxonomy.sds_to_uda.get(sds)
        if uda is None:
            return None
        return taxonomy.uda_to_macro.get(uda)

    return _aggregate(sds_table, macro_of, "macro")


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


def read_score_csv(path) -> ScoreTable:
    """Read a score table written by :func:`write_score_csv`; ``unit_id`` is empty at university level."""
    path = Path(path)
    name = path.name
    entries: dict[tuple[str, str], ScoreEntry] = {}
    level: str | None = None
    for line, (raw_level, raw_university, raw_unit, raw_p, raw_rs) in read_rows(path, "scores"):
        row_level = raw_level.strip()
        if row_level not in LEVELS:
            raise ValidationError(f"{name}:{line}: unknown level {row_level!r}")
        if level is None:
            level = row_level
        elif row_level != level:
            raise ValidationError(f"{name}:{line}: mixed levels {level!r} and {row_level!r}")
        key = (_require(name, line, "university_id", raw_university), raw_unit.strip())
        if key in entries:
            raise ValidationError(f"{name}:{line}: duplicate entry {key}")
        p_value = _parse_float(name, line, "P", raw_p)
        entries[key] = ScoreEntry(p_value, _parse_float(name, line, "RS", raw_rs))
    if level is None:
        raise ValidationError(f"{name}: empty score table")
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
