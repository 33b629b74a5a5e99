"""Aggregate credit shares into productivity scores per SDS, UDA, macro-UDA and university.

Productivity in an SDS is the sum of a university's fractional
standardized citations divided by its research staff time equivalent
(full-time-equivalent head count over the observation window), giving an
average annual per-capita figure.  Higher levels are the staff-weighted
average of SDS scores standardized by their national SDS means, so a
university matching the national average everywhere scores exactly 1.

An SDS only enters the aggregation when at least half of its national
staff belong to a (university, SDS) group with at least one credit share;
ineligible SDSs are excluded from every downstream table.  Credit comes as
``scoring.CreditTable`` columns: eligibility reads its groups, and SDS
productivity sums each group's credit by its code, in ``pub_id`` order.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .corpus import LEVELS, Corpus, StaffEntry, read_rows, write_csv
from .errors import ValidationError
from .scoring import CreditTable, compute_baselines, credit_shares

class ScoreEntry(NamedTuple):
    P: float
    RS: float


class EligibilityEntry(NamedTuple):
    staff_count: int
    active_count: int
    active_fraction: float
    eligible: bool


class ScoreTable(NamedTuple):
    """Productivity scores at one aggregation level.

    ``entries`` maps (university_id, unit_id) to (P, RS); ``unit_id`` is
    the SDS/UDA/macro identifier, or "" at university level.
    ``national_means`` is populated at SDS level only.
    """

    level: str
    entries: dict[tuple[str, str], ScoreEntry]
    national_means: dict[str, float]


def filter_eligible_sds(corpus: Corpus, shares: CreditTable) -> dict[str, EligibilityEntry]:
    """Per-SDS activity report: eligible iff >= 50% of national staff published.

    A researcher counts as publishing when any of their (university, SDS)
    affiliations owns at least one credit share; the corpus schema does
    not tie individual publications to researcher ids.  A researcher with
    several affiliations in one SDS counts there once.
    """
    active_groups = shares.groups  # (university_id, sds_id) -> code
    sds_ids = corpus.taxonomy.sds_to_uda
    staff_count, active_count = dict.fromkeys(sds_ids, 0), dict.fromkeys(sds_ids, 0)
    # The last researcher counted in each SDS.  Staff is sorted by researcher id first, so a researcher's
    # affiliations are adjacent and a researcher met again in an SDS is that SDS's last one counted.
    counted: dict[str, str | None] = dict.fromkeys(sds_ids)
    counted_active: dict[str, str | None] = dict.fromkeys(sds_ids)
    for researcher, university, sds, _ in corpus.staff:  # every staff SDS is in the taxonomy
        if counted[sds] != researcher:
            counted[sds] = researcher
            staff_count[sds] += 1
        if counted_active[sds] != researcher and (university, sds) in active_groups:
            counted_active[sds] = researcher
            active_count[sds] += 1
    report: dict[str, EligibilityEntry] = {}
    for sds in sorted(sds_ids):
        count = staff_count[sds]
        fraction = active_count[sds] / count if count else 0.0
        report[sds] = EligibilityEntry(count, active_count[sds], fraction, count > 0 and fraction >= 0.5)
    return report


def sds_productivity(shares: CreditTable, roster: Sequence[StaffEntry], window: tuple[int, int]) -> ScoreTable:
    """Per-(university, SDS) productivity plus the national mean of each SDS.

    Every (university, SDS) group present in the roster gets an entry;
    groups with staff but no shares score 0 and still enter the national
    mean (productivity is per capita, silent staff count).  A group's
    credit is summed over its shares in ``pub_id`` order.
    """
    window_len = window[1] - window[0] + 1
    rs: dict[tuple[str, str], float] = {}
    # Sorting on the researcher id alone gives each (university, SDS) key its terms in the order the full
    # (university, SDS, researcher_id) key gave them; the sort is stable, so ties keep input order either way.
    for _, university, sds, years_on_staff in sorted(roster, key=itemgetter(0)):  # by researcher_id
        key = (university, sds)
        rs[key] = rs.get(key, 0.0) + years_on_staff
    numerators = [0.0] * len(shares.groups)
    for code, value, fraction in zip(shares.codes, shares.values, shares.fractions):  # in pub_id order
        numerators[code] += value * fraction
    groups = shares.groups
    entries: dict[tuple[str, str], ScoreEntry] = {}
    for key in sorted(rs):
        staff_equivalent = rs[key] / window_len
        code = groups.get(key)
        entries[key] = ScoreEntry((0.0 if code is None else numerators[code]) / staff_equivalent, staff_equivalent)
    by_sds: dict[str, list[float]] = {}
    for (university, sds), entry in entries.items():
        by_sds.setdefault(sds, []).append(entry.P)
    national_means = {sds: math.fsum(values) / len(values) for sds, values in sorted(by_sds.items())}
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


class ScoreBundle(NamedTuple):
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
    if len(eligible) < len(eligibility):  # keep the shares of eligible SDSs only
        kept = [sds in eligible for _, sds in shares.groups]  # by code
        mask = list(map(kept.__getitem__, shares.codes))
        columns = (shares.codes, shares.fractions, shares.values)
        shares = CreditTable(shares.groups, *(array(column.typecode, compress(column, mask)) for column in columns))
    sds_table = sds_productivity(shares, roster, corpus.window)
    return ScoreBundle(
        eligibility=eligibility,
        sds=sds_table,
        uda=uda_productivity(sds_table, corpus.taxonomy),
        macro=macro_uda_productivity(sds_table, corpus.taxonomy),
        university=university_productivity(sds_table),
    )


def read_score_csv(path: Path) -> ScoreTable:
    """Read a score table written by :func:`write_score_csv`; ``unit_id`` is empty exactly at university level."""
    entries: dict[tuple[str, str], ScoreEntry] = {}
    level: str | None = None  # one per file, as its ``per`` rule makes it
    for _, (levels, universities, units, p, rs) in read_rows(path, "scores"):
        level = levels[0]
        entries.update(zip(zip(universities, units), map(ScoreEntry, p, rs)))
    if level is None:
        raise ValidationError(f"{path.name}: empty score table")
    return ScoreTable(level=level, entries=dict(sorted(entries.items())), national_means={})


def write_score_csv(table: ScoreTable, path) -> None:
    write_csv(path, "scores", ((table.level, *key, *entry) for key, entry in sorted(table.entries.items())))


def write_eligibility_csv(report: dict[str, EligibilityEntry], path) -> None:
    write_csv(path, "eligibility", ((sds, *entry) for sds, entry in sorted(report.items())))
