"""Build ranking lists and compare them: Spearman, quartile shifts, top-k overlap.

Rankings assign tie-averaged ranks (1 = best) per the indicator's
direction; display order breaks ties by entity id.  ``compare_rankings``
is the one place that compares a pair: it restricts both lists to their
common entities, of which there must be at least ``MIN_COMMON_ENTITIES``
(one per quartile class), re-ranks inside the intersection, then reports
the Spearman correlation with a two-sided t-approximated p-value, the
distribution of absolute quartile shifts, and how many of the reference
list's top-k entities the other list misses, for a ladder of top
percentages.  The correlation matrix is built from those pairwise
reports, so each pair is aligned and correlated once.

Reports render as CSV, JSON, or aligned-column markdown tables.

numpy and scipy are imported inside the functions that use them, never at
module level: importing them costs a fresh CLI process more time than
``score``, ``vtr`` or ``rank`` spend on their work, and ``scipy.stats``
alone costs more than the whole of a small ``compare``.  The p-value calls
``scipy.special.stdtr``, the ufunc that ``scipy.stats.t.sf`` evaluates,
so the narrow import returns the same bits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations, groupby
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import DIRECTIONS, HIGHER_IS_BETTER, LOWER_IS_BETTER, _parse_float, _require, read_rows, write_csv
from .errors import ValidationError

DEFAULT_PERCENTAGES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
SIGNIFICANCE_LEVEL = 0.05
MIN_COMMON_ENTITIES = 4


class RankEntry(NamedTuple):
    entity_id: str
    score: float
    rank: float


@dataclass(frozen=True)
class RankingList:
    """Scored entities in display order (rank ascending, entity id as tie-break)."""

    label: str
    entries: tuple[RankEntry, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def entity_ids(self) -> list[str]:
        return [e.entity_id for e in self.entries]

    def ranks(self) -> dict[str, float]:
        return {e.entity_id: e.rank for e in self.entries}

    def top(self, k: int) -> set[str]:
        return {e.entity_id for e in self.entries[:k]}


@dataclass(frozen=True)
class ShiftDistribution:
    """Relative frequency of absolute quartile shifts between two classifications."""

    n: int
    counts: dict[int, int]         # shift (0..3) -> entity count
    frequencies: dict[int, float]  # shift -> relative frequency, sums to 1
    cumulative: dict[int, float]   # shift -> cumulative relative frequency


@dataclass(frozen=True)
class TopkRow:
    percentage: float
    k: int
    variations: int
    variation_pct: float
    empty: bool = False


@dataclass(frozen=True)
class ComparisonReport:
    label_a: str
    label_b: str
    n: int
    dropped_a: tuple[str, ...]
    dropped_b: tuple[str, ...]
    rho: float
    p_value: float
    strength: str
    shifts: ShiftDistribution
    topk_rows: tuple[TopkRow, ...]


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    rho: tuple[tuple[float, ...], ...]
    p_values: tuple[tuple[float, ...], ...]
    significant: tuple[tuple[bool, ...], ...]
    n_common: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Construction and restriction


def build_ranking(
    scores: Mapping[str, float],
    direction: str = HIGHER_IS_BETTER,
    label: str = "",
) -> RankingList:
    """Rank entities by score, averaging ranks over exact score ties."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if not scores:
        raise ValidationError(f"ranking {label!r}: no entities to rank")
    for entity, score in scores.items():
        if math.isnan(score):
            raise ValidationError(f"ranking {label!r}: NaN score for entity {entity!r}")
    sign = 1.0 if direction == LOWER_IS_BETTER else -1.0
    ordered = sorted(scores.items(), key=lambda item: (sign * item[1], item[0]))
    entries = _tie_averaged([RankEntry(entity, score, 0.0) for entity, score in ordered], lambda e: e.score)
    return RankingList(label=label, entries=entries)


def _tie_averaged(ordered: Sequence[RankEntry], key: Callable[[RankEntry], float]) -> tuple[RankEntry, ...]:
    """Re-rank entries in display order, giving each run of equal ``key`` the average of its positions."""
    entries: list[RankEntry] = []
    position = 0
    for _, run in groupby(ordered, key=key):
        group = list(run)
        start = position + 1
        position += len(group)
        rank = (start + position) / 2
        entries.extend(e._replace(rank=rank) for e in group)
    return tuple(entries)


def restrict_ranking(ranking: RankingList, keep: Iterable[str]) -> RankingList:
    """Drop entities outside ``keep`` and re-rank inside the survivors."""
    keep = set(keep)
    survivors = [e for e in ranking.entries if e.entity_id in keep]
    entries = _tie_averaged(survivors, lambda e: e.rank)
    return RankingList(label=ranking.label, entries=entries)


# ---------------------------------------------------------------------------
# Correlation


def spearman(ranks_a: Sequence[float], ranks_b: Sequence[float]) -> tuple[float, float]:
    """Spearman rho of two paired rank vectors with a two-sided p-value.

    rho is the Pearson correlation of the tie-averaged ranks.  The
    p-value uses the t-approximation with n-2 degrees of freedom (0 at
    rho = +/-1).
    """
    n = len(ranks_a)
    if len(ranks_b) != n:
        raise ValueError(f"rank vectors differ in length: {n} vs {len(ranks_b)}")
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    import numpy as np
    from scipy.special import stdtr

    a = np.asarray(ranks_a, dtype=float)
    b = np.asarray(ranks_b, dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    var_a = float(da @ da)
    var_b = float(db @ db)
    if var_a == 0.0 or var_b == 0.0:
        raise ValueError("zero rank variance: rho is undefined")
    rho = float(da @ db) / math.sqrt(var_a * var_b)
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return rho, min(1.0, p)


def strength_label(rho: float) -> str:
    """Conventional strength-of-association label for a correlation coefficient."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [-1, 1], got {rho}")
    magnitude = abs(rho)
    if magnitude < 0.1:
        return "negligible"
    if magnitude < 0.3:
        return "small"
    if magnitude < 0.5:
        return "moderate"
    return "strong"


def correlation_matrix(
    rankings: Sequence[RankingList], reports: Iterable[ComparisonReport]
) -> CorrelationMatrix:
    """Pairwise Spearman matrix from the :func:`compare_rankings` reports.

    ``reports`` holds one report per pair ``(i, j)`` of ``rankings``, in
    ``itertools.combinations(range(len(rankings)), 2)`` order.
    """
    if len(rankings) < 2:
        raise ValueError(f"need at least 2 rankings, got {len(rankings)}")
    labels = [r.label for r in rankings]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate ranking labels: {labels}")
    size = len(rankings)
    rho = [[1.0] * size for _ in range(size)]
    p_values = [[0.0] * size for _ in range(size)]
    significant = [[False] * size for _ in range(size)]
    n_common = [[0] * size for _ in range(size)]
    for i in range(size):
        n_common[i][i] = rankings[i].n
    for (i, j), report in zip(combinations(range(size), 2), reports, strict=True):
        for row, col in ((i, j), (j, i)):
            rho[row][col] = report.rho
            p_values[row][col] = report.p_value
            significant[row][col] = report.p_value < SIGNIFICANCE_LEVEL
            n_common[row][col] = report.n
    return CorrelationMatrix(
        labels=tuple(labels),
        rho=tuple(tuple(row) for row in rho),
        p_values=tuple(tuple(row) for row in p_values),
        significant=tuple(tuple(row) for row in significant),
        n_common=tuple(tuple(row) for row in n_common),
    )


# ---------------------------------------------------------------------------
# Quartiles, shifts, top-k


def quartile_classify(ranking: RankingList) -> dict[str, int]:
    """Quartile class per entity: 4 for the top quarter down to 1 for the bottom.

    Class boundaries use floor arithmetic on display positions, so the
    top three classes hold floor(n/4) entities each and the bottom class
    absorbs the remainder.  Ties straddling a boundary are split by the
    display order (entity id ascending), which the output preserves.
    """
    n = ranking.n
    if n < MIN_COMMON_ENTITIES:
        raise ValueError(f"quartile classification needs at least {MIN_COMMON_ENTITIES} entities, got {n}")
    q4_end = n // 4
    q3_end = n // 2
    q2_end = (3 * n) // 4
    classes: dict[str, int] = {}
    for position, entry in enumerate(ranking.entries, start=1):
        if position <= q4_end:
            classes[entry.entity_id] = 4
        elif position <= q3_end:
            classes[entry.entity_id] = 3
        elif position <= q2_end:
            classes[entry.entity_id] = 2
        else:
            classes[entry.entity_id] = 1
    return classes


def shift_distribution(
    quartiles_a: Mapping[str, int], quartiles_b: Mapping[str, int]
) -> ShiftDistribution:
    """Distribution of absolute quartile shifts between two classifications."""
    if set(quartiles_a) != set(quartiles_b):
        raise ValueError("mismatched entity sets between quartile classifications")
    n = len(quartiles_a)
    if n == 0:
        raise ValueError("empty quartile classifications")
    counts = {shift: 0 for shift in range(4)}
    for entity in quartiles_a:
        counts[abs(quartiles_a[entity] - quartiles_b[entity])] += 1
    frequencies = {shift: counts[shift] / n for shift in range(4)}
    cumulative: dict[int, float] = {}
    running = 0
    for shift in range(4):
        running += counts[shift]
        cumulative[shift] = running / n
    return ShiftDistribution(n=n, counts=counts, frequencies=frequencies, cumulative=cumulative)


def top_k_size(percentage: float, n: int) -> int:
    """Number of entities in the top ``percentage`` percent: floor(pct * n / 100)."""
    if not 0 < percentage <= 100:
        raise ValueError(f"percentage must be in (0, 100], got {percentage}")
    if float(percentage).is_integer():
        return (int(percentage) * n) // 100
    return math.floor(percentage * n / 100)


def topk_overlap(
    reference: RankingList, other: RankingList, percentages: Sequence[float] = DEFAULT_PERCENTAGES
) -> list[TopkRow]:
    """Per top-percentage: how many of the reference's top k the other ranking misses."""
    if set(reference.entity_ids()) != set(other.entity_ids()):
        raise ValueError("top-k comparison requires a common entity set; restrict both rankings first")
    n = reference.n
    rows: list[TopkRow] = []
    for percentage in percentages:
        k = top_k_size(percentage, n)
        if k == 0:
            rows.append(TopkRow(float(percentage), 0, 0, 0.0, empty=True))
            continue
        variations = len(reference.top(k) - other.top(k))
        rows.append(TopkRow(float(percentage), k, variations, 100.0 * variations / k))
    return rows


def compare_rankings(
    a: RankingList, b: RankingList, percentages: Sequence[float] = DEFAULT_PERCENTAGES
) -> ComparisonReport:
    """Full pairwise comparison on the common entities: Spearman, quartile shifts, top-k variation."""
    ids_a = set(a.entity_ids())
    ids_b = set(b.entity_ids())
    common = ids_a & ids_b
    if len(common) < MIN_COMMON_ENTITIES:
        raise ValidationError(
            f"too few common entities between {a.label!r} and {b.label!r}: "
            f"{len(common)} < {MIN_COMMON_ENTITIES}"
        )
    restricted_a = restrict_ranking(a, common)
    restricted_b = restrict_ranking(b, common)
    for restricted, other in ((restricted_a, b), (restricted_b, a)):
        if restricted.entries[0].rank == restricted.entries[-1].rank:
            raise ValidationError(
                f"ranking {restricted.label!r}: all {len(common)} entities it shares with "
                f"{other.label!r} tie, so rho is undefined"
            )
    entities = sorted(common)
    ranks_a = restricted_a.ranks()
    ranks_b = restricted_b.ranks()
    rho, p = spearman([ranks_a[e] for e in entities], [ranks_b[e] for e in entities])
    shifts = shift_distribution(quartile_classify(restricted_a), quartile_classify(restricted_b))
    return ComparisonReport(
        label_a=a.label,
        label_b=b.label,
        n=len(common),
        dropped_a=tuple(sorted(ids_a - common)),
        dropped_b=tuple(sorted(ids_b - common)),
        rho=rho,
        p_value=p,
        strength=strength_label(rho),
        shifts=shifts,
        topk_rows=tuple(topk_overlap(restricted_a, restricted_b, percentages)),
    )


# ---------------------------------------------------------------------------
# Ranking file round-trip


def write_ranking_csv(ranking: RankingList, path: Path | str) -> None:
    write_csv(
        Path(path),
        "ranking",
        ((e.entity_id, repr(e.score), repr(e.rank)) for e in ranking.entries),
    )


def read_ranking_csv(path: Path | str, label: str | None = None) -> RankingList:
    """Read a ranking written by :func:`write_ranking_csv`; label defaults to the file stem.

    Every rank must be the tie-averaged position that :func:`build_ranking`
    gives it: the average of the display positions its run of equal ranks
    holds.  In rank order the scores must be monotone, and entities with
    equal scores must share one rank.
    """
    path = Path(path)
    name = path.name
    entries: list[RankEntry] = []
    lines: dict[str, int] = {}
    for line, (raw_entity, raw_score, raw_rank) in read_rows(path, "ranking"):
        entity = _require(name, line, "entity_id", raw_entity)
        if entity in lines:
            raise ValidationError(f"{name}:{line}: duplicate entity {entity!r}")
        lines[entity] = line
        score = _parse_float(name, line, "score", raw_score)
        rank = _parse_float(name, line, "rank", raw_rank)
        entries.append(RankEntry(entity, score, rank))
    if not entries:
        raise ValidationError(f"{name}: empty ranking")
    entries.sort(key=lambda e: (e.rank, e.entity_id))

    def check_ties(key: Callable[[RankEntry], float]) -> None:
        for entry, expected in zip(entries, _tie_averaged(entries, key)):
            if entry.rank != expected.rank:
                raise ValidationError(
                    f"{name}:{lines[entry.entity_id]}: entity {entry.entity_id!r} has rank {entry.rank!r}, "
                    f"expected the tie-averaged position {expected.rank!r}"
                )

    check_ties(lambda e: e.rank)
    order = 0  # +1 once scores rise with rank, -1 once they fall
    for previous, entry in zip(entries, entries[1:]):
        step = (entry.score > previous.score) - (entry.score < previous.score)
        if step and order and step != order:
            raise ValidationError(
                f"{name}:{lines[entry.entity_id]}: entity {entry.entity_id!r} has score {entry.score!r}, "
                f"out of order after {previous.entity_id!r} with {previous.score!r}"
            )
        order = order or step
    check_ties(lambda e: e.score)
    return RankingList(label=label if label is not None else path.stem, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Report rendering


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: list[str]) -> str:
        return "| " + " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)) + " |"
    out = [line(header), "| " + " | ".join("-" * widths[i] for i in range(len(header))) + " |"]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def _fmt_rho(value: float, flag: bool) -> str:
    return f"{value:.4f}" + ("*" if flag else "")


def render_matrix(matrix: CorrelationMatrix, fmt: str) -> str:
    """Render the correlation matrix as csv, json, or lower-triangle markdown."""
    labels = matrix.labels
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("row", "column", "rho", "p_value", "significant", "n_common"))
        for i, row_label in enumerate(labels):
            for j, col_label in enumerate(labels):
                writer.writerow((
                    row_label, col_label, repr(matrix.rho[i][j]), repr(matrix.p_values[i][j]),
                    "true" if matrix.significant[i][j] else "false", matrix.n_common[i][j],
                ))
        return buffer.getvalue()
    if fmt == "json":
        payload = {
            "labels": list(labels),
            "rho": [list(row) for row in matrix.rho],
            "p_values": [list(row) for row in matrix.p_values],
            "significant": [list(row) for row in matrix.significant],
            "n_common": [list(row) for row in matrix.n_common],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "markdown":
        header = [""] + list(labels)
        rows = []
        for i, row_label in enumerate(labels):
            cells = [row_label]
            for j in range(len(labels)):
                if j > i:
                    cells.append("")
                elif j == i:
                    cells.append("1.0000")
                else:
                    cells.append(_fmt_rho(matrix.rho[i][j], matrix.significant[i][j]))
            rows.append(cells)
        return _md_table(header, rows) + "\n* p-value < 0.05\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_comparison(report: ComparisonReport, fmt: str) -> str:
    """Render one pairwise comparison (header, shifts, top-k) as csv, json, or markdown."""
    if fmt == "json":
        payload = {
            "label_a": report.label_a,
            "label_b": report.label_b,
            "n": report.n,
            "dropped_a": list(report.dropped_a),
            "dropped_b": list(report.dropped_b),
            "rho": report.rho,
            "p_value": report.p_value,
            "strength": report.strength,
            "shift_counts": {str(k): v for k, v in report.shifts.counts.items()},
            "shift_frequencies": {str(k): v for k, v in report.shifts.frequencies.items()},
            "shift_cumulative": {str(k): v for k, v in report.shifts.cumulative.items()},
            "topk": [
                {
                    "percentage": row.percentage,
                    "k": row.k,
                    "variations": row.variations,
                    "variation_pct": row.variation_pct,
                    "empty": row.empty,
                }
                for row in report.topk_rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [
            f"# comparison {report.label_a} vs {report.label_b}: n={report.n} "
            f"dropped_a={len(report.dropped_a)} dropped_b={len(report.dropped_b)} "
            f"rho={report.rho!r} p={report.p_value!r} strength={report.strength}",
            "section,key,value",
        ]
        for shift in range(4):
            lines.append(f"shift_frequency,{shift},{report.shifts.frequencies[shift]!r}")
        for shift in range(4):
            lines.append(f"shift_cumulative,{shift},{report.shifts.cumulative[shift]!r}")
        for row in report.topk_rows:
            value = "empty" if row.empty else f"{row.variations} out of {row.k}"
            lines.append(f"topk_{row.percentage:g},{value},{row.variation_pct!r}")
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        out = [
            f"## {report.label_a} vs {report.label_b}",
            "",
            f"Common entities: {report.n} "
            f"(dropped {len(report.dropped_a)} from {report.label_a}, "
            f"{len(report.dropped_b)} from {report.label_b})",
            f"Spearman rho: {report.rho:.4f} (p = {report.p_value:.4f}, {report.strength})",
            "",
            "### Distribution of quartile shifts",
            "",
        ]
        shift_rows = [[str(shift), f"{100.0 * report.shifts.frequencies[shift]:.2f}%"] for shift in range(4)]
        shift_rows += [
            [f"<= {shift}", f"{100.0 * report.shifts.cumulative[shift]:.2f}%"] for shift in range(4)
        ]
        out.append(_md_table(["Changes", "Relative frequency"], shift_rows))
        out.append("### Top-percentage variation")
        out.append("")
        topk_rows = [
            [
                f"{row.percentage:g}%",
                "-" if row.empty else f"{row.variations} out of {row.k}",
                "-" if row.empty else f"{row.variation_pct:.2f}%",
            ]
            for row in report.topk_rows
        ]
        out.append(_md_table(["Top universities", "Variations", "Percentage"], topk_rows))
        return "\n".join(out)
    raise ValueError(f"unknown format {fmt!r}")
