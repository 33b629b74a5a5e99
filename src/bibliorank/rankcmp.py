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

Reports render as CSV, JSON, or aligned-column markdown tables.  The
JSON of a ``ComparisonReport`` or ``CorrelationMatrix`` is its NamedTuple
fields, key for key (each top-k row an object of its own fields), so the
report types are the JSON schema.  ``json`` is imported only to render
JSON.

rho is summed in exact integers, so this module asks for no numpy.  scipy is
imported only inside :func:`_spearman`, for the p-value: importing it (and
numpy with it) costs a fresh CLI process more time than ``score``, ``vtr``
or ``rank`` spend on their work, and ``scipy.stats`` alone more than a small
``compare``.  The p-value calls ``scipy.special.stdtr``, the ufunc that
``scipy.stats.t.sf`` evaluates, so the narrow import returns the same bits.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from itertools import combinations, groupby
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import DEFAULT_PERCENTAGES, HIGHER_IS_BETTER, LOWER_IS_BETTER, SCHEMAS, read_rows, write_csv
from .errors import ValidationError

SIGNIFICANCE_LEVEL = 0.05
MIN_COMMON_ENTITIES = 4


RankEntry = namedtuple("RankEntry", SCHEMAS["ranking"])  # one scored entity with its tie-averaged rank


class RankingList(NamedTuple):
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


class TopkRow(NamedTuple):
    percentage: float
    k: int
    variations: int
    variation_pct: float
    empty: bool = False


class ComparisonReport(NamedTuple):
    label_a: str
    label_b: str
    n: int
    dropped_a: tuple[str, ...]
    dropped_b: tuple[str, ...]
    rho: float
    p_value: float
    strength: str
    shift_counts: dict[int, int]         # absolute quartile shift (0..3) -> entity count
    shift_frequencies: dict[int, float]  # shift -> relative frequency, sums to 1
    shift_cumulative: dict[int, float]   # shift -> cumulative relative frequency
    topk: tuple[TopkRow, ...]


class CorrelationMatrix(NamedTuple):
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
    """Rank entities by score, averaging ranks over exact score ties; ``direction`` is one of ``DIRECTIONS``."""
    if not scores:
        raise ValidationError(f"ranking {label!r}: no entities to rank")
    for entity, score in scores.items():
        if math.isnan(score):
            raise ValidationError(f"ranking {label!r}: NaN score for entity {entity!r}")
    return RankingList(label=label, entries=_ranked(scores, direction))


def _ranked(scores: Mapping[str, float], direction: str) -> tuple[RankEntry, ...]:
    """The entities in display order, best first by ``direction`` and ties by id, with tie-averaged ranks."""
    sign = 1.0 if direction == LOWER_IS_BETTER else -1.0
    ordered = sorted(scores.items(), key=lambda item: (sign * item[1], item[0]))
    return _tie_averaged([RankEntry(entity, score, 0.0) for entity, score in ordered], lambda e: e.score)


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


def restrict_ranking(ranking: RankingList, keep: AbstractSet[str]) -> RankingList:
    """Drop entities outside ``keep`` and re-rank inside the survivors."""
    survivors = [e for e in ranking.entries if e.entity_id in keep]
    entries = _tie_averaged(survivors, lambda e: e.rank)
    return RankingList(label=ranking.label, entries=entries)


# ---------------------------------------------------------------------------
# Correlation


def _spearman(ranks_a: Sequence[float], ranks_b: Sequence[float]) -> tuple[float, float]:
    """Spearman rho of two paired rank vectors with a two-sided p-value.

    rho is the Pearson correlation of the tie-averaged ranks.  The
    p-value uses the t-approximation with n-2 degrees of freedom (0 at
    rho = +/-1).  Its one caller, :func:`compare_rankings`, passes equal-length
    vectors of tie-averaged ranks of 1..n, n at least ``MIN_COMMON_ENTITIES``,
    neither constant.  Such ranks are multiples of 1/2 with mean (n + 1)/2, so
    each doubled centred rank ``2r - (n + 1)`` is an integer and every sum is
    exact.  The sums are the centred ones times 4, a power of two, so rho has
    the bits of a float evaluation of the centred sums.
    """
    from scipy.special import stdtr

    n = len(ranks_a)
    da = [int(2 * r) - (n + 1) for r in ranks_a]
    db = [int(2 * r) - (n + 1) for r in ranks_b]
    cov = sum(x * y for x, y in zip(da, db))
    rho = cov / math.sqrt(sum(x * x for x in da) * sum(y * y for y in db))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return rho, min(1.0, p)


def strength_label(rho: float) -> str:
    """Conventional strength-of-association label for a correlation coefficient in [-1, 1]."""
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
    ``itertools.combinations(range(len(rankings)), 2)`` order.  The CLI
    passes at least two rankings, with distinct labels.
    """
    labels = [r.label for r in rankings]
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
) -> tuple[dict[int, int], dict[int, float], dict[int, float]]:
    """Count, relative frequency and cumulative relative frequency of each absolute quartile shift (0..3).

    Both classifications cover one non-empty entity set.
    """
    n = len(quartiles_a)
    counts = {shift: 0 for shift in range(4)}
    for entity in quartiles_a:
        counts[abs(quartiles_a[entity] - quartiles_b[entity])] += 1
    frequencies = {shift: counts[shift] / n for shift in range(4)}
    cumulative: dict[int, float] = {}
    running = 0
    for shift in range(4):
        running += counts[shift]
        cumulative[shift] = running / n
    return counts, frequencies, cumulative


def top_k_size(percentage: float, n: int) -> int:
    """Number of entities in the top ``percentage`` percent: floor(pct * n / 100)."""
    return math.floor(percentage * n / 100)


def topk_overlap(
    reference: RankingList, other: RankingList, percentages: Sequence[float] = DEFAULT_PERCENTAGES
) -> list[TopkRow]:
    """Per top-percentage: how many of the reference's top k the other ranking misses.

    Both rankings hold one entity set.
    """
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
    rho, p = _spearman([ranks_a[e] for e in entities], [ranks_b[e] for e in entities])
    counts, frequencies, cumulative = shift_distribution(
        quartile_classify(restricted_a), quartile_classify(restricted_b)
    )
    return ComparisonReport(
        label_a=a.label,
        label_b=b.label,
        n=len(common),
        dropped_a=tuple(sorted(ids_a - common)),
        dropped_b=tuple(sorted(ids_b - common)),
        rho=rho,
        p_value=p,
        strength=strength_label(rho),
        shift_counts=counts,
        shift_frequencies=frequencies,
        shift_cumulative=cumulative,
        topk=tuple(topk_overlap(restricted_a, restricted_b, percentages)),
    )


# ---------------------------------------------------------------------------
# Ranking file round-trip


def write_ranking_csv(ranking: RankingList, path: Path) -> None:
    write_csv(path, "ranking", ranking.entries)


def read_ranking_csv(path: Path) -> RankingList:
    """Read a ranking written by :func:`write_ranking_csv`, labelled with the file stem.

    The file is accepted exactly when re-ranking its scores gives back every
    rank: in (rank, entity id) order its scores run from the first to the
    last, and each rank is the one :func:`build_ranking` gives its score in
    that direction.  The first row in that order whose rank differs is reported.
    """
    name = path.name
    entries: list[RankEntry] = []
    lines: dict[str, int] = {}

    for block_lines, columns in read_rows(path, "ranking"):
        entries.extend(map(RankEntry, *columns))
        lines.update(zip(columns[0], block_lines))
    if not entries:
        raise ValidationError(f"{name}: empty ranking")
    entries.sort(key=lambda e: (e.rank, e.entity_id))
    direction = LOWER_IS_BETTER if entries[0].score < entries[-1].score else HIGHER_IS_BETTER
    expected = {e.entity_id: e.rank for e in _ranked({e.entity_id: e.score for e in entries}, direction)}
    for entry in entries:
        if entry.rank != expected[entry.entity_id]:
            raise ValidationError(
                f"{name}:{lines[entry.entity_id]}: entity {entry.entity_id!r} has rank {entry.rank!r}, "
                f"expected the tie-averaged position {expected[entry.entity_id]!r}"
            )
    return RankingList(label=path.stem, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Report rendering


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    header, *rows = [[cell.replace("|", r"\|") for cell in row] for row in (header, *rows)]
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
        import json

        return json.dumps(matrix._asdict(), indent=2, sort_keys=True) + "\n"
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


def render_comparison(report: ComparisonReport, fmt: str) -> str:
    """Render one pairwise comparison (header, shifts, top-k) as csv, json, or markdown."""
    if fmt == "json":
        import json

        fields = {**report._asdict(), "topk": [row._asdict() for row in report.topk]}
        return json.dumps(fields, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [
            f"# comparison {report.label_a} vs {report.label_b}: n={report.n} "
            f"dropped_a={len(report.dropped_a)} dropped_b={len(report.dropped_b)} "
            f"rho={report.rho!r} p={report.p_value!r} strength={report.strength}",
            "section,key,value",
        ]
        for shift in range(4):
            lines.append(f"shift_frequency,{shift},{report.shift_frequencies[shift]!r}")
        for shift in range(4):
            lines.append(f"shift_cumulative,{shift},{report.shift_cumulative[shift]!r}")
        for row in report.topk:
            value = "empty" if row.empty else f"{row.variations} out of {row.k}"
            lines.append(f"topk_{row.percentage:g},{value},{row.variation_pct!r}")
        return "\n".join(lines) + "\n"
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
    shift_rows = [[str(shift), f"{100.0 * report.shift_frequencies[shift]:.2f}%"] for shift in range(4)]
    shift_rows += [
        [f"<= {shift}", f"{100.0 * report.shift_cumulative[shift]:.2f}%"] for shift in range(4)
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
        for row in report.topk
    ]
    out.append(_md_table(["Top universities", "Variations", "Percentage"], topk_rows))
    return "\n".join(out)
