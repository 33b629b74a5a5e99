"""Citation standardization and fractional author credit.

Raw citation counts are divided by the median citations of all corpus
publications sharing the same year and subject category; multi-category
publications take the weighted average of their per-category standardized
values.  The standardized value of each publication is then split across
(university, SDS) author groups: by default every byline slot carries an
equal 1/N share, while publications in life-science categories use
positional weights (first/last authors dominate).

Per-slot weights are computed with exact rational arithmetic so that the
fraction-conservation invariant (group fractions plus the external-author
residual equal 1) holds to float precision for any byline.  The weights
depend only on the byline length and the shared first/last branch, so
they are cached per ``(n, shared)``; the cached mapping is read-only.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .corpus import Corpus, PublicationRecord, Taxonomy

BaselineKey = tuple[int, str]  # (year, category_id)

# Positional weight classes for life-science bylines, in units of 1/20:
# shared first/last university -> 8 first, 8 last, 4 spread over the middle;
# otherwise -> 6 first, 6 last, 3 second, 3 second-to-last, 2 spread over the rest.
_SHARED_CLASSES = (("first", Fraction(8, 20)), ("last", Fraction(8, 20)), ("middle", Fraction(4, 20)))
_SPLIT_CLASSES = (
    ("first", Fraction(6, 20)),
    ("last", Fraction(6, 20)),
    ("second", Fraction(3, 20)),
    ("second_last", Fraction(3, 20)),
    ("rest", Fraction(2, 20)),
)


@dataclass(frozen=True)
class CitationBaseline:
    """Citation statistics of one (year, category) cell of the corpus."""

    year: int
    category_id: str
    median: float
    mean: float
    count: int


class CreditShare(NamedTuple):
    """Fraction of one publication's standardized value owned by a (university, SDS) group."""

    pub_id: str
    university_id: str
    sds_id: str
    fraction: float
    standardized_value: float


def compute_baselines(corpus: Corpus) -> dict[BaselineKey, CitationBaseline]:
    """Median and mean citations per (year, category) over the whole corpus."""
    cells: dict[BaselineKey, list[int]] = {}
    for pub in corpus.publications:
        for category, _ in pub.categories:
            cells.setdefault((pub.year, category), []).append(pub.citations)
    return {
        key: CitationBaseline(
            year=key[0],
            category_id=key[1],
            median=float(statistics.median(citations)),
            mean=statistics.fmean(citations),
            count=len(citations),
        )
        for key, citations in sorted(cells.items())
    }


def standardize_citations(
    pub: PublicationRecord, baselines: Mapping[BaselineKey, CitationBaseline]
) -> float:
    """Weighted average of the publication's per-category standardized citation values.

    The divisor of each category term is the cell median when positive,
    falling back to the cell mean.  A cell where both are zero can only
    hold zero-citation publications when baselines come from the same
    corpus, so the term is 0; a positive citation count against such a
    cell (externally supplied baselines) passes through raw with a
    warning.
    """
    total = 0.0
    for category, weight in pub.categories:
        key = (pub.year, category)
        if key not in baselines:
            raise LookupError(
                f"no citation baseline for year {pub.year}, category {category!r}: corpus inconsistency"
            )
        cell = baselines[key]
        divisor = cell.median if cell.median > 0 else cell.mean
        if divisor > 0:
            term = pub.citations / divisor
        elif pub.citations == 0:
            term = 0.0
        else:
            term = float(pub.citations)
            import logging  # only here, so a run that never warns does not load it

            logging.getLogger(__name__).warning(
                "publication %s: cell (%d, %s) has zero median and mean; using raw citations",
                pub.pub_id, pub.year, category,
            )
        total += weight * term
    return total


@functools.cache
def life_science_position_weights(n: int, shared_first_last: bool) -> Mapping[int, Fraction]:
    """Exact per-position weights for a life-science byline of length ``n``, as a read-only mapping.

    Positions are assigned to the highest-priority class they qualify for
    (first > last > second > second-to-last > rest); when a byline is too
    short for some class to have any member, the vacant weight is
    redistributed proportionally over the occupied classes so the weights
    always sum to 1.
    """
    if n < 1:
        raise ValueError("byline must have at least one author")
    if n == 1:
        return MappingProxyType({1: Fraction(1)})
    classes = _SHARED_CLASSES if shared_first_last else _SPLIT_CLASSES
    members: dict[str, list[int]] = {name: [] for name, _ in classes}
    for position in range(1, n + 1):
        if position == 1:
            members["first"].append(position)
        elif position == n:
            members["last"].append(position)
        elif not shared_first_last and position == 2:
            members["second"].append(position)
        elif not shared_first_last and position == n - 1:
            members["second_last"].append(position)
        elif shared_first_last:
            members["middle"].append(position)
        else:
            members["rest"].append(position)
    occupied_total = sum(weight for name, weight in classes if members[name])
    weights: dict[int, Fraction] = {}
    for name, class_weight in classes:
        positions = members[name]
        if not positions:
            continue
        per_slot = class_weight / occupied_total / len(positions)
        for position in positions:
            weights[position] = per_slot
    return MappingProxyType(weights)


def author_fractions(pub: PublicationRecord, taxonomy: Taxonomy) -> dict[tuple[str, str], float]:
    """Fraction of the publication owned by each domestic (university, SDS) group.

    Non-life-science publications give every one of the
    ``total_author_count`` byline slots an equal share.  Life-science
    publications (any category flagged life-science) weight slots by
    byline position; the branch with shared first/last weights applies
    exactly when the first and last authors belong to the same known
    university.  Byline positions not listed in the record are implicit
    external co-authors; their weight goes to the external residual.
    """
    n = pub.total_author_count
    if not pub.authors:
        raise ValueError(f"publication {pub.pub_id!r} has no author slots")
    if not taxonomy.is_life_science_publication(pub):
        counts: dict[tuple[str, str], int] = {}
        for slot in pub.authors:
            if slot.is_domestic_academic:
                key = (slot.university_id, slot.sds_id)
                counts[key] = counts.get(key, 0) + 1
        # int / int is correctly rounded, so this is float(Fraction(count, n)) without the Fraction.
        return {key: count / n for key, count in sorted(counts.items())}

    if any(slot.position is None for slot in pub.authors):
        raise ValueError(
            f"publication {pub.pub_id!r}: life-science credit requires known byline positions"
        )
    by_position = {slot.position: slot for slot in pub.authors}
    first = by_position.get(1)
    last = by_position.get(n)
    shared = (
        first is not None
        and last is not None
        and first.university_id is not None
        and first.university_id == last.university_id
    )
    weights = life_science_position_weights(n, shared)
    fractions: dict[tuple[str, str], Fraction] = {}
    for position, slot in by_position.items():
        weight = weights.get(position)
        if weight is None or not slot.is_domestic_academic:
            continue  # an external slot's weight stays in the residual
        key = (slot.university_id, slot.sds_id)
        fractions[key] = fractions[key] + weight if key in fractions else weight
    return {key: float(value) for key, value in sorted(fractions.items())}


def credit_shares(
    corpus: Corpus, baselines: Mapping[BaselineKey, CitationBaseline]
) -> list[CreditShare]:
    """Standardize and fractionally attribute every publication in the corpus."""
    shares: list[CreditShare] = []
    for pub in corpus.publications:  # already sorted by pub_id
        value = standardize_citations(pub, baselines)
        for (university, sds), fraction in author_fractions(pub, corpus.taxonomy).items():
            shares.append(CreditShare(pub.pub_id, university, sds, fraction, value))
    return shares

