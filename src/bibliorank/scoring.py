"""Citation standardization and fractional author credit.

Raw citation counts are divided by the median citations of all corpus
publications sharing the same year and subject category, or by their mean
where the median is 0; multi-category publications take the weighted
average of their per-category standardized values.  The standardized
value of each publication is then split across (university, SDS) author
groups: by default every byline slot carries an equal 1/N share, while
publications in life-science categories use positional weights
(first/last authors dominate).

Per-slot weights are computed with exact rational arithmetic so that the
fraction-conservation invariant (group fractions plus the external-author
residual equal 1) holds to float precision for any byline.  A slot's
weight depends only on its weight class (first, last, second,
second-to-last or other position), the byline length and the shared
first/last branch, so the per-class weights are cached per
``(n, shared)``: five Fractions, whatever the byline length.
"""

from __future__ import annotations

import functools
import statistics
from fractions import Fraction
from typing import Mapping, NamedTuple

from .corpus import Corpus, PublicationRecord, Taxonomy

BaselineKey = tuple[int, str]  # (year, category_id)

# Positional weight classes for life-science bylines, in units of 1/20:
# shared first/last university -> 8 first, 8 last, 4 spread over the middle;
# otherwise -> 6 first, 6 last, 3 second, 3 second-to-last, 2 spread over the rest.
_SHARED_WEIGHTS = (Fraction(8, 20), Fraction(8, 20), Fraction(4, 20))
_SPLIT_WEIGHTS = (Fraction(6, 20), Fraction(6, 20), Fraction(3, 20), Fraction(3, 20), Fraction(2, 20))


class CreditShare(NamedTuple):
    """Fraction of one publication's standardized value owned by a (university, SDS) group."""

    pub_id: str
    university_id: str
    sds_id: str
    fraction: float
    standardized_value: float


def compute_baselines(corpus: Corpus) -> dict[BaselineKey, float]:
    """The citation divisor of each (year, category) cell: its median, or its mean when the median is 0.

    The mean is 0 too only in a cell of zero-citation publications.
    """
    cells: dict[BaselineKey, list[int]] = {}
    for pub in corpus.publications:
        for category, _ in pub.categories:
            cells.setdefault((pub.year, category), []).append(pub.citations)
    divisors: dict[BaselineKey, float] = {}
    for key, citations in sorted(cells.items()):
        median = float(statistics.median(citations))
        divisors[key] = median if median > 0 else statistics.fmean(citations)
    return divisors


def standardize_citations(pub: PublicationRecord, baselines: Mapping[BaselineKey, float]) -> float:
    """Weighted average of the publication's per-category standardized citation values."""
    total = 0.0
    for category, weight in pub.categories:
        divisor = baselines[pub.year, category]
        if divisor:  # a zero divisor's cell holds only zero-citation publications, whose term is 0
            total += weight * (pub.citations / divisor)
    return total


@functools.cache
def life_science_class_weights(n: int, shared_first_last: bool) -> tuple[Fraction, ...]:
    """Exact per-slot weights of the first, last, second, second-to-last and other positions of a byline of ``n``.

    A position takes the first of those classes it qualifies for; in the
    shared first/last branch the second, second-to-last and other positions
    share the one middle weight.  When a byline is too short for some class
    to have any member, that class weighs 0 and its weight is redistributed
    proportionally over the occupied classes, so the weights of the ``n``
    positions always sum to 1.
    """
    if shared_first_last:
        weights, sizes = _SHARED_WEIGHTS, (1, min(n - 1, 1), max(n - 2, 0))
    else:
        weights, sizes = _SPLIT_WEIGHTS, (1, min(n - 1, 1), int(n >= 3), int(n >= 4), max(n - 4, 0))
    occupied_total = sum(weight for weight, size in zip(weights, sizes) if size)
    per_slot = [weight / occupied_total / size if size else Fraction(0) for weight, size in zip(weights, sizes)]
    if shared_first_last:
        per_slot += per_slot[2:] * 2  # the middle weight for second, second-to-last and other
    return tuple(per_slot)


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
    if not taxonomy.is_life_science_publication(pub):
        counts: dict[tuple[str, str], int] = {}
        for slot in pub.authors:
            if slot.is_domestic_academic:
                key = (slot.university_id, slot.sds_id)
                counts[key] = counts.get(key, 0) + 1
        # int / int is correctly rounded, so this is float(Fraction(count, n)) without the Fraction.
        return {key: count / n for key, count in sorted(counts.items())}

    by_position = {slot.position: slot for slot in pub.authors}
    first = by_position.get(1)
    last = by_position.get(n)
    shared = (
        first is not None
        and last is not None
        and first.university_id is not None
        and first.university_id == last.university_id
    )
    first_weight, last_weight, second_weight, second_last_weight, other_weight = life_science_class_weights(n, shared)
    fractions: dict[tuple[str, str], Fraction] = {}
    for position, slot in by_position.items():
        if not slot.is_domestic_academic:
            continue  # an external slot's weight stays in the residual
        if position == 1:
            weight = first_weight
        elif position == n:
            weight = last_weight
        elif position == 2:
            weight = second_weight
        elif position == n - 1:
            weight = second_last_weight
        else:
            weight = other_weight
        key = (slot.university_id, slot.sds_id)
        fractions[key] = fractions[key] + weight if key in fractions else weight
    return {key: float(value) for key, value in sorted(fractions.items())}


def credit_shares(corpus: Corpus, baselines: Mapping[BaselineKey, float]) -> list[CreditShare]:
    """Standardize and fractionally attribute every publication in the corpus."""
    shares: list[CreditShare] = []
    for pub in corpus.publications:  # already sorted by pub_id
        value = standardize_citations(pub, baselines)
        for (university, sds), fraction in author_fractions(pub, corpus.taxonomy).items():
            shares.append(CreditShare(pub.pub_id, university, sds, fraction, value))
    return shares

