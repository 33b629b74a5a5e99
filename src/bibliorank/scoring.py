"""Citation standardization and fractional author credit.

Raw citation counts are divided by the median citations of all corpus
publications sharing the same year and subject category, or by their mean
where the median is 0; multi-category publications take the weighted
average of their per-category standardized values.  The standardized
value of each publication is then split across (university, SDS) author
groups: by default every byline slot carries an equal 1/N share, while
publications in life-science categories use positional weights
(first/last authors dominate).

Credit follows one exact rule.  A slot's weight depends only on its class
(first, last, second, second-to-last or other position), the byline
length ``n``, whether the publication is life-science and, if it is, the
shared first/last branch.  Per such key the five class weights are cached
as integer numerators over one common denominator: ``(1, 1, 1, 1, 1)``
over ``n`` for an equal split, the positional class weights otherwise.
A group's fraction is the integer sum of its slots' numerators divided
once by that denominator, so group fractions and the external-author
residual sum to exactly 1 before rounding.  Python's int / int true
division is correctly rounded, so each fraction is the float nearest the
exact rational, whichever multiple of its least denominator it is
written over: the same float that ``float()`` of the ``Fraction`` sum
gives.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import defaultdict
from typing import Mapping, NamedTuple

from .corpus import Corpus

BaselineKey = tuple[int, str]  # (year, category_id)

# Life-science class weights, in units of 1/20: shared first/last university -> 8 first, 8 last,
# 4 spread over the middle; otherwise -> 6 first, 6 last, 3 second, 3 second-to-last, 2 spread over the rest.
_SHARED_WEIGHTS = (8, 8, 4)
_SPLIT_WEIGHTS = (6, 6, 3, 3, 2)


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
    cells: defaultdict[BaselineKey, list[int]] = defaultdict(list)
    for _, year, _, citations, categories, _, _ in corpus.publications:
        for category, _ in categories:
            cells[year, category].append(citations)
    divisors: dict[BaselineKey, float] = {}
    for key, citations in sorted(cells.items()):
        median = float(statistics.median(citations))
        divisors[key] = median if median > 0 else statistics.fmean(citations)
    return divisors


@functools.cache
def class_numerators(n: int, life_science: bool, shared_first_last: bool) -> tuple[tuple[int, ...], int]:
    """Per-slot weights of the first, last, second, second-to-last and other positions of a byline of ``n``.

    They come as integer numerators over one common denominator.  Outside
    the life sciences every slot weighs 1/n.  A life-science position takes
    the first of those classes it qualifies for; in the shared first/last
    branch the second, second-to-last and other positions share the one
    middle weight.  When a byline is too short for some class to have any
    member, that class weighs 0 and its weight is redistributed
    proportionally over the occupied classes, so the weights of the ``n``
    positions always sum to 1.
    """
    if not life_science:
        return (1, 1, 1, 1, 1), n
    if shared_first_last:
        weights, sizes = _SHARED_WEIGHTS, (1, min(n - 1, 1), max(n - 2, 0))
    else:
        weights, sizes = _SPLIT_WEIGHTS, (1, min(n - 1, 1), int(n >= 3), int(n >= 4), max(n - 4, 0))
    occupied_total = sum(weight for weight, size in zip(weights, sizes) if size)
    # A class of `size` slots gives each weight / (occupied_total * size).
    denominator = math.lcm(*(occupied_total * size for size in sizes if size))
    numerators = [
        weight * denominator // (occupied_total * size) if size else 0 for weight, size in zip(weights, sizes)
    ]
    if shared_first_last:
        numerators += numerators[2:] * 2  # the middle weight for second, second-to-last and other
    return tuple(numerators), denominator


def credit_shares(corpus: Corpus, baselines: Mapping[BaselineKey, float]) -> list[CreditShare]:
    """Standardize every publication and split its value over its domestic (university, SDS) groups.

    A publication is life-science when any of its categories is
    (:meth:`Taxonomy.is_life_science_publication`).  Its shared first/last
    branch applies exactly when the first and last authors belong to the
    same known university.  Unlisted byline positions are implicit external
    co-authors, and the weight of every external slot stays in the
    residual.  Shares come in ``pub_id`` order, then in (university, SDS)
    order.
    """
    is_life_science = corpus.taxonomy.is_life_science_publication
    shares: list[CreditShare] = []
    append = shares.append
    new = tuple.__new__
    for pub in corpus.publications:  # sorted by pub_id
        pub_id, year, _, citations, categories, authors, n = pub
        value = 0.0
        for category, weight in categories:
            divisor = baselines[year, category]
            if divisor:  # a zero divisor's cell holds only zero-citation publications, whose term is 0
                value += weight * (citations / divisor)
        life_science = is_life_science(pub)
        first, last = authors[0], authors[-1]  # slots come in byline order
        shared = life_science and first[0] == 1 and last[0] == n and first[1] is not None and first[1] == last[1]
        (first_num, last_num, second_num, second_last_num, other_num), denominator = (
            class_numerators(n, life_science, shared)
        )
        numerators: dict[tuple[str, str], int] = {}
        for position, university, sds, domestic in authors:
            if not domestic:
                continue
            if position == 1:
                numerator = first_num
            elif position == n:
                numerator = last_num
            elif position == 2:
                numerator = second_num
            elif position == n - 1:
                numerator = second_last_num
            else:
                numerator = other_num
            group = (university, sds)
            numerators[group] = numerators.get(group, 0) + numerator
        # int / int is correctly rounded, so the float equals that of the exact Fraction sum.
        for (university, sds), numerator in sorted(numerators.items()):
            append(new(CreditShare, (pub_id, university, sds, numerator / denominator, value)))
    return shares
