"""Peer-review quality ratings and within-category percentile ranking.

The rating of a (university, UDA) cell is the grade-weighted average of
its submitted outputs: excellent 1.0, good 0.8, acceptable 0.6, limited
0.2.  Ratings are compared exactly (as integer rationals) when forming
percentile tie blocks, so equal ratings computed from different grade
mixes land in the same block regardless of float rounding.

Percentile convention: with n ranked universities, a university at
competition position ``pos`` scores 100*(n-pos)/(n-1).  Every member of
the top-rated tie block reports 100; members of any other tie block all
report the block's worst position.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import SCHEMAS, PeerOutcome, read_rows, write_csv


RatedOutcome = namedtuple("RatedOutcome", SCHEMAS["rated"])  # the rating and category percentile of one cell


def rating_key(outcome: PeerOutcome) -> Fraction:
    """Exact rational value of the quality rating, used for tie grouping."""
    # E + 0.8G + 0.6A + 0.2L over the output count, scaled to integers by 5
    total = outcome.E + outcome.G + outcome.A + outcome.L
    return Fraction(5 * outcome.E + 4 * outcome.G + 3 * outcome.A + outcome.L, 5 * total)


def vtr_rating(outcome: PeerOutcome) -> float:
    """Quality rating in [0.2, 1]: (E + 0.8G + 0.6A + 0.2L) / (E + G + A + L)."""
    return float(rating_key(outcome))


def category_percentile(ratings: Sequence[tuple[str, object]]) -> dict[str, float]:
    """Percentile rank per entity from (entity_id, rating) pairs.

    Ratings are compared with ``==`` as given, so pass exact values
    (Fractions or identically computed floats) when ties matter.
    A single entity, like every member of the top tie block, rates 100.
    """
    n = len(ratings)
    ordered = sorted(ratings, key=lambda item: item[0])
    ordered.sort(key=lambda item: item[1], reverse=True)
    blocks: list[list[str]] = []
    previous = None
    for entity, value in ordered:
        if blocks and value == previous:
            blocks[-1].append(entity)
        else:
            blocks.append([entity])
            previous = value
    percentiles: dict[str, float] = {}
    position = 0
    for index, block in enumerate(blocks):
        position += len(block)  # worst position within the block
        for entity in block:
            percentiles[entity] = 100.0 if index == 0 else 100.0 * (n - position) / (n - 1)
    return percentiles


def rate_outcomes(outcomes: Iterable[PeerOutcome]) -> list[RatedOutcome]:
    """Rate every outcome and rank universities within each UDA."""
    by_uda: dict[str, list[PeerOutcome]] = {}
    for outcome in outcomes:
        by_uda.setdefault(outcome.uda_id, []).append(outcome)
    rated: list[RatedOutcome] = []
    for uda in sorted(by_uda):
        keys = {o.university_id: rating_key(o) for o in by_uda[uda]}
        percentiles = category_percentile(sorted(keys.items()))
        for university in sorted(keys):
            rated.append(
                RatedOutcome(university, uda, float(keys[university]), percentiles[university])
            )
    rated.sort(key=lambda r: (r.uda_id, -r.R, r.university_id))
    return rated


def pooled_university_ratings(outcomes: Iterable[PeerOutcome]) -> dict[str, float]:
    """University-level rating: pool every UDA cell's grade counts and re-rate.

    Pooling is equivalent to averaging the per-UDA ratings weighted by
    submitted-output counts.
    """
    pooled: dict[str, list[int]] = {}
    for outcome in outcomes:
        counts = pooled.setdefault(outcome.university_id, [0, 0, 0, 0])
        counts[0] += outcome.E
        counts[1] += outcome.G
        counts[2] += outcome.A
        counts[3] += outcome.L
    return {
        university: vtr_rating(PeerOutcome(university, "*", *counts))
        for university, counts in sorted(pooled.items())
    }


def write_rated_csv(rated: Iterable[RatedOutcome], path) -> None:
    write_csv(path, "rated", rated)


def read_rated_csv(path: Path) -> list[RatedOutcome]:
    """Read ratings written by :func:`write_rated_csv`: one per (university, UDA), each percentile in [0, 100]."""
    rated: list[RatedOutcome] = []
    for _, columns in read_rows(path, "rated"):
        rated.extend(map(RatedOutcome, *columns))
    return rated
