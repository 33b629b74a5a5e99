"""Shared fixture helpers: write corpus CSV files from row tuples."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from bibliorank.corpus import write_csv


def write_file(directory: Path, name: str, rows: list[tuple]) -> Path:
    """Write ``rows`` under the header that ``bibliorank.corpus.SCHEMAS`` gives the file's stem."""
    path = directory / name
    write_csv(path, path.stem, rows)
    return path


def write_corpus(
    directory: Path,
    publications: list[tuple],
    pub_categories: list[tuple],
    pub_authors: list[tuple],
    staff: list[tuple],
    taxonomy: list[tuple],
    macro_map: list[tuple] | None = None,
    categories: list[tuple] | None = None,
    peer_outcomes: list[tuple] | None = None,
    indicators: list[tuple] | None = None,
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    write_file(directory, "publications.csv", publications)
    write_file(directory, "pub_categories.csv", pub_categories)
    write_file(directory, "pub_authors.csv", pub_authors)
    write_file(directory, "staff.csv", staff)
    write_file(directory, "taxonomy.csv", taxonomy)
    if macro_map is not None:
        write_file(directory, "macro_map.csv", macro_map)
    if categories is not None:
        write_file(directory, "categories.csv", categories)
    if peer_outcomes is not None:
        write_file(directory, "peer_outcomes.csv", peer_outcomes)
    if indicators is not None:
        write_file(directory, "indicators.csv", indicators)
    return directory


def minimal_rows() -> dict[str, list[tuple]]:
    """Smallest valid corpus: one publication by one researcher."""
    return {
        "publications": [("P1", 2001, "article", 4, 1)],
        "pub_categories": [("P1", "C1", "1.0")],
        "pub_authors": [("P1", 1, "true", "U1", "S1")],
        "staff": [("R1", "U1", "S1", "3.0")],
        "taxonomy": [("S1", "UDA1", "false")],
    }


@pytest.fixture
def minimal_corpus_dir(tmp_path: Path) -> Path:
    return write_corpus(tmp_path / "corpus", **minimal_rows())


def reference_position_weights(n: int, shared: bool) -> dict[int, Fraction]:
    """Life-science weight of every byline position, built position by position as the method states it.

    Classes, in units of 1/20: shared first/last university -> 8 first, 8 last,
    4 spread over the middle; otherwise 6 first, 6 last, 3 second, 3
    second-to-last, 2 spread over the rest.  A position joins the first class
    it qualifies for, and the weight of a class with no member is spread
    proportionally over the others.
    """
    if shared:
        classes = {"first": 8, "last": 8, "middle": 4}
    else:
        classes = {"first": 6, "last": 6, "second": 3, "second_last": 3, "rest": 2}
    members: dict[str, list[int]] = {name: [] for name in classes}
    for position in range(1, n + 1):
        if position == 1:
            name = "first"
        elif position == n:
            name = "last"
        elif shared:
            name = "middle"
        elif position == 2:
            name = "second"
        elif position == n - 1:
            name = "second_last"
        else:
            name = "rest"
        members[name].append(position)
    occupied = sum(Fraction(weight, 20) for name, weight in classes.items() if members[name])
    return {
        position: Fraction(classes[name], 20) / occupied / len(positions)
        for name, positions in members.items()
        for position in positions
    }
