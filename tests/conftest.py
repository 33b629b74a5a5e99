"""Shared fixture helpers: corpus CSV files from rows or a loaded corpus, and reference credit per publication."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Iterable

import pytest

from bibliorank.corpus import Corpus, CorpusPaths, PublicationRecord, Taxonomy, write_csv
from bibliorank.scoring import CreditShare


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


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_corpus(corpus: Corpus, out_dir: Path | str) -> None:
    """Write the corpus back to the canonical CSV files under ``out_dir``.

    Emission is deterministic; reloading yields an equal corpus.
    """
    taxonomy = corpus.taxonomy
    categories = sorted(
        {cat for p in corpus.publications for cat, _ in p.categories} | set(taxonomy.life_science_categories)
    )
    tables: dict[str, Iterable[tuple]] = {
        "publications": (
            (p.pub_id, p.year, p.doc_type, p.citations, p.total_author_count) for p in corpus.publications
        ),
        "pub_categories": ((p.pub_id, cat, _fmt(w)) for p in corpus.publications for cat, w in p.categories),
        "pub_authors": (
            (
                p.pub_id,
                "" if slot.position is None else slot.position,
                "true" if slot.is_domestic_academic else "false",
                slot.university_id or "",
                slot.sds_id or "",
            )
            for p in corpus.publications
            for slot in p.authors
        ),
        "staff": ((e.researcher_id, e.university_id, e.sds_id, _fmt(e.years_on_staff)) for e in corpus.staff),
        "taxonomy": (
            (sds, uda, "true" if sds in taxonomy.life_science_sds else "false")
            for sds, uda in taxonomy.sds_to_uda.items()
        ),
        "macro_map": taxonomy.uda_to_macro.items(),
        "peer_outcomes": ((o.university_id, o.uda_id, o.E, o.G, o.A, o.L) for o in corpus.peer_outcomes),
        "indicators": (
            (t.indicator_name, t.direction, university, _fmt(value))
            for t in corpus.indicators
            for university, value in t.values.items()
        ),
        "categories": (
            (cat, "true" if cat in taxonomy.life_science_categories else "false") for cat in categories
        ),
    }
    paths = CorpusPaths.from_dir(out_dir)
    for stem, rows in tables.items():
        write_csv(getattr(paths, stem), stem, rows)


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


def reference_author_fractions(pub: PublicationRecord, taxonomy: Taxonomy) -> dict[tuple[str, str], float]:
    """Fraction of the publication owned by each domestic (university, SDS) group, one publication at a time.

    Outside the life sciences each of the ``total_author_count`` slots
    weighs 1/n.  A life-science publication weighs slots by position with
    :func:`reference_position_weights`; the shared first/last branch
    applies exactly when the first and last authors belong to the same
    known university.
    Unlisted and external slots leave their weight in the residual.
    """
    n = pub.total_author_count
    life_science = taxonomy.is_life_science_publication(pub)
    if life_science:
        by_position = {slot.position: slot for slot in pub.authors}
        first, last = by_position.get(1), by_position.get(n)
        shared = (
            first is not None
            and last is not None
            and first.university_id is not None
            and first.university_id == last.university_id
        )
        position_weights = reference_position_weights(n, shared)
    weights: dict[tuple[str, str], Fraction] = {}
    for slot in pub.authors:
        if slot.is_domestic_academic:
            key = (slot.university_id, slot.sds_id)
            weight = position_weights[slot.position] if life_science else Fraction(1, n)
            weights[key] = weights.get(key, Fraction(0)) + weight
    return {key: float(weight) for key, weight in sorted(weights.items())}


def reference_standardized_value(pub: PublicationRecord, baselines: dict[tuple[int, str], float]) -> float:
    """Weighted average of the per-category standardized citations, summed in the stored category order."""
    total = 0.0
    for category, weight in pub.categories:
        divisor = baselines[pub.year, category]
        if divisor:  # a zero divisor's cell holds only zero-citation publications, whose term is 0
            total += weight * (pub.citations / divisor)
    return total


def reference_credit_shares(corpus: Corpus, baselines: dict[tuple[int, str], float]) -> list[CreditShare]:
    """``scoring.credit_shares`` computed publication by publication with ``Fraction`` weights."""
    return [
        CreditShare(pub.pub_id, university, sds, fraction, reference_standardized_value(pub, baselines))
        for pub in corpus.publications
        for (university, sds), fraction in reference_author_fractions(pub, corpus.taxonomy).items()
    ]
