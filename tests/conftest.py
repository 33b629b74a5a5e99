"""Shared fixture helpers: corpus CSV files from rows or a loaded corpus, input faults from the column table,
credit tables as rows, and reference credit per publication."""

from __future__ import annotations

from array import array
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest

from bibliorank.corpus import SCHEMAS, Corpus, CorpusPaths, PublicationRecord, Taxonomy, write_csv
from bibliorank.scoring import CreditTable


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
            (p.pub_id, p.year, "article", p.citations, p.total_author_count) for p in corpus.publications
        ),
        "pub_categories": ((p.pub_id, *item) for p in corpus.publications for item in p.categories),
        "pub_authors": (
            (p.pub_id, slot.position, slot.university_id is not None, slot.university_id, slot.sds_id)
            for p in corpus.publications
            for slot in p.authors
        ),
        "staff": corpus.staff,
        "taxonomy": ((sds, uda, False) for sds, uda in taxonomy.sds_to_uda.items()),
        "macro_map": taxonomy.uda_to_macro.items(),
        "peer_outcomes": corpus.peer_outcomes,
        "indicators": (
            (t.indicator_name, t.direction, *item) for t in corpus.indicators for item in t.values.items()
        ),
        "categories": ((cat, cat in taxonomy.life_science_categories) for cat in categories),
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


class Fault(NamedTuple):
    """A bad value for one column of a file, and the message that a row holding it must fail with."""

    stem: str
    column: str
    label: str
    value: str | None  # None: the row repeats the key of an earlier row, or holds a value other than its group's
    message: str  # for those two, the message up to the key or the values, which follow it

    def applies(self, fields: list[str], index: int) -> bool:
        """Whether :func:`spoil` makes a fault of row ``index``, holding ``fields``.

        A repeated key or group value needs an earlier row, and a blanked
        value needs one that is set.
        """
        if self.value is None:
            return index > 0
        column = SCHEMAS[self.stem].index(self.column)
        return bool(self.value or SCHEMAS[self.stem][column].blank_when is None or fields[column].strip())


def column_faults(stem: str, window_len: int) -> list[Fault]:
    """Every fault that the ``SCHEMAS`` row of each column of ``stem`` implies, in schema order.

    Each kind has its bad values (empty, of the wrong type, not finite), each
    bound a value just outside it, each reference an unknown value, and the
    file's last key column a repeated key.  A ``blank_when`` column is
    blanked where it must be set, and a ``per`` column given a value other
    than its group's.  Every column refuses a byte that is not UTF-8.
    """
    columns = SCHEMAS[stem]
    key = [spec for spec in columns if spec.key]
    key_name = key[0] if len(key) == 1 else f"({', '.join(key)})"
    faults: list[Fault] = []
    for spec in columns:
        kind, name = spec.kind, str(spec)
        found = [("not UTF-8", "x\udce9", "not UTF-8: byte 0xe9 (invalid continuation byte)")]
        if kind == "id" and not spec.optional or isinstance(kind, tuple):
            found.append(("empty", "", f"{name} must not be empty"))
        if isinstance(kind, tuple):
            found.append(("not a choice", "x", f"{name} must be one of {kind}, got 'x'"))
        elif kind == "bool":
            wrong = [("empty", ""), ("not a bool", "maybe")]
            found += [(label, raw, f"{name} must be true/false, got {raw!r}") for label, raw in wrong]
        elif kind == "int":
            wrong = [("not an integer", "1.5")] if spec.optional else [("empty", ""), ("not an integer", "1.5")]
            found += [(label, raw, f"{name} must be an integer, got {raw!r}") for label, raw in wrong]
            low, high = spec.bounds or (None, None)
            if low is not None:
                found.append(("below the minimum", str(low - 1), f"{name} must be >= {low}, got {low - 1}"))
            if high is not None:
                found.append(("above the maximum", str(high + 1), f"{name} must be <= {high}, got {high + 1}"))
        elif kind == "float":
            wrong = [("empty", ""), ("not a number", "x")]
            found += [(label, raw, f"{name} must be a number, got {raw!r}") for label, raw in wrong]
            found += [(raw, raw, f"{name} must be finite, got {raw!r}") for raw in ("inf", "nan")]
            if spec.bounds:
                interval = spec.bounds.replace("window", str(window_len))
                low, high = map(float, interval[1:-1].split(", "))
                outside = [low - 1, *([low] if interval[0] == "(" else []), high + 1]
                found += [
                    (f"{value:g} outside {interval}", f"{value:g}", f"{name} must be in {interval}, got {value:g}")
                    for value in outside
                ]
        if spec.ref:
            found.append(("unknown reference", "ZZ_UNKNOWN", f"unknown {name} 'ZZ_UNKNOWN'"))
        if spec.blank_when is not None:
            column, value = spec.blank_when
            found.append(("blank where set", "", f"{name} must not be empty unless {column} is {value!r}"))
        if spec.per is not None:
            found.append(("another group value", None, f"{name} must be "))
        if spec is key[-1]:
            found.append(("repeated key", None, f"duplicate {key_name} "))
        faults += [Fault(stem, name, label, raw, message) for label, raw, message in found]
    return faults


def spoil(fault: Fault, fields: list[str], earlier: list[str]) -> tuple[list[str], str]:
    """The row ``fields`` with ``fault`` in it, and its whole message.

    A repeated key is copied from ``earlier``; a group value fault takes
    the group of ``earlier`` and another of its column's choices.
    """
    columns = SCHEMAS[fault.stem]
    index = columns.index(fault.column)
    if fault.value is not None:
        return [*fields[:index], fault.value, *fields[index + 1:]], fault.message
    spec = columns[index]
    if spec.per is not None:
        fields = [old if column in spec.per else new for column, old, new in zip(columns, earlier, fields)]
        first = earlier[index].strip()
        fields[index] = next(choice for choice in spec.kind if choice != first)
        where = "".join(f" for {column} {earlier[columns.index(column)].strip()!r}" for column in spec.per)
        return fields, fault.message + f"{first!r}{where or ' throughout the file'}, got {fields[index]!r}"
    fields = [old if spec.key else new for spec, old, new in zip(columns, earlier, fields)]
    key = tuple(int(raw) if spec.kind == "int" else raw.strip() for spec, raw in zip(columns, fields) if spec.key)
    return fields, fault.message + repr(key[0] if len(key) == 1 else key)


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
        if slot.university_id is not None:
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


class Share(NamedTuple):
    """One credit share: the fraction of a publication's standardized value that a (university, SDS) group owns."""

    university_id: str
    sds_id: str
    fraction: float
    standardized_value: float


def share_rows(table: CreditTable) -> list[Share]:
    """The shares of ``table``, in its order, read from its columns."""
    groups = list(table.groups)  # in code order
    columns = zip(table.codes, table.fractions, table.values)
    return [Share(*groups[code], fraction, value) for code, fraction, value in columns]


def credit_table(shares: Iterable[tuple]) -> CreditTable:
    """The table of ``shares``, (university_id, sds_id, fraction, standardized_value) rows, in their order."""
    table = CreditTable({}, array("q"), array("d"), array("d"))
    for university, sds, fraction, value in shares:
        table.codes.append(table.groups.setdefault((university, sds), len(table.groups)))
        table.fractions.append(fraction)
        table.values.append(value)
    return table


def share_pub_ids(corpus: Corpus) -> list[str]:
    """The pub id of each of the corpus's credit shares, in table order: one per domestic group of a publication."""
    return [
        pub.pub_id for pub in corpus.publications
        for _ in {(slot.university_id, slot.sds_id) for slot in pub.authors if slot.university_id is not None}
    ]


def reference_credit_shares(corpus: Corpus, baselines: dict[tuple[int, str], float]) -> list[Share]:
    """The rows of ``scoring.credit_shares`` computed publication by publication with ``Fraction`` weights."""
    return [
        Share(university, sds, fraction, reference_standardized_value(pub, baselines))
        for pub in corpus.publications
        for (university, sds), fraction in reference_author_fractions(pub, corpus.taxonomy).items()
    ]
