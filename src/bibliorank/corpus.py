"""Input corpus: publications, staff roster, taxonomy, peer outcomes, indicators.

All inputs and outputs are comma-delimited UTF-8 CSV files with a header
row.  :data:`SCHEMAS`, keyed by file stem, is the one table of their
columns: the name, kind, bounds, reference and key part of each column
(:class:`ColumnSpec`).  Every reader and writer looks its file up there:
:func:`write_csv` writes each value as its column's kind says, and writers
pass it their records.
The corpus files are:

    publications      indexed outputs with their citations and byline length
    pub_categories    subject categories of each publication, with weights
    pub_authors       listed byline slots
    staff             researcher-university-SDS affiliations
    taxonomy          SDS -> UDA map; its life-science flag is checked, not used
    macro_map         UDA -> macro-UDA map
    peer_outcomes     peer-review grade counts per (university, UDA)
    indicators        external indicator values per university
    categories        life-science flag per subject category

The first five files are required; the rest are optional and default to
empty.  In ``pub_authors.csv`` the university/sds fields are set exactly
on domestic slots, empty for external (non-domestic) co-authors, and
``position`` may be empty when byline order is unknown.  The loader checks
``is_domestic_academic`` against them but does not keep it: a loaded slot
is domestic exactly when it has a university.  Likewise a publication's
``doc_type`` is checked but not kept.  Author slots not listed at all are
implicit anonymous external co-authors; ``total_author_count`` is always
the full byline length.

The pipeline derives four more: ``scores`` (productivity per university
and unit at one level), ``eligibility`` (active staff share per SDS),
``rated`` (peer rating and category percentile per cell) and ``ranking``
(tie-averaged ranks of one indicator).

Every file goes through one reader, :func:`read_rows`, which checks it
against its table entry and yields its rows in blocks of
:data:`BLOCK_ROWS`, so a read holds one block of raw rows, never a whole
file.  A block is checked column by column in schema order.  A
:class:`Column` parses each distinct raw value once and gives every row
holding it the one resulting object.  The column's values are then looked
up in the column they reference, when the caller has read that one; a
column blank exactly when an earlier one holds a given value, or holding
one value per group of rows, is checked against them; and once the last
key column is parsed the file's key is checked.  While the first key
column never decreases, as in every file synth writes, a key can only
repeat one of the current run of that column's value, so the key check
holds only that run's keys, beside references to the key columns read so
far; the first decrease builds the set of every key read from them, and
from then on the check holds every key.  Last, a loader may pass a
predicate for the rules that only its file has: a position within its
byline, a domestic slot's staff entry, a graded peer outcome.  A block is
yielded only once it has passed every check, and only then does the reader
keep what later blocks are checked against, their keys and each group's
value, so the loaders only collect columns.  A bad value gets its kind's
message, such as ``citations must be >= 0, got -1``; an unknown reference
reads ``unknown {column} {value!r}`` and a repeated key
``duplicate {key columns} {key!r}``.  Each university, SDS, category,
researcher and publication id is one shared ``str`` across all files, so
the scoring dicts keyed on ids hash and compare them cheaply.  A byte that
is not UTF-8 is one more bad value: files are decoded with
``surrogateescape``, and a :class:`Column` refuses a new raw value that is
not ASCII unless it re-encodes to valid UTF-8.  Only when a block fails its
checks are its rows checked again, one at a time, each passing row yielded
alone, to find the first bad row.  Loading is fail-fast: the first
violation in file order raises :class:`ValidationError` naming the file
and line, with the message of the first check that row fails.  The records
(:class:`AuthorSlot`, :class:`PublicationRecord`, :class:`StaffEntry`,
:class:`PeerOutcome`, :class:`IndicatorTable`), :class:`Taxonomy` and
:class:`Corpus` are named tuples, cheap to define when a process starts.
A record whose fields are exactly a file's columns is built from that
file's ``SCHEMAS`` row, so its layout is declared once:
:class:`StaffEntry` and :class:`PeerOutcome` here,
``peer_rating.RatedOutcome`` and ``rankcmp.RankEntry``.  A loaded corpus
is read-only: setting one of its attributes raises ``AttributeError``.  It
is safe for unrestricted concurrent reads.

Records are immutable, so equal ones can be one object, as equal field
values are.  Records repeat far more than the rows do, so the publication
loader keeps one object per distinct :class:`AuthorSlot`, per distinct
(year, citations, total) head and per distinct (category_id, weight)
item, through memo dicts that live for one load and see only rows that
passed their block's checks.  The loader then groups the rows of the two
per-publication files by pub id, finding each publication's rows by
bisection on the ordered pub ids.  Synth writes both files in pub-id
order, and rows already in that order are grouped as they are, without the
sort index and reordered copies that any other order needs.  Grouping goes
in stages, each freeing what the next does not read: the heads are listed
in pub-id order and the pub-id map and the memos dropped; each
publication's categories are checked and made one sorted tuple, and the
category rows dropped; each byline is checked and sorted, and the slot
rows dropped; last the records are built and the window and
domestic-author filters applied.  A stage stops at its first faulty
publication and the next checks only those before it, so the error is the
first failing check of the first failing publication in pub-id order.

Each rule on outside input is checked once, where the input is read: by
the loaders here, ``productivity.read_score_csv``,
``rankcmp.read_ranking_csv``, ``peer_rating.read_rated_csv`` and the
``cli.parse_*`` casts.  The scoring, rating and ranking code relies on
these invariants and does not check them again:

- the window's end year is not before its start year;
- every citation count is an integer in [0, :data:`MAX_COUNT`];
- every ``total_author_count`` lies in [1, :data:`MAX_COUNT`], and every listed position
  lies in 1..``total_author_count`` and is unique within its publication;
- every listed author slot of a life-science publication has a position;
- a publication's listed slots are in byline order: known positions
  ascending, then any slots of unknown position;
- a kept publication has at least one domestic author slot, and every
  domestic slot's (university, SDS) has a staff entry;
- an external author slot carries no university or SDS;
- every staff entry's SDS has a UDA in the taxonomy, and every macro-map
  UDA is in the taxonomy;
- every category of a publication is listed in ``categories.csv``, when
  that file exists, and its weights are in (0, 1] and sum to 1;
- ``years_on_staff`` lies in (0, window length];
- every peer outcome has at least one graded output, and each
  (university, UDA) has one outcome; loaded with the corpus, its university
  is on the staff roster and its UDA is in the taxonomy;
- every indicator has one direction, from :data:`DIRECTIONS`;
- a score table holds one level, from :data:`LEVELS`; a ranking's
  ranks are the tie-averaged positions of its scores;
- every top-k percentage lies in (0, 100], and the output format is one of
  ``cli.FORMATS``.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from contextlib import contextmanager
from itertools import compress, islice, repeat
from operator import eq, is_, is_not, itemgetter, le, not_
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import ValidationError

DOC_TYPES = ("article", "review", "proceedings")
HIGHER_IS_BETTER = "higher_is_better"
LOWER_IS_BETTER = "lower_is_better"
DIRECTIONS = (HIGHER_IS_BETTER, LOWER_IS_BETTER)
LEVELS = ("sds", "uda", "macro", "university")

WEIGHT_SUM_TOL = 1e-9

# Largest citation count and byline length read.  Up to 2**53 every count converts to float
# exactly, and no corpus-sized sum of counts can overflow a float.
MAX_COUNT = 2**53

# Observation window (first and last year) and top-k percentages a run uses when none are given.
DEFAULT_WINDOW = (2001, 2003)
DEFAULT_PERCENTAGES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)


class ColumnSpec(str):
    """One column of a CSV file: a ``str``, the column's header name, that carries the rules on its values.

    ``kind`` is ``"id"`` (stripped, not empty), ``"text"`` (stripped),
    ``"int"``, ``"float"`` (finite), ``"bool"`` or a tuple of choices.  An
    int's ``bounds`` are (minimum, maximum), ``None`` for no bound; a float's
    are its interval as the message writes it, ``"window"`` standing for the
    window length.  An ``optional`` column reads a blank value as ``None``.
    Every value of a column with a ``ref``, but a blank optional one, must be
    one of the values of that ``file.column``, when the reader is given them.
    The ``key`` columns of a file together hold no value twice.  A column
    with ``blank_when=(column, value)`` is blank exactly in the rows where
    that earlier column holds ``value``.  A column with ``per``, a tuple of
    earlier column names, holds one value in all rows that agree on those
    columns; ``per=()`` is one value throughout the file.
    :func:`write_csv` writes a bool as ``true``/``false``, ``None`` as an
    empty field and any other value with ``str``, so a float as its shortest
    repr, which reads back bit for bit.
    """

    def __new__(
        cls, name: str, kind: str | tuple[str, ...], bounds: Any = None, optional: bool = False,
        ref: str | None = None, key: bool = False, blank_when: tuple[str, Any] | None = None,
        per: tuple[str, ...] | None = None,
    ) -> ColumnSpec:
        spec = super().__new__(cls, name)
        spec.kind, spec.bounds, spec.optional, spec.ref, spec.key = kind, bounds, optional, ref, key
        spec.blank_when, spec.per = blank_when, per
        return spec


_C = ColumnSpec
SCHEMAS: dict[str, tuple[ColumnSpec, ...]] = {
    "publications": (
        _C("pub_id", "id", key=True), _C("year", "int"), _C("doc_type", DOC_TYPES),
        _C("citations", "int", (0, MAX_COUNT)), _C("total_author_count", "int", (1, MAX_COUNT)),
    ),
    "pub_categories": (
        _C("pub_id", "id", ref="publications.pub_id", key=True),
        _C("category_id", "id", ref="categories.category_id", key=True),
        _C("weight", "float", "(0, 1]"),
    ),
    "pub_authors": (
        _C("pub_id", "id", ref="publications.pub_id", key=True),
        _C("position", "int", (1, None), optional=True, key=True),
        _C("is_domestic_academic", "bool"),
        _C("university_id", "id", optional=True, ref="staff.university_id", blank_when=("is_domestic_academic", False)),
        _C("sds_id", "id", optional=True, ref="taxonomy.sds_id", blank_when=("is_domestic_academic", False)),
    ),
    "staff": (
        _C("researcher_id", "id", key=True), _C("university_id", "id", key=True),
        _C("sds_id", "id", ref="taxonomy.sds_id", key=True), _C("years_on_staff", "float", "(0, window]"),
    ),
    "taxonomy": (_C("sds_id", "id", key=True), _C("uda_id", "id"), _C("is_life_science", "bool")),
    "macro_map": (_C("uda_id", "id", ref="taxonomy.uda_id", key=True), _C("macro_id", "id")),
    "peer_outcomes": (
        _C("university_id", "id", ref="staff.university_id", key=True),
        _C("uda_id", "id", ref="taxonomy.uda_id", key=True),
        *(_C(grade, "int", (0, None)) for grade in ("E", "G", "A", "L")),
    ),
    "indicators": (
        _C("indicator_name", "id", key=True), _C("direction", DIRECTIONS, per=("indicator_name",)),
        _C("university_id", "id", key=True), _C("value", "float"),
    ),
    "categories": (_C("category_id", "id", key=True), _C("is_life_science", "bool")),
    "scores": (
        _C("level", LEVELS, per=()), _C("university_id", "id", key=True),
        _C("unit_id", "text", key=True, blank_when=("level", "university")),
        _C("P", "float"), _C("RS", "float"),
    ),
    "eligibility": (
        _C("sds_id", "id", key=True), _C("staff_count", "int"), _C("active_count", "int"),
        _C("active_fraction", "float"), _C("eligible", "bool"),
    ),
    "rated": (
        _C("university_id", "id", key=True), _C("uda_id", "id", key=True), _C("R", "float"),
        _C("category_percentile", "float", "[0, 100]"),
    ),
    "ranking": (_C("entity_id", "id", key=True), _C("score", "float"), _C("rank", "float")),
}


class AuthorSlot(NamedTuple):
    """One byline slot.  It is domestic exactly when it has a university; an external one has no university or SDS."""

    position: int | None
    university_id: str | None
    sds_id: str | None


class PublicationRecord(NamedTuple):
    """One indexed output with its citation count and byline.  Its ``doc_type`` is checked, not kept."""

    pub_id: str
    year: int
    citations: int
    categories: tuple[tuple[str, float], ...]  # (category_id, weight), weights sum to 1
    authors: tuple[AuthorSlot, ...]            # listed slots only, may omit externals
    total_author_count: int


StaffEntry = namedtuple("StaffEntry", SCHEMAS["staff"])  # one researcher-university-SDS affiliation over the window


class Taxonomy(NamedTuple):
    """SDS -> UDA -> macro-UDA hierarchy plus the life-science subject categories."""

    sds_to_uda: dict[str, str]
    uda_to_macro: dict[str, str]
    life_science_categories: frozenset[str]

    def is_life_science_publication(self, pub: PublicationRecord) -> bool:
        return not self.life_science_categories.isdisjoint(map(itemgetter(0), pub.categories))


PeerOutcome = namedtuple("PeerOutcome", SCHEMAS["peer_outcomes"])  # grade counts of one (university, UDA) cell


class IndicatorTable(NamedTuple):
    """One externally sourced indicator with its ranking direction."""

    indicator_name: str
    direction: str  # HIGHER_IS_BETTER or LOWER_IS_BETTER
    values: dict[str, float]  # university_id -> value


class Corpus(NamedTuple):
    """Cross-validated, immutable snapshot of all inputs for one window.

    ``staff`` is sorted by (researcher_id, university_id, sds_id), so each
    researcher's affiliations are adjacent; eligibility counting relies on it.
    """

    window: tuple[int, int]
    publications: tuple[PublicationRecord, ...]
    staff: tuple[StaffEntry, ...]
    taxonomy: Taxonomy
    peer_outcomes: tuple[PeerOutcome, ...]
    indicators: tuple[IndicatorTable, ...]
    rejected_out_of_window: int = 0
    rejected_no_domestic: int = 0

    @property
    def rejected_count(self) -> int:
        return self.rejected_out_of_window + self.rejected_no_domestic

    def universities(self) -> list[str]:
        return sorted({e.university_id for e in self.staff})


class CorpusPaths:
    """The path of each corpus file under one directory: one attribute per file stem, in ``SCHEMAS`` order."""

    publications: Path
    pub_categories: Path
    pub_authors: Path
    staff: Path
    taxonomy: Path
    macro_map: Path
    peer_outcomes: Path
    indicators: Path
    categories: Path

    @classmethod
    def from_dir(cls, root: Path | str) -> CorpusPaths:
        root = Path(root)
        paths = cls()
        for stem in cls.__annotations__:
            setattr(paths, stem, root / f"{stem}.csv")
        return paths


# ---------------------------------------------------------------------------
# CSV primitives

# Data rows per block.  A read holds one block of raw rows at a time, so its
# memory beyond what the loaders keep stays bounded whatever the file size.
BLOCK_ROWS = 4096


class RowFault(Exception):
    """A failed block check.

    :func:`read_rows` reports only the fault of a one-row block, as
    ``file:line: message``, so a check words its message for its one row.
    """


def read_rows(
    path: Path, schema: str, required: bool = True, ids: dict[str, str] | None = None,
    known: Mapping[str, Collection] = {}, window_len: int | None = None,
    check: Callable[[list[list]], None] | None = None,
) -> Iterator[tuple[Sequence[int], list[list]]]:
    """Yield the data rows of ``path``, checked against ``SCHEMAS[schema]``, as (lines, columns) blocks.

    ``lines[i]`` is the file line of row ``i``, and ``columns`` holds each
    column's parsed values, in schema order.  Optional files that do not
    exist give no blocks; existing files must carry exactly the header
    ``SCHEMAS[schema]``.  Blank lines are skipped.  A row with the wrong
    number of fields, a record spanning more than one line (a line break
    inside a quoted field) and a field over the csv module's size limit are
    refused.  A byte that is not UTF-8 reads as a lone surrogate, which the
    :class:`Column` parsing its field refuses as a bad value.  Each block of
    up to :data:`BLOCK_ROWS` rows is checked column by column in schema
    order: each column is parsed, then its values but the blank optional
    ones are looked up in ``known[spec.ref]`` when the caller gave that, then
    its ``blank_when`` and ``per`` rules are checked, and once the last key
    column is parsed the file's key is checked.  Ids are shared through
    ``ids``, and a ``"window"`` bound is ``window_len``.  Last, ``check``,
    when given, gets the parsed columns; it raises :class:`RowFault` for a
    block with a bad row and keeps nothing.  A block is yielded only once it
    has passed every check, and only then are its keys and group values
    kept for the checks of later rows.  A block that fails is checked again
    row by row, each passing row yielded alone, and the error raised names
    the first bad line in file order, with the first check that line fails.
    The file is closed when the rows run out, on an error, and when the
    consumer closes or drops the generator.
    """
    columns = SCHEMAS[schema]
    name = path.name
    if not path.exists():
        if required:
            raise ValidationError(f"{name}: missing required input file")
        return
    width = len(columns)
    parsers = [_column(spec, {} if ids is None else ids, window_len) for spec in columns]
    key_index = [i for i, spec in enumerate(columns) if spec.key]
    optional_keys = [j for j, i in enumerate(key_index) if columns[i].optional]
    key_name = columns[key_index[0]] if len(key_index) == 1 else f"({', '.join(columns[i] for i in key_index)})"
    # While the first key column never decreases, a key can only repeat one of the current run of that column's
    # value (see the module docstring).
    seen: set | None = None  # every key of the rows kept so far, once the first key column has decreased
    read: list[list[list]] | None = []  # until then, the key columns of each block kept
    run: set | None = set()  # and the keys kept whose first column holds the last value kept
    run_value = None  # that value
    groups = {spec: {} for spec in columns if spec.per is not None}  # each group's value in the rows kept so far

    def check_block(raw_columns: list[tuple[str, ...]]) -> list[list]:
        nonlocal seen, read, run, run_value
        parsed: list[list] = []
        block_groups: dict[str, dict] = {}  # each ``per`` column's groups, with this block's
        for spec, parse, raw in zip(columns, parsers, raw_columns):
            values = parse(raw)
            if spec.ref in known:  # a blank optional id reads as None and refers to nothing
                check_known(filter(None, values), known[spec.ref], lambda value: f"unknown {spec} {value!r}")
            if spec.blank_when is not None:
                _check_blank_when(spec, values, parsed[columns.index(spec.blank_when[0])])
            if spec.per is not None:
                group_columns = [parsed[columns.index(column)] for column in spec.per]
                block_groups[spec] = _check_per(spec, values, group_columns, groups[spec])
            parsed.append(values)
            if len(parsed) == key_index[-1] + 1:
                key_columns = [parsed[i] for i in key_index]
                for j in optional_keys:  # a row whose optional key column is blank has no key
                    present = list(map(is_not, key_columns[j], repeat(None)))
                    key_columns = [list(compress(values, present)) for values in key_columns]
                first = key_columns[0]
                keys = first if len(key_columns) == 1 else list(zip(*key_columns))  # a one-column key is its value
                if seen is None and first and (
                    run_value is not None and first[0] < run_value or not all(map(le, first, islice(first, 1, None)))
                ):
                    seen = set()
                    for block_columns in read:
                        seen.update(block_columns[0] if len(block_columns) == 1 else zip(*block_columns))
                    read = run = None
                if len(set(keys)) != len(keys) or not (run if seen is None else seen).isdisjoint(keys):
                    raise RowFault(f"duplicate {key_name} {keys[0]!r}")
        if check is not None:
            check(parsed)
        if seen is not None:
            seen.update(keys)
        elif first:
            read.append(key_columns)
            if first[-1] != run_value:
                run, run_value = set(), first[-1]
            run.update(keys[bisect_left(first, run_value):])
        groups.update(block_groups)
        return parsed

    with _open_csv(path) as (reader, header):
        if tuple(header) != columns:
            raise ValidationError(
                f"{name}:1: expected header {','.join(columns)!r}, got {','.join(header)!r}"
            )
        last = 1  # the line the previous block ended on
        while True:
            rows: list[list[str]] = []
            fault = None
            try:
                rows.extend(islice(reader, BLOCK_ROWS))  # keeps the rows read before a csv.Error
            except csv.Error as exc:
                fault = f"{reader.line_num}: {exc}"
            count = len(rows)
            if fault is None and reader.line_num - last == count and {*map(len, rows)} <= {width}:
                lines: Sequence[int] = range(last + 1, reader.line_num + 1)
            else:
                rows, lines, fault = _split_at_fault(rows, last, width, fault)
            if rows:
                yield from _checked(name, check_block, lines, list(zip(*rows)))
            if fault is not None:
                raise ValidationError(f"{name}:{fault}")
            if count < BLOCK_ROWS:
                return
            last = reader.line_num


@contextmanager
def _open_csv(path: Path) -> Iterator[tuple[Any, list[str]]]:
    """Open ``path`` and read its header; a leading byte-order mark is skipped.

    A path that is not a regular file, an empty file and a bad header record, one with a byte
    that is not UTF-8 included, are refused.  Such a byte reads as a lone surrogate.
    """
    if not path.is_file():
        raise ValidationError(f"{path}: not a regular file")
    name = path.name
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValidationError(f"{name}:{reader.line_num}: {exc}") from None
        if header is None:
            raise ValidationError(f"{name}:1: empty file, header row required")
        if reader.line_num != 1:
            raise ValidationError(f"{name}:1: line break inside a field")
        try:
            _check_utf8(",".join(header))
        except ValueError as exc:
            raise ValidationError(f"{name}:1: {exc}") from None
        yield reader, header


def _check_utf8(raw: str) -> None:
    """Refuse a value that holds a byte that is not UTF-8, naming the byte as a strict decoder does.

    The byte after a value in its file is a comma, a quote or a line end, so
    the value is checked with a line end after it: a cut-off sequence then
    reads as an invalid continuation, wherever in the file it lies.
    """
    try:
        (raw + "\n").encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def _split_at_fault(
    rows: list[list[str]], last: int, width: int, fault: str | None
) -> tuple[list[list[str]], list[int], str | None]:
    """The well-formed rows before the first malformed one, their lines, and the fault to raise after them.

    Blank lines are dropped.  A record spans several lines exactly when a
    field holds a line break, so the first such record is the one that
    moved ``reader.line_num`` past the row count.
    """
    kept: list[list[str]] = []
    lines: list[int] = []
    for line, row in enumerate(rows, last + 1):
        if any("\n" in value or "\r" in value for value in row):
            return kept, lines, f"{line}: line break inside a field"
        if len(row) != width:
            if row:
                return kept, lines, f"{line}: wrong number of fields"
            continue  # a blank line
        kept.append(row)
        lines.append(line)
    return kept, lines, fault


def _checked(name: str, check_block: Callable, lines: Sequence[int], columns: list[tuple]) -> Iterator[tuple]:
    """The checked block; if it faults, each row in turn as a block of its own, up to the first row's fault, raised.

    A one-row block faults at its row's first failing check, and
    ``check_block`` keeps what later rows are checked against only once a
    block has passed, so the fault raised is the one a row-by-row check would
    report.
    """
    try:
        block = check_block(columns)
    except RowFault:
        for i, line in enumerate(lines):
            try:
                row = check_block([column[i : i + 1] for column in columns])
            except RowFault as fault:
                raise ValidationError(f"{name}:{line}: {fault}") from None
            yield lines[i : i + 1], row
    else:
        yield lines, block


def _check_blank_when(spec: ColumnSpec, values: list, condition: list) -> None:
    """Fault unless ``values`` is blank exactly where ``condition``, the values of the column ``spec.blank_when``
    names, holds the value it names."""
    column, value = spec.blank_when
    if [*map(not_, values)] != [*map(eq, condition, repeat(value))]:
        raise RowFault(
            f"{spec} must be empty when {column} is {value!r}, got {values[0]!r}" if condition[0] == value
            else f"{spec} must not be empty unless {column} is {value!r}"
        )


def _check_per(spec: ColumnSpec, values: list, group_columns: list[list], kept: dict) -> dict:
    """Fault unless each row holds its group's value, the one ``kept`` or else the first in the block; the value of
    each group after the block."""
    groups = list(zip(*group_columns)) if group_columns else [()] * len(values)
    firsts = {**dict(zip(reversed(groups), reversed(values))), **kept}  # a group's first value in the block, or kept

    def message(pair: tuple) -> str:
        where = "".join(f" for {column} {part!r}" for column, part in zip(spec.per, pair[0]))
        return f"{spec} must be {firsts[pair[0]]!r}{where or ' throughout the file'}, got {pair[1]!r}"

    check_known(list(zip(groups, values)), firsts.items(), message)
    return firsts


class Column:
    """Parses the raw values of one column, each distinct raw value once.

    Rows with equal raw values get the one resulting object.  ``parse``
    raises ``ValueError`` with the message for a bad value; a value holding
    a byte that is not UTF-8 is bad before ``parse`` sees it.  The first bad
    value met faults.
    """

    def __init__(self, parse: Callable[[str], Any], memo: dict | None = None) -> None:
        self.parse = parse
        self.memo: dict = {} if memo is None else memo

    def __call__(self, raw_values: Sequence) -> list:
        memo = self.memo
        try:
            return list(map(memo.__getitem__, raw_values))
        except KeyError:
            pass  # some values are new
        for raw in set(raw_values).difference(memo):
            try:
                if not raw.isascii():
                    _check_utf8(raw)
                memo[raw] = self.parse(raw)
            except ValueError as exc:
                raise RowFault(str(exc)) from None
        return list(map(memo.__getitem__, raw_values))


def _column(spec: ColumnSpec, ids: dict[str, str], window_len: int | None) -> Column:
    """The :class:`Column` that parses the values of ``spec`` by its kind and checks its bounds.

    An id is one shared ``str`` per id across every column built on ``ids``.
    """
    kind, bounds, optional = spec.kind, spec.bounds, spec.optional
    if kind == "id":

        def parse(raw: str) -> Any:
            value = raw.strip()
            if not value:
                if optional:
                    return None
                raise ValueError(f"{spec} must not be empty")
            return ids.setdefault(value, value)

        # A required id maps each raw value straight to the shared str, so all such columns share one memo.
        return Column(parse, None if optional else ids)
    if kind == "text":
        return Column(str.strip)
    if kind == "int":
        minimum, maximum = bounds or (None, None)

        def parse(raw: str) -> Any:
            if optional:
                raw = raw.strip()
                if not raw:
                    return None
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"{spec} must be an integer, got {raw!r}") from None
            if minimum is not None and value < minimum:
                raise ValueError(f"{spec} must be >= {minimum}, got {value}")
            if maximum is not None and value > maximum:
                raise ValueError(f"{spec} must be <= {maximum}, got {value}")
            return value

    elif kind == "float":
        # The interval "(low, high]" or "[low, high]".
        interval = bounds and bounds.replace("window", str(window_len))
        low, high = map(float, interval[1:-1].split(", ")) if interval else (-math.inf, math.inf)

        def parse(raw: str) -> Any:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"{spec} must be a number, got {raw!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{spec} must be finite, got {raw!r}")
            if not (low < value <= high or value == low and interval[0] == "["):
                raise ValueError(f"{spec} must be in {interval}, got {value:g}")
            return value

    elif kind == "bool":

        def parse(raw: str) -> Any:
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"{spec} must be true/false, got {raw!r}")

    else:

        def parse(raw: str) -> Any:
            value = raw.strip()
            if not value:
                raise ValueError(f"{spec} must not be empty")
            if value not in kind:
                raise ValueError(f"{spec} must be one of {kind}, got {value!r}")
            return value

    return Column(parse)


def check_known(values: Sequence, known: Collection, message: Callable[[Any], str]) -> None:
    """Fault, naming a value, if any of ``values`` is missing from ``known``."""
    missing = set(values).difference(known)
    if missing:
        raise RowFault(message(missing.pop()))


# ---------------------------------------------------------------------------
# Loading


def load_corpus(directory: Path | str, window: tuple[int, int]) -> Corpus:
    """Load, cross-validate and index all corpus files under ``directory``.

    Publications dated outside ``window`` and publications without any
    domestic author slot are dropped and counted on the returned corpus;
    every other violation raises :class:`ValidationError`.  Every id is
    one shared ``str`` object across all files.
    """
    if not Path(directory).is_dir():
        raise ValidationError(f"{directory}: not a directory")
    paths = CorpusPaths.from_dir(directory)
    start, end = window
    if end < start:
        raise ValidationError(f"window {start}-{end}: end year precedes start year")
    window_len = end - start + 1

    ids: dict[str, str] = {}
    known: dict[str, Collection] = {}  # "file.column" -> the values read from it that a ``ref`` may name
    taxonomy = _load_taxonomy(paths, ids, known)
    staff = _load_staff(paths.staff, window_len, ids, known)
    known["staff.university_id"] = {e.university_id for e in staff}
    pairs = {(e.university_id, e.sds_id) for e in staff}

    publications, out_of_window, no_domestic = _load_publications(paths, taxonomy, pairs, window, ids, known)
    peer_outcomes = read_peer_outcomes_csv(paths.peer_outcomes, ids, known)
    indicators = read_indicators_csv(paths.indicators, ids)
    _release_freed_heap()

    return Corpus(
        window=window,
        publications=publications,
        staff=staff,
        taxonomy=taxonomy,
        peer_outcomes=peer_outcomes,
        indicators=indicators,
        rejected_out_of_window=out_of_window,
        rejected_no_domestic=no_domestic,
    )


def _release_freed_heap() -> None:
    """Return the heap pages that the load's freed temporaries held to the OS (glibc only).

    glibc returns heap memory only from the top of its heap, and which
    block ends up there depends on earlier allocation addresses, so without
    this a ``report``'s peak after the load varies with them.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:  # not glibc
        return
    trim(0)


def _load_taxonomy(paths: CorpusPaths, ids: dict[str, str], known: dict[str, Collection]) -> Taxonomy:
    sds_to_uda: dict[str, str] = {}
    for _, (sds, udas, _) in read_rows(paths.taxonomy, "taxonomy", ids=ids):  # is_life_science is checked, not kept
        sds_to_uda.update(zip(sds, udas))
    known["taxonomy.sds_id"] = sds_to_uda
    known["taxonomy.uda_id"] = set(sds_to_uda.values())

    uda_to_macro: dict[str, str] = {}
    for _, columns in read_rows(paths.macro_map, "macro_map", required=False, ids=ids, known=known):
        uda_to_macro.update(zip(*columns))

    categories: set[str] = set()
    life_categories: set[str] = set()
    for _, (cats, life) in read_rows(paths.categories, "categories", required=False, ids=ids):
        categories.update(cats)
        life_categories.update(compress(cats, life))
    if paths.categories.exists():
        known["categories.category_id"] = categories
    return Taxonomy(
        sds_to_uda={k: sds_to_uda[k] for k in sorted(sds_to_uda)},
        uda_to_macro={k: uda_to_macro[k] for k in sorted(uda_to_macro)},
        life_science_categories=frozenset(life_categories),
    )


def _load_staff(
    path: Path, window_len: int, ids: dict[str, str], known: dict[str, Collection]
) -> tuple[StaffEntry, ...]:
    entries: list[StaffEntry] = []
    for _, columns in read_rows(path, "staff", ids=ids, known=known, window_len=window_len):
        entries.extend(_records(StaffEntry, *columns))
    entries.sort(key=itemgetter(0, 1, 2))  # (researcher_id, university_id, sds_id)
    return tuple(entries)


def _load_publications(
    paths: CorpusPaths,
    taxonomy: Taxonomy,
    pairs: set[tuple[str, str]],
    window: tuple[int, int],
    ids: dict[str, str],
    known: dict[str, Collection],
) -> tuple[tuple[PublicationRecord, ...], int, int]:
    heads: dict[str, tuple[int, int, int]] = {}  # pub_id -> (year, citations, total)
    head_memo: dict[tuple, tuple] = {}  # equal heads share one tuple (see the module docstring)
    for _, (pids, years, _, *head) in read_rows(paths.publications, "publications", ids=ids):  # doc_type not kept
        heads.update(zip(pids, _interned(head_memo, zip(years, *head))))
    known = {**known, "publications.pub_id": heads}  # a copy, so heads goes before the records are grouped

    # Rows of the two per-publication files, kept flat: the pub_id of each row and its
    # (category_id, weight) or AuthorSlot.
    category_pids: list[str] = []
    category_items: list[tuple[str, float]] = []
    item_memo: dict[tuple, tuple] = {}
    for _, (pids, cats, weights) in read_rows(paths.pub_categories, "pub_categories", ids=ids, known=known):
        category_pids.extend(pids)
        category_items.extend(_interned(item_memo, zip(cats, weights)))

    slot_pids: list[str] = []
    slots: list[AuthorSlot] = []
    unplaced: set[str] = set()  # publications with a slot of unknown position
    slot_memo: dict[tuple, tuple] = {}

    def within_byline_and_staffed(columns: list[list]) -> None:
        """Fault unless each placed slot lies within its byline and each domestic slot's group has a staff entry."""
        pids, positions, domestic, slot_universities, sds = columns
        placed_positions = list(compress(positions, positions))
        totals = list(map(itemgetter(2), map(heads.__getitem__, compress(pids, positions))))
        if not all(map(le, placed_positions, totals)):
            raise RowFault(f"position {placed_positions[0]} exceeds total_author_count {totals[0]}")
        check_known(
            list(zip(compress(slot_universities, domestic), compress(sds, domestic))), pairs,
            lambda key: f"no staff entry for ({key[0]!r}, {key[1]!r})",
        )

    authors = read_rows(paths.pub_authors, "pub_authors", ids=ids, known=known, check=within_byline_and_staffed)
    for _, (pids, positions, _, slot_universities, sds) in authors:
        unplaced.update(compress(pids, map(is_, positions, repeat(None))))
        slot_pids.extend(pids)
        slots.extend(_interned(slot_memo, _records(AuthorSlot, positions, slot_universities, sds)))

    # Grouping goes in stages that free what later ones do not read; each stops at its first faulty publication
    # and the next checks only those before it (see the module docstring).
    order = sorted(heads)
    pub_heads = list(map(heads.__getitem__, order))
    del heads, known, head_memo, item_memo, slot_memo
    cat_name, auth_name = paths.pub_categories.name, paths.pub_authors.name
    fault = None
    shared: dict[tuple, tuple] = {}  # equal category tuples share one object
    pub_categories: list[tuple[tuple[str, float], ...]] = []
    for pid, cats in zip(order, _runs(order, category_pids, category_items)):
        if not cats:
            fault = f"{cat_name}: pub {pid!r}: no categories listed"
            break
        weight_sum = sum(map(itemgetter(1), cats))  # in file order, so the sum is stable
        if abs(weight_sum - 1.0) > WEIGHT_SUM_TOL:
            fault = f"{cat_name}: pub {pid!r}: weights sum {weight_sum:g}"
            break
        cat_items = tuple(sorted(cats))
        pub_categories.append(shared.setdefault(cat_items, cat_items))
    del category_pids, category_items, shared

    life_categories = taxonomy.life_science_categories
    bylines: list[tuple[AuthorSlot, ...]] = []
    totals = map(itemgetter(2), pub_heads)
    for pid, total, cats, pub_slots in zip(order, totals, pub_categories, _runs(order, slot_pids, slots)):
        if len(pub_slots) > total:
            raise ValidationError(
                f"{auth_name}: pub {pid!r}: {len(pub_slots)} listed authors exceed total_author_count {total}"
            )
        # Taxonomy.is_life_science_publication, asked before the record exists.
        if pid in unplaced and not life_categories.isdisjoint(map(itemgetter(0), cats)):
            raise ValidationError(f"{auth_name}: pub {pid!r}: life-science publication with unknown author positions")
        # Known positions are unique per publication, so they alone give the byline order.
        pub_slots.sort(key=_byline_order if pid in unplaced else itemgetter(0))
        bylines.append(tuple(pub_slots))
    if fault is not None:
        raise ValidationError(fault)
    del slot_pids, slots, unplaced

    publications: list[PublicationRecord] = []
    out_of_window = 0
    no_domestic = 0
    start, end = window
    for pid, (year, citations, total), cats, pub_slots in zip(order, pub_heads, pub_categories, bylines):
        if not start <= year <= end:
            out_of_window += 1
        elif not any(map(itemgetter(1), pub_slots)):  # no domestic academic: no slot has a university
            no_domestic += 1
        else:
            publications.append(PublicationRecord(pid, year, citations, cats, pub_slots, total))
    return tuple(publications), out_of_window, no_domestic


def _runs(ids: list[str], keys: list[str], items: list) -> Iterator[list]:
    """For each of the sorted ``ids`` in turn, the ``items`` whose key is that id, in their original order.

    Each id's run is found by bisection on the ordered keys.  Keys already in order are grouped as they are: no
    sort index and no reordered copy.
    """
    if not all(map(le, keys, islice(keys, 1, None))):
        order = sorted(range(len(keys)), key=keys.__getitem__)  # stable, so original order within an id
        items = list(map(items.__getitem__, order))
        keys = list(map(keys.__getitem__, order))
    start = 0
    for key in ids:
        end = bisect_right(keys, key, start)
        yield items[start:end]
        start = end


def _interned(memo: dict[tuple, tuple], records: Iterable[tuple]) -> Iterator[tuple]:
    """``records``, each replaced by the first equal record that ``memo`` was given, which it keeps."""
    records = list(records)
    return map(memo.setdefault, records, records)


def _records(cls: type[tuple], *columns: Iterable) -> Iterator:
    """``cls`` records (a ``NamedTuple``) from their field columns, without a Python call per record."""
    return map(tuple.__new__, repeat(cls), zip(*columns))


def _byline_order(slot: AuthorSlot) -> tuple:
    """Known positions first, then every field, so that any row order gives the same byline."""
    position = slot.position
    return (position is None, position or 0, slot.university_id or "", slot.sds_id or "")


def _graded(columns: list[list]) -> None:
    """Fault unless each peer outcome has a graded output."""
    if 0 in map(sum, zip(*columns[2:])):
        raise RowFault("all grade counts are zero")


def read_peer_outcomes_csv(
    path: Path, ids: dict[str, str] | None = None, known: Mapping[str, Collection] = {}
) -> tuple[PeerOutcome, ...]:
    """Read peer-review grade counts, at least one graded output per (university, UDA) cell."""
    outcomes: list[PeerOutcome] = []
    for _, columns in read_rows(path, "peer_outcomes", required=False, ids=ids, known=known, check=_graded):
        outcomes.extend(map(PeerOutcome, *columns))
    outcomes.sort(key=lambda o: (o.uda_id, o.university_id))
    return tuple(outcomes)


def read_indicators_csv(path: Path, ids: dict[str, str] | None = None) -> tuple[IndicatorTable, ...]:
    """Read external indicator values, one table per indicator name."""
    directions: dict[str, str] = {}  # one per indicator, as its ``per`` rule makes it
    values: dict[str, dict[str, float]] = {}
    rows = read_rows(path, "indicators", required=False, ids=ids)
    for _, (indicators, block_directions, universities, block_values) in rows:
        directions.update(zip(indicators, block_directions))
        for indicator, university, value in zip(indicators, universities, block_values):
            values.setdefault(indicator, {})[university] = value
    return tuple(
        IndicatorTable(indicator, directions[indicator], {k: values[indicator][k] for k in sorted(values[indicator])})
        for indicator in sorted(values)
    )


# ---------------------------------------------------------------------------
# Emission


def row_writer(fh: TextIO, schema: str) -> Callable[[Iterable[Sequence]], None]:
    """Write the header ``SCHEMAS[schema]`` to ``fh`` and return the function that writes rows under it.

    Each value is written as its :class:`ColumnSpec` says; a string is written as it is.
    """
    columns = SCHEMAS[schema]
    bools = [i for i, spec in enumerate(columns) if spec.kind == "bool"]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    if not bools:
        return writer.writerows

    def spelled(row: Sequence) -> list:
        row = list(row)
        for i in bools:
            if row[i] is True or row[i] is False:
                row[i] = "true" if row[i] else "false"
        return row

    return lambda rows: writer.writerows(map(spelled, rows))


def write_csv(path: Path, schema: str, rows: Iterable[Sequence]) -> None:
    """Write rows with :func:`row_writer` as UTF-8 CSV with a fixed newline, so output is byte-stable."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        row_writer(fh, schema)(rows)
