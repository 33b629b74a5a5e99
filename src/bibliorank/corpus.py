"""Input corpus: publications, staff roster, taxonomy, peer outcomes, indicators.

All inputs and outputs are comma-delimited UTF-8 CSV files with a header
row.  :data:`SCHEMAS`, keyed by file stem, is the single list of those
headers; every reader and writer looks its header up there.  The corpus
files are:

    publications      indexed outputs with their citations and byline length
    pub_categories    subject categories of each publication, with weights
    pub_authors       listed byline slots
    staff             researcher-university-SDS affiliations
    taxonomy          SDS -> UDA map with a life-science flag
    macro_map         UDA -> macro-UDA map
    peer_outcomes     peer-review grade counts per (university, UDA)
    indicators        external indicator values per university
    categories        life-science flag per subject category

The first five files are required; the rest are optional and default to
empty.  In ``pub_authors.csv`` the university/sds fields are empty for
external (non-domestic) co-authors and ``position`` may be empty when
byline order is unknown.  Author slots not listed at all are implicit
anonymous external co-authors; ``total_author_count`` is always the full
byline length.

The pipeline derives four more: ``scores`` (productivity per university
and unit at one level), ``eligibility`` (active staff share per SDS),
``rated`` (peer rating and category percentile per cell) and ``ranking``
(tie-averaged ranks of one indicator).

Every file streams through one positional reader, :func:`read_rows`, which
yields each data row's fields in ``SCHEMAS`` order and never holds a whole
file in memory.  Loading is fail-fast: the first violation in file order
raises :class:`ValidationError` naming the file and line.  The records
(:class:`AuthorSlot`, :class:`PublicationRecord`, :class:`StaffEntry`) are
``NamedTuple``s.  A loaded :class:`Corpus` is immutable and safe for
unrestricted concurrent reads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import ValidationError

DOC_TYPES = ("article", "review", "proceedings")
HIGHER_IS_BETTER = "higher_is_better"
LOWER_IS_BETTER = "lower_is_better"
DIRECTIONS = (HIGHER_IS_BETTER, LOWER_IS_BETTER)

WEIGHT_SUM_TOL = 1e-9

SCHEMAS: dict[str, tuple[str, ...]] = {
    "publications": ("pub_id", "year", "doc_type", "citations", "total_author_count"),
    "pub_categories": ("pub_id", "category_id", "weight"),
    "pub_authors": ("pub_id", "position", "is_domestic_academic", "university_id", "sds_id"),
    "staff": ("researcher_id", "university_id", "sds_id", "years_on_staff"),
    "taxonomy": ("sds_id", "uda_id", "is_life_science"),
    "macro_map": ("uda_id", "macro_id"),
    "peer_outcomes": ("university_id", "uda_id", "E", "G", "A", "L"),
    "indicators": ("indicator_name", "direction", "university_id", "value"),
    "categories": ("category_id", "is_life_science"),
    "scores": ("level", "university_id", "unit_id", "P", "RS"),
    "eligibility": ("sds_id", "staff_count", "active_count", "active_fraction", "eligible"),
    "rated": ("university_id", "uda_id", "R", "category_percentile"),
    "ranking": ("entity_id", "score", "rank"),
}


class AuthorSlot(NamedTuple):
    """One byline slot.  External co-authors carry no university/SDS."""

    position: int | None
    university_id: str | None
    sds_id: str | None
    is_domestic_academic: bool


class PublicationRecord(NamedTuple):
    """One indexed output with its citation count and byline."""

    pub_id: str
    year: int
    doc_type: str
    citations: int
    categories: tuple[tuple[str, float], ...]  # (category_id, weight), weights sum to 1
    authors: tuple[AuthorSlot, ...]            # listed slots only, may omit externals
    total_author_count: int


class StaffEntry(NamedTuple):
    """One researcher-university-SDS affiliation over the observation window."""

    researcher_id: str
    university_id: str
    sds_id: str
    years_on_staff: float


@dataclass(frozen=True)
class Taxonomy:
    """SDS -> UDA -> macro-UDA hierarchy plus life-science flags."""

    sds_to_uda: dict[str, str]
    uda_to_macro: dict[str, str]
    life_science_sds: frozenset[str]
    life_science_categories: frozenset[str]

    def is_life_science_publication(self, pub: PublicationRecord) -> bool:
        return any(cat in self.life_science_categories for cat, _ in pub.categories)


@dataclass(frozen=True)
class PeerOutcome:
    """Peer-review grade counts for one (university, UDA) cell.

    ``T`` is the total of submitted outputs.  :func:`read_peer_outcomes_csv`
    sets it to the sum of the four grade counts, and
    :func:`bibliorank.peer_rating.rating_key` rejects a cell where they differ.
    """

    university_id: str
    uda_id: str
    E: int
    G: int
    A: int
    L: int
    T: int


@dataclass(frozen=True)
class IndicatorTable:
    """One externally sourced indicator with its ranking direction."""

    indicator_name: str
    direction: str  # HIGHER_IS_BETTER or LOWER_IS_BETTER
    values: dict[str, float]  # university_id -> value


@dataclass(frozen=True)
class Corpus:
    """Cross-validated, immutable snapshot of all inputs for one window."""

    window: tuple[int, int]
    publications: tuple[PublicationRecord, ...]
    staff: tuple[StaffEntry, ...]
    taxonomy: Taxonomy
    peer_outcomes: tuple[PeerOutcome, ...]
    indicators: tuple[IndicatorTable, ...]
    rejected_out_of_window: int = field(default=0, compare=False)
    rejected_no_domestic: int = field(default=0, compare=False)

    @property
    def rejected_count(self) -> int:
        return self.rejected_out_of_window + self.rejected_no_domestic

    def universities(self) -> list[str]:
        return sorted({e.university_id for e in self.staff})


@dataclass(frozen=True)
class CorpusPaths:
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
    def from_dir(cls, root: Path | str) -> "CorpusPaths":
        root = Path(root)
        return cls(**{f.name: root / f"{f.name}.csv" for f in fields(cls)})


# ---------------------------------------------------------------------------
# CSV primitives


def read_rows(path: Path, schema: str, required: bool = True) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_number, fields)`` for each data row, the fields in ``SCHEMAS[schema]`` order.

    Optional files that do not exist yield no rows; existing files must
    carry exactly the header ``SCHEMAS[schema]``.  Blank lines are
    skipped.  A row with the wrong number of fields, or a record spanning
    more than one line (a line break inside a quoted field), is refused.
    """
    columns = SCHEMAS[schema]
    name = path.name
    if not path.exists():
        if required:
            raise ValidationError(f"{name}: missing required input file")
        return
    records = read_records(path)
    _, header = next(records)
    if tuple(header) != columns:
        raise ValidationError(
            f"{name}:1: expected header {','.join(columns)!r}, got {','.join(header)!r}"
        )
    width = len(columns)
    for line, row in records:
        if len(row) != width:
            if not row:
                continue  # a blank line
            raise ValidationError(f"{name}:{line}: wrong number of fields")
        yield line, row


def read_records(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_number, fields)`` for every record of an existing file, the header first.

    An empty file, a record spanning more than one line (a line break
    inside a quoted field) and a field over the csv module's size limit
    are refused with the file name and line.
    """
    name = path.name
    previous = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if reader.line_num != previous + 1:
                    raise ValidationError(f"{name}:{previous + 1}: line break inside a field")
                previous = reader.line_num
                yield previous, row
        except csv.Error as exc:
            raise ValidationError(f"{name}:{reader.line_num}: {exc}") from None
    if not previous:
        raise ValidationError(f"{name}:1: empty file, header row required")


def _parse_int(name: str, line: int, column: str, raw: str, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{name}:{line}: {column} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name}:{line}: {column} must be >= {minimum}, got {value}")
    return value


def _parse_float(name: str, line: int, column: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{name}:{line}: {column} must be a number, got {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValidationError(f"{name}:{line}: {column} must be finite, got {raw!r}")
    return value


def _parse_bool(name: str, line: int, column: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValidationError(f"{name}:{line}: {column} must be true/false, got {raw!r}")


def _require(name: str, line: int, column: str, raw: str) -> str:
    value = raw.strip()
    if not value:
        raise ValidationError(f"{name}:{line}: {column} must not be empty")
    return value


# ---------------------------------------------------------------------------
# Loading


def load_corpus(paths: CorpusPaths | Path | str, window: tuple[int, int]) -> Corpus:
    """Load, cross-validate and index all corpus files.

    Publications dated outside ``window`` and publications without any
    domestic author slot are dropped and counted on the returned corpus;
    every other violation raises :class:`ValidationError`.
    """
    if not isinstance(paths, CorpusPaths):
        paths = CorpusPaths.from_dir(paths)
    start, end = window
    if end < start:
        raise ValidationError(f"window {start}-{end}: end year precedes start year")
    window_len = end - start + 1

    taxonomy = _load_taxonomy(paths)
    staff = _load_staff(paths.staff, taxonomy, window_len)
    universities = {e.university_id for e in staff}
    pairs = {(e.university_id, e.sds_id) for e in staff}

    publications, out_of_window, no_domestic = _load_publications(
        paths, taxonomy, universities, pairs, window
    )
    peer_outcomes = read_peer_outcomes_csv(paths.peer_outcomes)
    indicators = read_indicators_csv(paths.indicators)

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


def _load_taxonomy(paths: CorpusPaths) -> Taxonomy:
    name = paths.taxonomy.name
    sds_to_uda: dict[str, str] = {}
    life_sds: set[str] = set()
    for line, (raw_sds, raw_uda, raw_life) in read_rows(paths.taxonomy, "taxonomy"):
        sds = _require(name, line, "sds_id", raw_sds)
        uda = _require(name, line, "uda_id", raw_uda)
        if sds in sds_to_uda:
            raise ValidationError(f"{name}:{line}: duplicate sds_id {sds!r}")
        sds_to_uda[sds] = uda
        if _parse_bool(name, line, "is_life_science", raw_life):
            life_sds.add(sds)

    macro_name = paths.macro_map.name
    uda_to_macro: dict[str, str] = {}
    for line, (raw_uda, raw_macro) in read_rows(paths.macro_map, "macro_map", required=False):
        uda = _require(macro_name, line, "uda_id", raw_uda)
        macro = _require(macro_name, line, "macro_id", raw_macro)
        if uda in uda_to_macro:
            raise ValidationError(f"{macro_name}:{line}: duplicate uda_id {uda!r}")
        uda_to_macro[uda] = macro

    cat_name = paths.categories.name
    life_categories: set[str] = set()
    seen_cats: set[str] = set()
    for line, (raw_cat, raw_life) in read_rows(paths.categories, "categories", required=False):
        cat = _require(cat_name, line, "category_id", raw_cat)
        if cat in seen_cats:
            raise ValidationError(f"{cat_name}:{line}: duplicate category_id {cat!r}")
        seen_cats.add(cat)
        if _parse_bool(cat_name, line, "is_life_science", raw_life):
            life_categories.add(cat)

    return Taxonomy(
        sds_to_uda={k: sds_to_uda[k] for k in sorted(sds_to_uda)},
        uda_to_macro={k: uda_to_macro[k] for k in sorted(uda_to_macro)},
        life_science_sds=frozenset(life_sds),
        life_science_categories=frozenset(life_categories),
    )


def _load_staff(path: Path, taxonomy: Taxonomy, window_len: int) -> tuple[StaffEntry, ...]:
    name = path.name
    entries: list[StaffEntry] = []
    seen: set[tuple[str, str, str]] = set()
    for line, (raw_researcher, raw_university, raw_sds, raw_years) in read_rows(path, "staff"):
        researcher = _require(name, line, "researcher_id", raw_researcher)
        university = _require(name, line, "university_id", raw_university)
        sds = _require(name, line, "sds_id", raw_sds)
        years = _parse_float(name, line, "years_on_staff", raw_years)
        if not 0 < years <= window_len:
            raise ValidationError(
                f"{name}:{line}: years_on_staff must be in (0, {window_len}], got {years:g}"
            )
        if sds not in taxonomy.sds_to_uda:
            raise ValidationError(f"{name}:{line}: sds {sds!r} has no UDA in taxonomy.csv")
        key = (researcher, university, sds)
        if key in seen:
            raise ValidationError(f"{name}:{line}: duplicate staff entry {key}")
        seen.add(key)
        entries.append(StaffEntry(researcher, university, sds, years))
    entries.sort(key=lambda e: (e.researcher_id, e.university_id, e.sds_id))
    return tuple(entries)


def _load_publications(
    paths: CorpusPaths,
    taxonomy: Taxonomy,
    universities: set[str],
    pairs: set[tuple[str, str]],
    window: tuple[int, int],
) -> tuple[tuple[PublicationRecord, ...], int, int]:
    name = paths.publications.name
    heads: dict[str, tuple[int, int, str, int, int]] = {}  # pub_id -> (line, year, doc_type, citations, total)
    for line, (raw_pid, raw_year, raw_doc_type, raw_citations, raw_total) in read_rows(
        paths.publications, "publications"
    ):
        pid = _require(name, line, "pub_id", raw_pid)
        if pid in heads:
            raise ValidationError(f"{name}:{line}: duplicate pub_id {pid!r}")
        year = _parse_int(name, line, "year", raw_year)
        doc_type = _require(name, line, "doc_type", raw_doc_type)
        if doc_type not in DOC_TYPES:
            raise ValidationError(f"{name}:{line}: doc_type must be one of {DOC_TYPES}, got {doc_type!r}")
        citations = _parse_int(name, line, "citations", raw_citations, minimum=0)
        total = _parse_int(name, line, "total_author_count", raw_total, minimum=1)
        heads[pid] = (line, year, doc_type, citations, total)

    cat_name = paths.pub_categories.name
    categories: dict[str, dict[str, float]] = {pid: {} for pid in heads}  # in file order, so weight sums are stable
    for line, (raw_pid, raw_cat, raw_weight) in read_rows(paths.pub_categories, "pub_categories"):
        pid = _require(cat_name, line, "pub_id", raw_pid)
        if pid not in heads:
            raise ValidationError(f"{cat_name}:{line}: unknown pub_id {pid!r}")
        cat = _require(cat_name, line, "category_id", raw_cat)
        weight = _parse_float(cat_name, line, "weight", raw_weight)
        if not 0 < weight <= 1:
            raise ValidationError(f"{cat_name}:{line}: weight must be in (0, 1], got {weight:g}")
        pub_cats = categories[pid]
        if cat in pub_cats:
            raise ValidationError(f"{cat_name}:{line}: duplicate category {cat!r} for pub {pid!r}")
        pub_cats[cat] = weight

    auth_name = paths.pub_authors.name
    authors: dict[str, list[AuthorSlot]] = {pid: [] for pid in heads}
    positions: dict[str, list[int]] = {pid: [] for pid in heads}  # lists: a set per pub adds ~18 MB at 95k pubs
    for line, (raw_pid, raw_pos, raw_domestic, raw_university, raw_sds) in read_rows(
        paths.pub_authors, "pub_authors"
    ):
        pid = _require(auth_name, line, "pub_id", raw_pid)
        if pid not in heads:
            raise ValidationError(f"{auth_name}:{line}: unknown pub_id {pid!r}")
        total = heads[pid][4]
        raw_pos = raw_pos.strip()
        position = None
        if raw_pos:
            position = _parse_int(auth_name, line, "position", raw_pos, minimum=1)
            if position > total:
                raise ValidationError(
                    f"{auth_name}:{line}: position {position} exceeds total_author_count {total}"
                )
            taken = positions[pid]
            if position in taken:
                raise ValidationError(f"{auth_name}:{line}: duplicate position {position} for pub {pid!r}")
            taken.append(position)
        domestic = _parse_bool(auth_name, line, "is_domestic_academic", raw_domestic)
        university = raw_university.strip() or None
        sds = raw_sds.strip() or None
        if domestic:
            if university is None or sds is None:
                raise ValidationError(
                    f"{auth_name}:{line}: domestic author requires university_id and sds_id"
                )
            if university not in universities:
                raise ValidationError(
                    f"{auth_name}:{line}: university {university!r} absent from staff roster"
                )
            if sds not in taxonomy.sds_to_uda:
                raise ValidationError(f"{auth_name}:{line}: sds {sds!r} has no UDA in taxonomy.csv")
            if (university, sds) not in pairs:
                raise ValidationError(
                    f"{auth_name}:{line}: no staff entry for ({university!r}, {sds!r})"
                )
        authors[pid].append(AuthorSlot(position, university, sds, domestic))

    publications: list[PublicationRecord] = []
    out_of_window = 0
    no_domestic = 0
    start, end = window
    for pid in sorted(heads):
        line, year, doc_type, citations, total = heads[pid]
        cats = categories[pid]
        if not cats:
            raise ValidationError(f"{cat_name}: pub {pid!r}: no categories listed")
        weight_sum = sum(cats.values())
        if abs(weight_sum - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"{cat_name}: pub {pid!r}: weights sum {weight_sum:g}")
        slots = authors[pid]
        if len(slots) > total:
            raise ValidationError(
                f"{auth_name}: pub {pid!r}: {len(slots)} listed authors exceed total_author_count {total}"
            )
        life_science = not taxonomy.life_science_categories.isdisjoint(cats)
        if life_science and any(slot.position is None for slot in slots):
            raise ValidationError(
                f"{auth_name}: pub {pid!r}: life-science publication with unknown author positions"
            )
        record = PublicationRecord(
            pub_id=pid,
            year=year,
            doc_type=doc_type,
            citations=citations,
            categories=tuple(sorted(cats.items())),
            authors=tuple(sorted(slots, key=_byline_order)),
            total_author_count=total,
        )
        if not start <= year <= end:
            out_of_window += 1
            continue
        if not any(slot.is_domestic_academic for slot in record.authors):
            no_domestic += 1
            continue
        publications.append(record)
    return tuple(publications), out_of_window, no_domestic


def _byline_order(slot: AuthorSlot) -> tuple:
    """Known positions first, then every field, so that any row order gives the same byline."""
    position = slot.position
    return (position is None, position or 0, slot.university_id or "", slot.sds_id or "", slot.is_domestic_academic)


def read_peer_outcomes_csv(path: Path) -> tuple[PeerOutcome, ...]:
    """Read peer-review grade counts; the total T is the sum of the four grades."""
    name = path.name
    outcomes: list[PeerOutcome] = []
    seen: set[tuple[str, str]] = set()
    for line, (raw_university, raw_uda, *raw_counts) in read_rows(path, "peer_outcomes", required=False):
        university = _require(name, line, "university_id", raw_university)
        uda = _require(name, line, "uda_id", raw_uda)
        counts = tuple(
            _parse_int(name, line, grade, raw, minimum=0) for grade, raw in zip(("E", "G", "A", "L"), raw_counts)
        )
        total = sum(counts)
        if total < 1:
            raise ValidationError(f"{name}:{line}: all grade counts are zero")
        key = (university, uda)
        if key in seen:
            raise ValidationError(f"{name}:{line}: duplicate outcome for {key}")
        seen.add(key)
        outcomes.append(PeerOutcome(university, uda, *counts, T=total))
    outcomes.sort(key=lambda o: (o.uda_id, o.university_id))
    return tuple(outcomes)


def read_indicators_csv(path: Path) -> tuple[IndicatorTable, ...]:
    """Read external indicator values, one table per indicator name."""
    name = path.name
    directions: dict[str, str] = {}
    values: dict[str, dict[str, float]] = {}
    for line, (raw_indicator, raw_direction, raw_university, raw_value) in read_rows(
        path, "indicators", required=False
    ):
        indicator = _require(name, line, "indicator_name", raw_indicator)
        direction = _require(name, line, "direction", raw_direction)
        if direction not in DIRECTIONS:
            raise ValidationError(f"{name}:{line}: direction must be one of {DIRECTIONS}, got {direction!r}")
        university = _require(name, line, "university_id", raw_university)
        value = _parse_float(name, line, "value", raw_value)
        if indicator in directions and directions[indicator] != direction:
            raise ValidationError(f"{name}:{line}: conflicting direction for indicator {indicator!r}")
        directions[indicator] = direction
        table = values.setdefault(indicator, {})
        if university in table:
            raise ValidationError(f"{name}:{line}: duplicate university_id {university!r} for {indicator!r}")
        table[university] = value
    return tuple(
        IndicatorTable(indicator, directions[indicator], {k: values[indicator][k] for k in sorted(values[indicator])})
        for indicator in sorted(values)
    )


# ---------------------------------------------------------------------------
# Emission


def write_csv(path: Path, schema: str, rows: Iterable[tuple]) -> None:
    """Write rows under the header ``SCHEMAS[schema]`` as UTF-8 CSV with a fixed newline, so output is byte-stable."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCHEMAS[schema])
        writer.writerows(rows)


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
