"""Properties of corpus loading, positional credit, the score and ranking files, tie-averaged ranking and pairwise comparison."""

from __future__ import annotations

import csv
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibliorank import cli, productivity
from bibliorank import corpus as corpus_mod
from bibliorank.corpus import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    SCHEMAS,
    AuthorSlot,
    ColumnSpec,
    Corpus,
    CorpusPaths,
    PeerOutcome,
    PublicationRecord,
    StaffEntry,
    Taxonomy,
    load_corpus,
    write_csv,
)
from bibliorank.errors import ValidationError
from bibliorank.peer_rating import rating_key
from bibliorank.productivity import (
    LEVELS, ScoreEntry, ScoreTable, macro_uda_productivity, read_score_csv, score_corpus, sds_productivity,
    uda_productivity, university_productivity, write_score_csv,
)
from bibliorank.rankcmp import (
    build_ranking, compare_rankings, correlation_matrix, read_ranking_csv, render_comparison, render_matrix,
    write_ranking_csv,
)
from bibliorank.scoring import compute_baselines, credit_shares
from bibliorank.synth import SynthParams, generate, synthesize

from conftest import (
    column_faults, emit_corpus, reference_credit_shares, reference_position_weights, share_pub_ids, share_rows, spoil,
)

WINDOW = (2001, 2003)
WINDOW_LEN = WINDOW[1] - WINDOW[0] + 1
# Small synth corpora: a few universities, one life-science UDA of two.
# Through a lambda, so that hypothesis draws only the given fields: it would draw every defaulted NamedTuple field.
synth_params = st.builds(
    lambda **given: SynthParams(**given),
    seed=st.integers(0, 2**32 - 1),
    universities=st.integers(6, 10),
    udas=st.just(2),
    sds_per_uda=st.just(2),
)


def _file_bytes(directory: Path) -> dict[str, bytes]:
    return {path.relative_to(directory).as_posix(): path.read_bytes() for path in sorted(directory.rglob("*"))
            if path.is_file()}


@settings(max_examples=15, deadline=None)
@given(params=synth_params)
def test_emit_then_load_is_a_fixed_point(tmp_path_factory, params):
    root = tmp_path_factory.mktemp("fixed")
    synthesize(params, root / "synth")
    corpus = load_corpus(root / "synth", WINDOW)
    emit_corpus(corpus, root / "a")
    reloaded = load_corpus(root / "a", WINDOW)
    assert reloaded == corpus
    emit_corpus(reloaded, root / "b")
    assert _file_bytes(root / "b") == _file_bytes(root / "a")


@settings(max_examples=10, deadline=None)
@given(params=synth_params, data=st.data())
def test_row_order_changes_neither_corpus_nor_report(tmp_path_factory, params, data):
    root = tmp_path_factory.mktemp("shuffle")
    synthesize(params, root / "corpus")
    shuffled = root / "shuffled"
    shuffled.mkdir()
    rng = data.draw(st.randoms(use_true_random=False))
    for path in vars(CorpusPaths.from_dir(root / "corpus")).values():
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(rows)
        (shuffled / path.name).write_text(header + "".join(rows), encoding="utf-8")
    assert load_corpus(shuffled, WINDOW) == load_corpus(root / "corpus", WINDOW)
    for name in ("corpus", "shuffled"):
        argv = ["report", "--corpus-dir", str(root / name), "--format", "json", "--out-dir", str(root / f"{name}-out")]
        assert cli.main(argv) == 0
    assert _file_bytes(root / "shuffled-out") == _file_bytes(root / "corpus-out")


def _set(index: int, value: str, message: str):
    return lambda fields, earlier: ([*fields[:index], value, *fields[index + 1:]], message)


def _column_fault(fault):
    """A ``ROW_FAULTS`` entry for one fault that the column table implies."""
    return fault.stem + ".csv", lambda fields, earlier: spoil(fault, fields, earlier), fault.applies


_LARGE_FILES = ("publications.csv", "pub_categories.csv", "pub_authors.csv", "staff.csv")
# One bad row: (file, change(fields, an earlier row's fields) -> (fields, message part), which rows it applies to).
ROW_FAULTS = [
    *(_column_fault(fault) for stem in CorpusPaths.__annotations__ for fault in column_faults(stem, WINDOW_LEN)),
    ("pub_authors.csv", _set(1, "100000", "exceeds total_author_count"), None),
    *((name, lambda fields, earlier: ([*fields, "x"], "wrong number of fields"), None) for name in _LARGE_FILES),
    *((name, _set(1, "9" * 140_000, "field larger than field limit"), None) for name in _LARGE_FILES),  # a csv.Error
    *(
        (name, lambda fields, earlier: ([f'"{fields[0]}\nx"', *fields[1:]], "line break inside a field"), None)
        for name in _LARGE_FILES
    ),
]


@settings(max_examples=150, deadline=None)
@given(
    params=st.builds(lambda **given: SynthParams(**given), seed=st.integers(0, 2**32 - 1),
                     universities=st.integers(3, 5), udas=st.just(2), sds_per_uda=st.just(2)),
    block_rows=st.integers(1, 5),
    data=st.data(),
)
def test_load_reports_the_first_bad_row_in_file_order_across_blocks(tmp_path_factory, params, block_rows, data):
    root = tmp_path_factory.mktemp("faults")
    synthesize(params, root)
    name, change, applies = data.draw(st.sampled_from(ROW_FAULTS))
    path = root / name
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    fields = [row.split(",") for row in rows]

    def spoil_row(index: int, change) -> str:
        earlier = fields[data.draw(st.integers(0, index - 1))] if index else None
        spoiled, message = change(fields[index], earlier)
        rows[index] = ",".join(spoiled)
        return message

    first = data.draw(st.sampled_from([i for i, row in enumerate(fields) if applies is None or applies(row, i)]))
    message = spoil_row(first, change)
    # A second fault in a later row of the same or the next block must not hide the first.
    later = range(first + 1, min(len(rows), (first // block_rows + 2) * block_rows))
    second = data.draw(st.none() | st.sampled_from(later)) if later else None
    if second is not None:
        faults = [f for f in ROW_FAULTS if f[0] == name and (f[2] is None or f[2](fields[second], second))]
        spoil_row(second, data.draw(st.sampled_from(faults))[1])
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8", errors="surrogateescape")
    with mock.patch.object(corpus_mod, "BLOCK_ROWS", block_rows), pytest.raises(ValidationError) as raised:
        load_corpus(root, WINDOW)
    assert str(raised.value).startswith(f"{name}:{first + 2}: ")  # line 1 is the header
    assert message in str(raised.value)


@settings(max_examples=10, deadline=None)
@given(params=synth_params, data=st.data())
def test_sds_productivity_bits_do_not_depend_on_roster_order(tmp_path_factory, params, data):
    root = tmp_path_factory.mktemp("order")
    synthesize(params, root)
    corpus = load_corpus(root, WINDOW)
    shares = credit_shares(corpus, compute_baselines(corpus))
    roster = list(corpus.staff)
    expected = sds_productivity(shares, roster, WINDOW)
    rng = data.draw(st.randoms(use_true_random=False))
    rng.shuffle(roster)
    table = sds_productivity(shares, roster, WINDOW)
    assert repr(table.entries) == repr(expected.entries)
    assert repr(table.national_means) == repr(expected.national_means)


@settings(max_examples=15, deadline=None)
@given(params=synth_params, data=st.data())
def test_an_ineligible_sds_loses_exactly_its_shares_and_leaves_every_score_table(tmp_path_factory, params, data):
    root = tmp_path_factory.mktemp("ineligible")
    synthesize(params, root)
    corpus = load_corpus(root, WINDOW)
    full = credit_shares(corpus, compute_baselines(corpus))
    sds = data.draw(st.sampled_from(sorted({sds for _, sds in full.groups})), label="sds")
    # More silent researchers than the SDS has staff entries, at a university that publishes nothing, leave
    # under half of the SDS's researchers publishing.
    silent = [StaffEntry(f"R~{i}", "U~silent", sds, 1.0) for i in range(len(corpus.staff) + 1)]
    corpus = corpus._replace(staff=tuple(sorted((*corpus.staff, *silent), key=itemgetter(0, 1, 2))))
    passed = []  # the shares score_corpus gives sds_productivity

    def recording(shares, *args):
        passed.append(shares)
        return sds_productivity(shares, *args)

    with mock.patch.object(productivity, "sds_productivity", recording):
        bundle = score_corpus(corpus)
    assert not bundle.eligibility[sds].eligible
    (masked,) = passed
    assert masked.groups == full.groups and len(masked) < len(full)
    eligible = [bundle.eligibility[group_sds].eligible for _, group_sds in full.groups]  # by code
    mask = list(map(eligible.__getitem__, full.codes))
    assert (full.codes.typecode, full.fractions.typecode, full.values.typecode) == ("q", "d", "d")
    for name in ("codes", "fractions", "values"):
        column, unmasked = getattr(masked, name), getattr(full, name)
        assert column.typecode == unmasked.typecode
        assert column.tobytes() == array(unmasked.typecode, compress(unmasked, mask)).tobytes()
    assert sds not in bundle.sds.national_means
    assert all(unit != sds for table in bundle[1:] for _, unit in table.entries)


@settings(max_examples=100, deadline=None)
@given(udas=st.lists(st.sampled_from(["UDA1", "UDA2", "UDA3"]), min_size=1, max_size=6), data=st.data())
def test_a_university_at_the_national_mean_in_every_sds_scores_exactly_1_at_every_level(udas, data):
    # SDS S<i> is in UDA udas[i].  U0's P is its SDS's national mean in every SDS where it has staff; U1 and U2 score
    # anything.  The roll-ups read the table's national means as given.
    sds_ids = [f"S{i}" for i in range(len(udas))]
    macros = {uda: data.draw(st.sampled_from(["M1", "M2"]), label=uda) for uda in sorted(set(udas))}
    taxonomy = Taxonomy(dict(zip(sds_ids, udas)), macros, frozenset())
    positive = st.floats(1e-6, 1e6)
    means = {sds: data.draw(positive, label=f"national mean of {sds}") for sds in sds_ids}
    staffed = data.draw(st.lists(st.sampled_from(sds_ids), min_size=1, unique=True), label="U0's SDSs")
    entries = {("U0", sds): ScoreEntry(means[sds], data.draw(positive, label=f"U0's RS in {sds}")) for sds in staffed}
    others = st.dictionaries(
        st.tuples(st.sampled_from(["U1", "U2"]), st.sampled_from(sds_ids)), st.tuples(st.floats(0, 1e6), positive)
    )
    entries.update((key, ScoreEntry(*entry)) for key, entry in data.draw(others, label="other entries").items())
    table = ScoreTable("sds", dict(sorted(entries.items())), means)
    for scores in (
        uda_productivity(table, taxonomy), macro_uda_productivity(table, taxonomy), university_productivity(table)
    ):
        at_the_mean = [entry.P for (university, _), entry in scores.entries.items() if university == "U0"]
        assert at_the_mean and set(at_the_mean) == {1.0}, scores.level


ARRANGEMENTS = ("sorted", "partly sorted", "reversed", "as drawn")


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.text("PQR", min_size=1, max_size=3), min_size=1, max_size=8, unique=True).map(sorted),
    picks=st.lists(st.integers(0, 7), max_size=30),
    arrangement=st.sampled_from(ARRANGEMENTS),
)
@example(ids=["P1", "P2"], picks=[0, 1, 1], arrangement="sorted")  # the path without a sort
@example(ids=["P1", "P2"], picks=[0, 1, 1], arrangement="reversed")  # the argsort path
def test_runs_group_items_by_id_in_their_order(ids, picks, arrangement):
    keys = [ids[pick % len(ids)] for pick in picks]  # ids repeat, and some have no items
    if arrangement == "sorted":
        keys.sort()
    elif arrangement == "reversed":
        keys.sort(reverse=True)
    elif arrangement == "partly sorted":
        keys[: len(keys) // 2] = sorted(keys[: len(keys) // 2])
    items = [(key, index) for index, key in enumerate(keys)]
    expected: dict[str, list] = {pid: [] for pid in ids}
    for key, item in zip(keys, items):
        expected[key].append(item)
    with mock.patch.object(corpus_mod, "sorted", create=True, wraps=sorted) as sort:
        runs = list(corpus_mod._runs(ids, keys, items))
    assert runs == [expected[pid] for pid in ids]
    assert sort.called == (keys != sorted(keys))  # keys in order take the path without a sort


# Keys from small alphabets, so that keys repeat; a None position is blank.
KEY_STRATEGIES = {
    "staff": st.tuples(*(st.sampled_from([f"{c}1", f"{c}2"]) for c in "RUS")),
    "pub_categories": st.tuples(st.sampled_from(["P1", "P2", "P3"]), st.sampled_from(["C1", "C2", "C3"])),
    "pub_authors": st.tuples(st.sampled_from(["P1", "P2", "P3"]), st.sampled_from([None, 1, 2, 3])),
}
# The row of a key, good or holding its file's bad value; a category row holds its publication's share of the
# weight, so that the weights sum to 1.
KEY_ROWS = {
    "staff": lambda key, bad, share: f"{key[0]},{key[1]},{key[2]},{0 if bad else 1.0}",
    "pub_categories": lambda key, bad, share: f"{key[0]},{key[1]},{2 if bad else share}",
    "pub_authors": lambda key, bad, share: (
        f"{key[0]},{'' if key[1] is None else key[1]},{'maybe' if bad else 'false'},,"
    ),
}
KEY_ROW_FAULTS = {
    "staff": "years_on_staff must be in (0, 3], got 0",
    "pub_categories": "weight must be in (0, 1], got 2",
    "pub_authors": "is_domestic_academic must be true/false, got 'maybe'",
}


@settings(max_examples=300, deadline=None)
@given(
    stem=st.sampled_from(sorted(KEY_STRATEGIES)),
    block_rows=st.sampled_from([1, 2, 3, corpus_mod.BLOCK_ROWS]),
    data=st.data(),
)
def test_a_repeated_key_is_named_where_a_set_of_every_key_read_names_it(tmp_path_factory, stem, block_rows, data):
    # The loader checks these files' keys as it sorts their rows, after it has read later rows and files; the row
    # named is still the first whose key came before, unless a bad row comes first.
    keys = data.draw(st.lists(KEY_STRATEGIES[stem], max_size=14), label="keys")
    cut = data.draw(st.integers(0, len(keys)), label="cut")  # rows from the cut on stay as drawn
    keys[:cut] = sorted(keys[:cut], key=itemgetter(0))
    bad = data.draw(st.none() | st.integers(0, len(keys) - 1), label="bad row") if keys else None
    counts = {pid: list(map(itemgetter(0), keys)).count(pid) for pid in ("P1", "P2", "P3")}
    # Publications without a domestic author, which the load drops; with drawn categories, those that have some.
    pids = [pid for pid, count in counts.items() if count or stem != "pub_categories"]
    rows = {
        "staff": [],
        "taxonomy": ["S1,UDA1,false", "S2,UDA1,false"],
        "publications": [f"{pid},2001,article,4,20" for pid in pids],
        "pub_categories": [f"{pid},C1,1.0" for pid in pids],
        "pub_authors": [],
    }
    rows[stem] = [KEY_ROWS[stem](key, i == bad, repr(1 / counts.get(key[0], 1))) for i, key in enumerate(keys)]
    directory = tmp_path_factory.mktemp("keys")
    for name, lines in rows.items():
        (directory / f"{name}.csv").write_text("\n".join([",".join(SCHEMAS[name]), *lines]) + "\n", encoding="utf-8")
    key_name = f"({', '.join(spec for spec in SCHEMAS[stem] if spec.key)})"
    seen: set = set()
    expected = None
    for line, key in enumerate(keys, 2):  # a plain set of every key read, in file order
        if key in seen:
            expected = f"{stem}.csv:{line}: duplicate {key_name} {key!r}"
            break
        if line - 2 == bad:
            expected = f"{stem}.csv:{line}: {KEY_ROW_FAULTS[stem]}"
            break
        if None not in key:  # a row of unknown position has no key
            seen.add(key)
    with mock.patch.object(corpus_mod, "BLOCK_ROWS", block_rows):
        try:
            load_corpus(directory, WINDOW)
        except ValidationError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


LIFE_TAXONOMY = Taxonomy({"S1": "UDA1"}, {}, frozenset({"LC"}))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), life_science=st.booleans(), shared=st.booleans(), data=st.data())
def test_positional_group_fractions_and_residual_sum_to_one(n, life_science, shared, data):
    # position -> university of a domestic author, or None for a listed external one
    owners = data.draw(st.dictionaries(st.integers(1, n), st.sampled_from([None, "U1", "U2", "U3"]), min_size=1))
    if shared:
        owners[1] = owners[n] = "U1"
    elif n > 1:
        owners[1], owners[n] = "U1", data.draw(st.sampled_from([None, "U2"]))
    slots = tuple(  # in byline order, as the loader gives them
        AuthorSlot(pos, uni, None if uni is None else "S1") for pos, uni in sorted(owners.items())
    )
    category = "LC" if life_science else "C1"
    pub = PublicationRecord("P1", 2001, 1, ((category, 1.0),), slots, n)
    if life_science:
        weights = reference_position_weights(n, shared)
    else:
        weights = dict.fromkeys(range(1, n + 1), Fraction(1, n))
    groups: dict[str, Fraction] = {}
    for position, university in owners.items():
        if university is not None:
            groups[university] = groups.get(university, Fraction(0)) + weights[position]
    residual = sum((w for position, w in weights.items() if owners.get(position) is None), Fraction(0))
    assert sum(groups.values()) + residual == 1
    shares = share_rows(credit_shares(Corpus(WINDOW, (pub,), (), LIFE_TAXONOMY, (), ()), {(2001, category): 1.0}))
    assert {(s.university_id, s.sds_id): s.fraction for s in shares} == {
        (u, "S1"): float(f) for u, f in sorted(groups.items())
    }


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    life_science_udas=st.integers(0, 2),
    cross_university_rate=st.floats(0, 1),
    max_external_authors=st.integers(0, 60),
)
def test_credit_shares_match_the_per_publication_reference(
    tmp_path_factory, seed, life_science_udas, cross_university_rate, max_external_authors
):
    root = tmp_path_factory.mktemp("credit")
    params = SynthParams(
        seed=seed, universities=6, udas=2, sds_per_uda=2, life_science_udas=life_science_udas,
        cross_university_rate=cross_university_rate, max_external_authors=max_external_authors,
    )
    synthesize(params, root)
    corpus = load_corpus(root, WINDOW)
    baselines = compute_baselines(corpus)
    shares = share_rows(credit_shares(corpus, baselines))
    expected = reference_credit_shares(corpus, baselines)
    assert shares == expected
    assert repr(shares) == repr(expected)  # every float bit, signs of zero too


@settings(max_examples=15, deadline=None)
@given(params=synth_params, data=st.data())
@example(params=SynthParams(seed=22, universities=6, udas=2, sds_per_uda=2), data=None)
def test_scaling_every_citation_keeps_standardized_values_where_medians_are_positive(tmp_path_factory, params, data):
    # x / m == c*x / (c*m) bit for bit when both divisions are correctly rounded and every operand is exact.  An
    # even cell's median is a half-sum, exact only while c*(a + b) <= 2**53, so c stays under 2**52 / the largest
    # count: at 2**53 / the largest, seed 22 rounds a scaled median and changes 2 values.  A zero median's cell
    # divides by its mean instead, which does not scale exactly, so its publications are left out.
    root = tmp_path_factory.mktemp("scaled")
    synthesize(params, root)
    corpus = load_corpus(root, WINDOW)
    cells: dict[tuple[int, str], list[int]] = {}
    for pub in corpus.publications:
        for category, _ in pub.categories:
            cells.setdefault((pub.year, category), []).append(pub.citations)
    positive = {cell for cell, citations in cells.items() if statistics.median(citations) > 0}
    largest = max(pub.citations for pub in corpus.publications)
    c = 2**52 // largest if data is None else data.draw(st.integers(2, 2**52 // largest), label="c")
    scaled = corpus._replace(
        publications=tuple(pub._replace(citations=c * pub.citations) for pub in corpus.publications)
    )
    kept = {pub.pub_id for pub in corpus.publications if all((pub.year, cat) in positive for cat, _ in pub.categories)}
    assert kept

    pub_ids = share_pub_ids(corpus)  # scaling keeps every byline, so both corpora's shares have these

    def values(corpus: Corpus) -> dict[str, str]:
        shares = share_rows(credit_shares(corpus, compute_baselines(corpus)))
        assert len(shares) == len(pub_ids)
        return {pub_id: repr(s.standardized_value) for pub_id, s in zip(pub_ids, shares)}

    original, rescaled = values(corpus), values(scaled)
    assert {pub_id: rescaled[pub_id] for pub_id in kept} == {pub_id: original[pub_id] for pub_id in kept}


# Ids are stripped on reading, so only stripped, non-empty ids round-trip.
ids = st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=8).map(str.strip).filter(bool)
finite = st.floats(allow_nan=False, allow_infinity=False)
# A few shared values make exact score ties common.
scores = st.one_of(finite, st.sampled_from([0.0, 1.0, 2.5]))
score_maps = st.dictionaries(ids, scores, min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(level=st.sampled_from(LEVELS), data=st.data())
def test_score_csv_round_trip(tmp_path_factory, level, data):
    units = st.just("") if level == "university" else ids  # unit_id is empty exactly at university level
    entries = data.draw(st.dictionaries(st.tuples(ids, units), st.tuples(scores, finite), min_size=1))
    table = ScoreTable(level, {key: ScoreEntry(p, rs) for key, (p, rs) in entries.items()}, {})
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    write_score_csv(table, path)
    loaded = read_score_csv(path)
    assert loaded.level == level
    assert loaded.entries == table.entries
    assert list(loaded.entries) == sorted(table.entries)


@settings(max_examples=60, deadline=None)
@given(values=score_maps, direction=st.sampled_from([HIGHER_IS_BETTER, LOWER_IS_BETTER]))
def test_ranking_csv_round_trip(tmp_path_factory, values, direction):
    ranking = build_ranking(values, direction, "demo")
    path = tmp_path_factory.mktemp("ranking") / "demo.csv"
    write_ranking_csv(ranking, path)
    loaded = read_ranking_csv(path)
    assert loaded.label == "demo"
    assert loaded.entries == ranking.entries


# A field may hold any text but a line break, a NUL or a lone surrogate; ids and text are stripped on reading.
field_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"), max_size=6).map(
    str.strip
)


def _values(spec: ColumnSpec) -> st.SearchStrategy:
    """Values of the kind of ``spec`` within its bounds, ``None`` for a blank optional one.

    A column with a ``blank_when`` rule is never blank here: :func:`_by_the_rules` blanks it where its rule says.
    """
    kind = spec.kind
    if isinstance(kind, tuple):
        values = st.sampled_from(kind)
    elif kind == "id":
        values = field_text.filter(bool)
    elif kind == "text":
        values = field_text
    elif kind == "int":
        low, high = spec.bounds or (None, None)
        values = st.integers(low, high)
    elif kind == "float":
        interval = (spec.bounds or "[-inf, inf]").replace("window", str(WINDOW_LEN))
        low, high = map(float, interval[1:-1].split(", "))
        values = st.floats(low, high, allow_nan=False, allow_infinity=False, exclude_min=interval[0] == "(")
    else:
        values = st.booleans()
    if spec.blank_when is not None:
        return values.filter(bool)
    return st.none() | values if spec.optional else values


def _by_the_rules(columns: tuple[ColumnSpec, ...], rows: list[tuple]) -> list[tuple]:
    """``rows`` made valid: each ``per`` column holds its group's first value, each ``blank_when`` column is blank
    exactly where its rule says, and of the rows with one key only the first is kept."""
    firsts: dict[str, dict] = {spec: {} for spec in columns if spec.per is not None}
    kept: dict[tuple, tuple] = {}
    for drawn in rows:
        row = list(drawn)
        for i, spec in enumerate(columns):
            if spec.per is not None:
                row[i] = firsts[spec].setdefault(tuple(row[columns.index(column)] for column in spec.per), row[i])
            if spec.blank_when is not None:
                column, value = spec.blank_when
                if row[columns.index(column)] == value:
                    row[i] = None if spec.optional else ""
        kept.setdefault(tuple(value for spec, value in zip(columns, row) if spec.key), tuple(row))
    return list(kept.values())


def _rows(stem: str) -> st.SearchStrategy:
    columns = SCHEMAS[stem]
    return st.lists(st.tuples(*map(_values, columns)), min_size=1, max_size=12).map(
        lambda rows: _by_the_rules(columns, rows)
    )


@pytest.mark.parametrize("stem", list(SCHEMAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_write_then_read_gives_the_written_values_bit_for_bit(tmp_path_factory, stem, data):
    rows = data.draw(_rows(stem))
    path = tmp_path_factory.mktemp("round") / f"{stem}.csv"
    write_csv(path, stem, rows)
    read: list[list] = [[] for _ in SCHEMAS[stem]]
    for _, columns in corpus_mod.read_rows(path, stem, window_len=WINDOW_LEN):
        for kept, column in zip(read, columns):
            kept.extend(column)
    # repr tells every float bit pattern apart, -0.0 from 0.0 included, and a bool from an int.
    assert [list(map(repr, column)) for column in read] == [list(map(repr, column)) for column in zip(*rows)]
    # The reader takes any case of true/false, so the spelling the writer promises is checked on the text.
    with open(path, encoding="utf-8", newline="") as fh:
        _, *fields = csv.reader(fh)
    for i, spec in enumerate(SCHEMAS[stem]):
        if spec.kind == "bool":
            assert [row[i] for row in fields] == [str(row[i]).lower() for row in rows]


@settings(max_examples=100, deadline=None)
@given(values=score_maps, direction=st.sampled_from([HIGHER_IS_BETTER, LOWER_IS_BETTER]), data=st.data())
def test_ranking_ignores_input_order(values, direction, data):
    shuffled = dict(data.draw(st.permutations(list(values.items()))))
    assert build_ranking(shuffled, direction).entries == build_ranking(values, direction).entries


def _ranks(ranking) -> list[tuple[str, float]]:
    return [(e.entity_id, e.rank) for e in ranking.entries]


@settings(max_examples=100, deadline=None)
@given(values=score_maps, data=st.data())
def test_ranking_invariant_under_strictly_monotone_transforms(values, data):
    distinct = sorted(set(values.values()))
    targets = sorted(data.draw(st.lists(finite, min_size=len(distinct), max_size=len(distinct), unique=True)))
    increasing = dict(zip(distinct, targets))
    decreasing = dict(zip(distinct, reversed(targets)))
    expected = _ranks(build_ranking(values, HIGHER_IS_BETTER))
    assert _ranks(build_ranking({e: increasing[v] for e, v in values.items()}, HIGHER_IS_BETTER)) == expected
    assert _ranks(build_ranking({e: decreasing[v] for e, v in values.items()}, LOWER_IS_BETTER)) == expected


@settings(max_examples=100, deadline=None)
@given(values=score_maps, direction=st.sampled_from([HIGHER_IS_BETTER, LOWER_IS_BETTER]))
def test_tied_scores_share_the_averaged_rank(values, direction):
    entries = build_ranking(values, direction).entries
    for score in set(values.values()):
        positions = [index for index, e in enumerate(entries, start=1) if e.score == score]
        assert positions == list(range(positions[0], positions[-1] + 1))
        assert {e.rank for e in entries if e.score == score} == {(positions[0] + positions[-1]) / 2}
    n = len(entries)
    assert sum(e.rank for e in entries) == n * (n + 1) / 2


# A small id pool, so that two rankings share some entities but not all.
compared = st.dictionaries(st.sampled_from([f"e{i:02d}" for i in range(16)]), scores, min_size=1, max_size=16)


@settings(max_examples=100, deadline=None)
@given(a=compared, b=compared, direction=st.sampled_from([HIGHER_IS_BETTER, LOWER_IS_BETTER]))
def test_compare_rankings_is_symmetric(a, b, direction):
    ranking_a = build_ranking(a, HIGHER_IS_BETTER, "a")
    ranking_b = build_ranking(b, direction, "b")
    try:
        forward = compare_rankings(ranking_a, ranking_b)
    except ValidationError:
        with pytest.raises(ValidationError):
            compare_rankings(ranking_b, ranking_a)
        return
    backward = compare_rankings(ranking_b, ranking_a)
    assert (forward.rho.hex(), forward.p_value.hex()) == (backward.rho.hex(), backward.p_value.hex())
    assert (forward.dropped_a, forward.dropped_b) == (backward.dropped_b, backward.dropped_a)
    for field in ("n", "shift_counts", "shift_frequencies", "shift_cumulative"):
        assert getattr(forward, field) == getattr(backward, field)


FLIPPED = {HIGHER_IS_BETTER: LOWER_IS_BETTER, LOWER_IS_BETTER: HIGHER_IS_BETTER}


@settings(max_examples=100, deadline=None)
@given(a=compared, b=compared, direction=st.sampled_from(list(FLIPPED)))
@example(a={"e00": 0.0, "e01": -0.0, "e02": 1.0, "e03": 2.5}, b={"e00": -0.0, "e01": 0.0, "e02": 0.0, "e03": 1.0},
         direction=HIGHER_IS_BETTER)  # signed zeros tie, in both rankings
def test_negating_an_indicator_and_flipping_its_direction_changes_no_comparison_byte(a, b, direction):
    reference = build_ranking(a, HIGHER_IS_BETTER, "a")

    def rendered(values: dict[str, float], direction: str) -> list[str]:
        other = build_ranking(values, direction, "b")
        try:
            report = compare_rankings(reference, other)
        except ValidationError as exc:
            return [str(exc)]
        renders = [(render_comparison, report), (render_matrix, correlation_matrix([reference, other], [report]))]
        return [render(what, fmt) for render, what in renders for fmt in cli.FORMATS]

    assert rendered({entity: -value for entity, value in b.items()}, FLIPPED[direction]) == rendered(b, direction)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), universities=st.integers(2, 40))
def test_noiseless_peer_ratings_keep_quality_order_among_cells_of_equal_size(seed, universities):
    data = generate(SynthParams(seed=seed, universities=universities, peer_noise=0.0))
    quality = {university: float(value) for name, _, university, value in data.indicators if name == "QUALITY"}
    # (graded outputs, latent quality, exact rating) of each cell; cells of equal size then run in quality order.
    cells = sorted(
        (sum(counts), quality[university], rating_key(PeerOutcome(university, uda, *counts)))
        for university, uda, *counts in data.peer_outcomes
    )
    for (size, _, rating), (next_size, _, next_rating) in zip(cells, cells[1:]):
        assert size != next_size or rating <= next_rating


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
