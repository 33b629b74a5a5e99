"""Properties of corpus loading, positional credit, the score and ranking files, tie-averaged ranking and pairwise comparison."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank import cli
from bibliorank import corpus as corpus_mod
from bibliorank.corpus import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    AuthorSlot,
    Corpus,
    CorpusPaths,
    PublicationRecord,
    Taxonomy,
    load_corpus,
)
from bibliorank.errors import ValidationError
from bibliorank.productivity import LEVELS, ScoreEntry, ScoreTable, read_score_csv, sds_productivity, write_score_csv
from bibliorank.rankcmp import build_ranking, compare_rankings, read_ranking_csv, write_ranking_csv
from bibliorank.scoring import compute_baselines, credit_shares
from bibliorank.synth import SynthParams, synthesize

from conftest import emit_corpus, reference_credit_shares, reference_position_weights

WINDOW = (2001, 2003)
# Small synth corpora: a few universities, one life-science UDA of two.
synth_params = st.builds(
    SynthParams,
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


def _set(index: int, value: str):
    return lambda fields, earlier: [*fields[:index], value, *fields[index + 1:]]


def _copy(*indexes: int):
    """Make the row a duplicate: copy the key fields of an earlier row."""
    return lambda fields, earlier: [earlier[i] if i in indexes else value for i, value in enumerate(fields)]


def _domestic(fields: list[str], index: int) -> bool:
    return fields[2] == "true"


def _not_first(fields: list[str], index: int) -> bool:
    return index > 0


_LARGE_FILES = ("publications.csv", "pub_categories.csv", "pub_authors.csv", "staff.csv")
# One bad row: (file, change(fields, an earlier row's fields), which rows it applies to, message part).
ROW_FAULTS = [
    ("publications.csv", _set(0, " "), None, "pub_id must not be empty"),
    ("pub_authors.csv", _set(0, ""), None, "pub_id must not be empty"),
    ("pub_categories.csv", _set(1, ""), None, "category_id must not be empty"),
    ("staff.csv", _set(1, ""), None, "university_id must not be empty"),
    ("publications.csv", _set(1, "2001.5"), None, "year must be an integer"),
    ("pub_authors.csv", _set(1, "first"), None, "position must be an integer"),
    ("publications.csv", _set(2, " "), None, "doc_type must not be empty"),
    ("publications.csv", _set(3, "-1"), None, "citations must be >= 0"),
    ("pub_categories.csv", _set(2, "1.5"), None, "weight must be in (0, 1]"),
    ("pub_authors.csv", _set(1, "100000"), None, "exceeds total_author_count"),
    ("staff.csv", _set(3, "0.0"), None, "years_on_staff must be in (0, 3]"),
    ("pub_categories.csv", _set(0, "P_NONE"), None, "unknown pub_id 'P_NONE'"),
    ("pub_authors.csv", _set(0, "P_NONE"), None, "unknown pub_id 'P_NONE'"),
    ("pub_authors.csv", _set(3, "U_NONE"), _domestic, "'U_NONE' absent from staff roster"),
    ("pub_authors.csv", _set(4, "S_NONE"), _domestic, "'S_NONE' has no UDA"),
    ("staff.csv", _set(2, "S_NONE"), None, "'S_NONE' has no UDA"),
    ("pub_authors.csv", _set(2, "maybe"), None, "is_domestic_academic must be true/false"),
    ("taxonomy.csv", _set(2, "maybe"), None, "is_life_science must be true/false"),
    ("publications.csv", _copy(0), _not_first, "duplicate pub_id"),
    ("pub_categories.csv", _copy(0, 1), _not_first, "duplicate category"),
    ("pub_authors.csv", _copy(0, 1), _not_first, "duplicate position"),
    ("staff.csv", _copy(0, 1, 2), _not_first, "duplicate staff entry"),
    *((name, lambda fields, earlier: [*fields, "x"], None, "wrong number of fields") for name in _LARGE_FILES),
    *((name, _set(1, "9" * 140_000), None, "field larger than field limit") for name in _LARGE_FILES),  # a csv.Error
    *(
        (name, lambda fields, earlier: [f'"{fields[0]}\nx"', *fields[1:]], None, "line break inside a field")
        for name in _LARGE_FILES
    ),
]


@settings(max_examples=150, deadline=None)
@given(
    params=st.builds(SynthParams, seed=st.integers(0, 2**32 - 1), universities=st.integers(3, 5), udas=st.just(2),
                     sds_per_uda=st.just(2)),
    block_rows=st.integers(1, 5),
    data=st.data(),
)
def test_load_reports_the_first_bad_row_in_file_order_across_blocks(tmp_path_factory, params, block_rows, data):
    root = tmp_path_factory.mktemp("faults")
    synthesize(params, root)
    name, change, applies, message = data.draw(st.sampled_from(ROW_FAULTS))
    path = root / name
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    fields = [row.split(",") for row in rows]

    def spoil(index: int, change) -> None:
        earlier = fields[data.draw(st.integers(0, index - 1))] if index else None
        rows[index] = ",".join(change(fields[index], earlier))

    first = data.draw(st.sampled_from([i for i, row in enumerate(fields) if applies is None or applies(row, i)]))
    spoil(first, change)
    # A second fault in a later row of the same or the next block must not hide the first.
    later = range(first + 1, min(len(rows), (first // block_rows + 2) * block_rows))
    second = data.draw(st.none() | st.sampled_from(later)) if later else None
    if second is not None:
        faults = [f for f in ROW_FAULTS if f[0] == name and (f[2] is None or f[2](fields[second], second))]
        spoil(second, data.draw(st.sampled_from(faults))[1])
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    with mock.patch.object(corpus_mod, "BLOCK_ROWS", block_rows), pytest.raises(ValidationError) as raised:
        load_corpus(root, WINDOW)
    assert str(raised.value).startswith(f"{name}:{first + 2}: ")  # line 1 is the header
    assert message in str(raised.value)


@settings(max_examples=10, deadline=None)
@given(params=synth_params, data=st.data())
def test_sds_productivity_bits_do_not_depend_on_share_or_roster_order(tmp_path_factory, params, data):
    root = tmp_path_factory.mktemp("order")
    synthesize(params, root)
    corpus = load_corpus(root, WINDOW)
    shares = credit_shares(corpus, compute_baselines(corpus))
    roster = list(corpus.staff)
    expected = sds_productivity(shares, roster, WINDOW)
    rng = data.draw(st.randoms(use_true_random=False))
    rng.shuffle(shares)
    rng.shuffle(roster)
    table = sds_productivity(shares, roster, WINDOW)
    assert repr(table.entries) == repr(expected.entries)
    assert repr(table.national_means) == repr(expected.national_means)


LIFE_TAXONOMY = Taxonomy({"S1": "UDA1"}, {}, frozenset({"S1"}), frozenset({"LC"}))


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
        AuthorSlot(pos, uni, None if uni is None else "S1", uni is not None) for pos, uni in sorted(owners.items())
    )
    category = "LC" if life_science else "C1"
    pub = PublicationRecord("P1", 2001, "article", 1, ((category, 1.0),), slots, n)
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
    shares = credit_shares(Corpus(WINDOW, (pub,), (), LIFE_TAXONOMY, (), ()), {(2001, category): 1.0})
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
    shares = credit_shares(corpus, baselines)
    expected = reference_credit_shares(corpus, baselines)
    assert shares == expected
    assert repr(shares) == repr(expected)  # every float bit, signs of zero too


# Ids are stripped on reading, so only stripped, non-empty ids round-trip.
ids = st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=8).map(str.strip).filter(bool)
finite = st.floats(allow_nan=False, allow_infinity=False)
# A few shared values make exact score ties common.
scores = st.one_of(finite, st.sampled_from([0.0, 1.0, 2.5]))
score_maps = st.dictionaries(ids, scores, min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(
    level=st.sampled_from(LEVELS),
    entries=st.dictionaries(st.tuples(ids, st.one_of(st.just(""), ids)), st.tuples(scores, finite), min_size=1),
)
def test_score_csv_round_trip(tmp_path_factory, level, entries):
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
