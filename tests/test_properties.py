"""Properties of the score and ranking files, of tie-averaged ranking and of pairwise comparison."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank.corpus import HIGHER_IS_BETTER, LOWER_IS_BETTER
from bibliorank.errors import ValidationError
from bibliorank.productivity import LEVELS, ScoreEntry, ScoreTable, read_score_csv, write_score_csv
from bibliorank.rankcmp import build_ranking, compare_rankings, read_ranking_csv, write_ranking_csv

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
    assert (forward.n, forward.shifts) == (backward.n, backward.shifts)
