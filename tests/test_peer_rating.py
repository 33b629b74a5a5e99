from fractions import Fraction

import pytest

from bibliorank.corpus import PeerOutcome
from bibliorank.peer_rating import (
    category_percentile,
    pooled_university_ratings,
    rate_outcomes,
    rating_key,
    read_rated_csv,
    vtr_rating,
    write_rated_csv,
)

# Table 1 layout: (university, T, E, G, A, L, rating, percentile)
TABLE_1 = [
    ("Sissa", 3, 3, 0, 0, 0, 1.000, 100.0),
    ("Sannio", 1, 1, 0, 0, 0, 1.000, 100.0),
    ("Rome Tor Vergata", 23, 17, 5, 1, 0, 0.939, 96.15),
    ("Milan", 28, 17, 10, 1, 0, 0.914, 92.31),
    ("Bari Polytechnic", 7, 4, 3, 0, 0, 0.914, 92.31),
    ("Milan Polytechnic", 25, 16, 7, 2, 0, 0.912, 90.38),
    ("Insubria", 6, 3, 3, 0, 0, 0.900, 86.54),
    ("Verona", 4, 2, 2, 0, 0, 0.900, 86.54),
    ("Pisa", 42, 22, 18, 2, 0, 0.895, 84.62),
    ("Turin Polytechnic", 19, 9, 10, 0, 0, 0.894, 82.69),
]
CATEGORY_SIZE = 53  # solves 100*(n-3)/(n-1) = 96.15 for the printed third row


def outcome(university, t, e, g, a, l, uda="math"):
    assert e + g + a + l == t  # T, the submitted outputs, as Table 1 prints it
    return PeerOutcome(university, uda, e, g, a, l)


def table_1_category():
    """The ten printed rows plus 43 distinct lower-rated fillers."""
    outcomes = [outcome(u, t, e, g, a, l) for u, t, e, g, a, l, _, _ in TABLE_1]
    fillers = [
        PeerOutcome(f"Filler{i:02d}", "math", 0, i, 0, 100 - i) for i in range(43)
    ]  # ratings 0.2 .. 0.452, all below the printed rows
    return outcomes + fillers


def test_vtr_rating_tor_vergata():
    assert vtr_rating(outcome("TV", 23, 17, 5, 1, 0)) == pytest.approx(0.939, abs=0.001)


def test_vtr_rating_bari_polytechnic():
    assert vtr_rating(outcome("BA", 7, 4, 3, 0, 0)) == pytest.approx(0.914, abs=0.001)


def test_vtr_rating_all_limited_floor():
    assert vtr_rating(outcome("X", 1, 0, 0, 0, 1)) == 0.2


def test_rating_invariant_to_count_scaling():
    base = outcome("X", 7, 4, 3, 0, 0)
    for k in (2, 5, 11):
        scaled = outcome("X", 7 * k, 4 * k, 3 * k, 0, 0)
        assert rating_key(scaled) == rating_key(base)
        assert vtr_rating(scaled) == vtr_rating(base)


def test_rating_bounds():
    assert vtr_rating(outcome("X", 4, 4, 0, 0, 0)) == 1.0
    assert vtr_rating(outcome("X", 4, 0, 0, 0, 4)) == pytest.approx(0.2)


def test_equal_ratings_from_different_counts_share_a_tie_block():
    milan = rating_key(outcome("Milan", 28, 17, 10, 1, 0))
    bari = rating_key(outcome("Bari", 7, 4, 3, 0, 0))
    assert milan == bari == Fraction(32, 35)


def test_category_percentile_two_entities():
    assert category_percentile([("A", 2.0), ("B", 1.0)]) == {"A": 100.0, "B": 0.0}


def test_category_percentile_single_entity():
    assert category_percentile([("A", 0.7)]) == {"A": 100.0}


def test_category_percentile_top_ties_all_get_100():
    result = category_percentile([("A", 1.0), ("B", 1.0), ("C", 0.5), ("D", 0.2)])
    assert result["A"] == result["B"] == 100.0
    assert result["C"] == pytest.approx(100 * 1 / 3)
    assert result["D"] == 0.0


def test_category_percentile_non_top_ties_use_worst_position():
    result = category_percentile([("A", 1.0), ("B", 0.5), ("C", 0.5), ("D", 0.2)])
    # B and C occupy positions 2-3; both use position 3
    assert result["B"] == result["C"] == pytest.approx(100 * (4 - 3) / 3)


def test_percentiles_weakly_decreasing_with_min_zero():
    values = [("E%d" % i, 1.0 - 0.01 * i) for i in range(10)]
    result = category_percentile(values)
    ordered = [result[f"E{i}"] for i in range(10)]
    assert ordered[0] == 100.0
    assert ordered[-1] == 0.0
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))


def test_table_1_reproduction():
    rated = rate_outcomes(table_1_category())
    by_university = {r.university_id: r for r in rated}
    for university, _, _, _, _, _, printed_rating, printed_percentile in TABLE_1:
        r = by_university[university]
        assert r.R == pytest.approx(printed_rating, abs=0.001), university
        if printed_percentile == 100.0:
            assert r.category_percentile == 100.0, university
        else:
            assert r.category_percentile == pytest.approx(printed_percentile, abs=0.01), university


def test_rate_outcomes_groups_by_uda():
    outcomes = [outcome("A", 1, 1, 0, 0, 0, uda="math"), outcome("A", 1, 0, 0, 0, 1, uda="phys")]
    rated = rate_outcomes(outcomes)
    assert [(r.uda_id, r.R) for r in rated] == [("math", 1.0), ("phys", 0.2)]
    assert all(r.category_percentile == 100.0 for r in rated)  # singleton categories


def test_pooled_university_ratings():
    outcomes = [
        outcome("A", 2, 2, 0, 0, 0, uda="math"),  # rating 1.0
        outcome("A", 2, 0, 0, 0, 2, uda="phys"),  # rating 0.2
        outcome("B", 1, 0, 1, 0, 0, uda="math"),
    ]
    pooled = pooled_university_ratings(outcomes)
    assert pooled["A"] == pytest.approx(0.6)  # (2*1.0 + 2*0.2) / 4
    assert pooled["B"] == pytest.approx(0.8)


def test_rated_file_round_trips(tmp_path):
    rated = rate_outcomes(table_1_category())
    path = tmp_path / "vtr_ratings.csv"
    write_rated_csv(rated, path)
    assert read_rated_csv(path) == rated
    assert {r.category_percentile for r in rated} >= {0.0, 100.0}
