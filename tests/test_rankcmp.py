import csv
import io
import itertools
import json
import math
import random

import pytest
from scipy import stats

from bibliorank import rankcmp
from bibliorank.corpus import HIGHER_IS_BETTER, LOWER_IS_BETTER
from bibliorank.errors import ValidationError
from bibliorank.rankcmp import (
    build_ranking,
    compare_rankings,
    correlation_matrix,
    quartile_classify,
    read_ranking_csv,
    render_comparison,
    render_matrix,
    restrict_ranking,
    shift_distribution,
    spearman,
    strength_label,
    top_k_size,
    topk_overlap,
    write_ranking_csv,
)


def ranking_from_order(entities, label="r", best_first=True):
    """Ranking where the given entity order is best-to-worst."""
    n = len(entities)
    scores = {e: (n - i if best_first else i) for i, e in enumerate(entities)}
    return build_ranking(scores, HIGHER_IS_BETTER, label=label)


# ---------------------------------------------------------------------------
# build_ranking


def test_build_ranking_sorts_by_score():
    r = build_ranking({"A": 3.0, "B": 1.0, "C": 2.0})
    assert [(e.entity_id, e.rank) for e in r.entries] == [("A", 1.0), ("C", 2.0), ("B", 3.0)]


def test_build_ranking_average_ranks_for_ties():
    for direction in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
        r = build_ranking({"A": 2.0, "B": 2.0}, direction)
        assert [e.rank for e in r.entries] == [1.5, 1.5]


def test_build_ranking_latitude_is_north_first():
    r = build_ranking({"Milan": 45.46, "Rome": 41.9, "Palermo": 38.1}, HIGHER_IS_BETTER, "LAT")
    assert r.entity_ids() == ["Milan", "Rome", "Palermo"]


def test_build_ranking_lower_is_better():
    r = build_ranking({"A": 3.0, "B": 1.0}, LOWER_IS_BETTER)
    assert r.entity_ids() == ["B", "A"]


def test_build_ranking_rejects_nan():
    with pytest.raises(ValidationError, match="NaN"):
        build_ranking({"A": float("nan")})


def test_build_ranking_rejects_empty():
    with pytest.raises(ValidationError, match="no entities"):
        build_ranking({})


def test_ranks_are_one_to_n_with_tie_averages():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 40)
        scores = {f"e{i}": rng.choice([1.0, 2.0, 3.0, 4.0]) for i in range(n)}
        r = build_ranking(scores)
        assert sum(e.rank for e in r.entries) == pytest.approx(n * (n + 1) / 2)


# ---------------------------------------------------------------------------
# alignment inside compare_rankings


def test_align_identical_sets_has_no_drops():
    a = ranking_from_order(["A", "B", "C", "D"])
    b = ranking_from_order(["D", "C", "B", "A"])
    report = compare_rankings(a, b)
    assert report.dropped_a == () and report.dropped_b == ()
    assert report.n == 4


def test_align_small_intersection_is_an_error():
    a = ranking_from_order(["A", "B", "C", "D"], label="a")
    b = ranking_from_order(["B", "C", "D", "E"], label="b")
    with pytest.raises(ValidationError, match="too few common entities between 'a' and 'b': 3 < 4"):
        compare_rankings(a, b)


def test_align_drops_non_common_entities():
    a = ranking_from_order([f"U{i:02d}" for i in range(66)])
    b = ranking_from_order([f"U{i:02d}" for i in range(5, 66)])
    report = compare_rankings(a, b)
    assert report.n == 61
    assert report.dropped_a == tuple(f"U{i:02d}" for i in range(5))
    assert report.dropped_b == ()


def test_align_reranks_within_intersection():
    a = ranking_from_order(["A", "B", "C", "D", "E"])
    b = ranking_from_order(["E", "D", "C", "A"])
    keep = {"A", "C", "D", "E"}
    restricted = restrict_ranking(a, keep)
    assert [e.rank for e in restricted.entries] == [1.0, 2.0, 3.0, 4.0]
    report = compare_rankings(a, b)
    assert report.dropped_a == ("B",)
    assert report.rho == -1.0


def test_compare_rankings_rejects_a_side_that_ties_throughout():
    a = build_ranking({"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0, "E": 2.0}, label="flat")
    b = ranking_from_order(["A", "B", "C", "D"], label="other")
    with pytest.raises(ValidationError, match="ranking 'flat': all 4 entities it shares with 'other' tie"):
        compare_rankings(a, b)
    with pytest.raises(ValidationError, match="ranking 'flat'"):
        compare_rankings(b, a)


def test_each_pair_is_restricted_twice_and_correlated_once(monkeypatch):
    calls = {"spearman": 0, "restrict_ranking": 0}

    def counting(name):
        original = getattr(rankcmp, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(rankcmp, name, counting(name))
    rng = random.Random(41)
    base = [f"e{i:02d}" for i in range(12)]
    rankings = [ranking_from_order(rng.sample(base, len(base)), label=f"L{i}") for i in range(5)]
    reports = [compare_rankings(a, b) for a, b in itertools.combinations(rankings, 2)]
    correlation_matrix(rankings, reports)
    assert calls == {"spearman": 10, "restrict_ranking": 20}


def test_restrict_preserves_ties():
    r = build_ranking({"A": 2.0, "B": 2.0, "C": 1.0, "D": 0.5})
    restricted = restrict_ranking(r, {"A", "B", "D"})
    assert [(e.entity_id, e.rank) for e in restricted.entries] == [("A", 1.5), ("B", 1.5), ("D", 3.0)]


# ---------------------------------------------------------------------------
# spearman


def closed_form_rho(ranks_a, ranks_b):
    n = len(ranks_a)
    d2 = sum((x - y) ** 2 for x, y in zip(ranks_a, ranks_b))
    return 1 - 6 * d2 / (n * (n * n - 1))


def test_spearman_identity():
    rho, p = spearman([1, 2, 3, 4], [1, 2, 3, 4])
    assert rho == 1.0 and p == 0.0


def test_spearman_reversal():
    rho, p = spearman([1, 2, 3, 4], [4, 3, 2, 1])
    assert rho == -1.0 and p == 0.0


def test_spearman_hand_example():
    rho, _ = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    assert rho == pytest.approx(0.8, abs=1e-12)
    assert closed_form_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_matches_closed_form_on_permutations():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(4, 40)
        ranks_a = list(range(1, n + 1))
        ranks_b = list(range(1, n + 1))
        rng.shuffle(ranks_b)
        rho, _ = spearman(ranks_a, ranks_b)
        assert abs(rho - closed_form_rho(ranks_a, ranks_b)) < 1e-9


def test_spearman_p_value_matches_scipy():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(5, 30)
        ranks_b = list(range(1, n + 1))
        rng.shuffle(ranks_b)
        rho, p = spearman(list(range(1, n + 1)), ranks_b)
        expected_rho, expected_p = stats.spearmanr(list(range(1, n + 1)), ranks_b)
        assert rho == pytest.approx(expected_rho, abs=1e-12)
        if abs(rho) < 1.0:
            assert p == pytest.approx(expected_p, abs=1e-9)


def test_spearman_zero_variance_is_flagged():
    with pytest.raises(ValueError, match="zero rank variance"):
        spearman([1.5, 1.5, 1.5], [1, 2, 3])


def test_spearman_needs_three_pairs():
    with pytest.raises(ValueError, match="at least 3"):
        spearman([1, 2], [2, 1])


def test_strength_labels():
    assert strength_label(0.6291) == "strong"
    assert strength_label(0.29) == "small"
    assert strength_label(0.0) == "negligible"
    assert strength_label(0.1) == "small"
    assert strength_label(-0.3) == "moderate"
    assert strength_label(0.5) == "strong"
    assert strength_label(-1.0) == "strong"
    with pytest.raises(ValueError):
        strength_label(1.01)


# ---------------------------------------------------------------------------
# quartiles, shifts, top-k


def test_quartile_sizes_n61():
    r = ranking_from_order([f"e{i:02d}" for i in range(61)])
    classes = quartile_classify(r)
    sizes = {q: sum(1 for v in classes.values() if v == q) for q in (4, 3, 2, 1)}
    assert sizes == {4: 15, 3: 15, 2: 15, 1: 16}


def test_quartile_n4_one_each():
    r = ranking_from_order(["A", "B", "C", "D"])
    assert quartile_classify(r) == {"A": 4, "B": 3, "C": 2, "D": 1}


def test_quartile_needs_four_entities():
    with pytest.raises(ValueError, match="at least 4"):
        quartile_classify(ranking_from_order(["A", "B", "C"]))


def test_quartile_boundary_tie_resolved_by_entity_id():
    # B and C tie at the Q4/Q3 boundary of n=4; display order puts B first
    r = build_ranking({"A": 3.0, "B": 2.0, "C": 2.0, "D": 1.0})
    classes = quartile_classify(r)
    assert classes["B"] == 3 and classes["C"] == 2  # positions 2 and 3


def test_shift_distribution_identity():
    q = {f"e{i}": 1 + i % 4 for i in range(8)}
    dist = shift_distribution(q, q)
    assert dist.frequencies[0] == 1.0
    assert dist.cumulative[0] == 1.0


def test_shift_distribution_constructed_counts():
    # shifts: four 0s, two 1s, one 2, one 3
    q_a = {"a": 4, "b": 4, "c": 3, "d": 3, "e": 2, "f": 2, "g": 1, "h": 4}
    q_b = {"a": 4, "b": 4, "c": 3, "d": 3, "e": 3, "f": 1, "g": 3, "h": 1}
    dist = shift_distribution(q_a, q_b)
    assert dist.counts == {0: 4, 1: 2, 2: 1, 3: 1}
    assert dist.frequencies == {0: 0.5, 1: 0.25, 2: 0.125, 3: 0.125}
    assert dist.cumulative == {0: 0.5, 1: 0.75, 2: 0.875, 3: 1.0}


def test_shift_distribution_symmetric():
    rng = random.Random(23)
    q_a = {f"e{i}": rng.randint(1, 4) for i in range(61)}
    q_b = {f"e{i}": rng.randint(1, 4) for i in range(61)}
    assert shift_distribution(q_a, q_b) == shift_distribution(q_b, q_a)


def test_shift_distribution_mismatched_sets():
    with pytest.raises(ValueError, match="mismatched"):
        shift_distribution({"a": 1}, {"b": 1})


def test_top_k_sizes_match_table_11():
    ks = [top_k_size(pct, 61) for pct in (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)]
    assert ks == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30]


def test_topk_identical_rankings_have_no_variation():
    r = ranking_from_order([f"e{i:02d}" for i in range(61)])
    rows = topk_overlap(r, r)
    assert all(row.variations == 0 for row in rows)
    assert all(not row.empty for row in rows)


def test_topk_disjoint_top3():
    order_a = [f"e{i:02d}" for i in range(61)]
    order_b = order_a[3:6] + order_a[0:3] + order_a[6:]
    a = ranking_from_order(order_a)
    b = ranking_from_order(order_b)
    row = topk_overlap(a, b, [5])[0]
    assert (row.k, row.variations, row.variation_pct) == (3, 3, 100.0)


def test_topk_zero_k_flagged_empty():
    r = ranking_from_order([f"e{i}" for i in range(10)])
    row = topk_overlap(r, r, [5])[0]  # floor(0.5) = 0
    assert row.empty and row.k == 0


def test_topk_requires_common_entity_set():
    a = ranking_from_order(["A", "B", "C", "D"])
    b = ranking_from_order(["A", "B", "C", "E"])
    with pytest.raises(ValueError, match="common entity set"):
        topk_overlap(a, b)


def test_topk_variations_bounded_and_nested():
    rng = random.Random(29)
    order = [f"e{i:02d}" for i in range(61)]
    shuffled = order[:]
    rng.shuffle(shuffled)
    a = ranking_from_order(order)
    b = ranking_from_order(shuffled)
    rows = topk_overlap(a, b)
    previous_k = 0
    for row in rows:
        assert row.variations <= row.k
        assert row.k >= previous_k
        previous_k = row.k


# ---------------------------------------------------------------------------
# matrix and full comparison


def matrix_of(rankings):
    reports = [compare_rankings(a, b) for a, b in itertools.combinations(rankings, 2)]
    return correlation_matrix(rankings, reports)


def test_correlation_matrix_single_pair():
    a = ranking_from_order(["A", "B", "C", "D"], label="P")
    b = ranking_from_order(["D", "C", "B", "A"], label="VTR")
    m = matrix_of([a, b])
    assert m.rho[0][0] == m.rho[1][1] == 1.0
    assert m.rho[0][1] == pytest.approx(-1.0)
    assert m.rho[0][1] == m.rho[1][0]
    assert m.n_common[0][1] == 4


def test_correlation_matrix_three_rankings_match_pairwise():
    rng = random.Random(31)
    orders = []
    base = [f"e{i:02d}" for i in range(20)]
    for _ in range(3):
        order = base[:]
        rng.shuffle(order)
        orders.append(order[: rng.randint(15, 20)])
    rankings = [ranking_from_order(order, label=f"L{i}") for i, order in enumerate(orders)]
    m = matrix_of(rankings)
    for i in range(3):
        for j in range(i + 1, 3):
            common = set(orders[i]) & set(orders[j])
            ranks_i = restrict_ranking(rankings[i], common).ranks()
            ranks_j = restrict_ranking(rankings[j], common).ranks()
            entities = sorted(common)
            rho, p = spearman([ranks_i[e] for e in entities], [ranks_j[e] for e in entities])
            assert m.rho[i][j] == m.rho[j][i] == rho
            assert m.p_values[i][j] == m.p_values[j][i] == p
            assert m.significant[i][j] == (p < 0.05)
            assert m.n_common[i][j] == len(common)
        assert m.n_common[i][i] == len(orders[i])


def test_correlation_matrix_needs_two_rankings():
    with pytest.raises(ValueError):
        correlation_matrix([ranking_from_order(["A", "B", "C", "D"])], [])


def test_correlation_matrix_needs_one_report_per_pair():
    rankings = [ranking_from_order(["A", "B", "C", "D"], label=label) for label in "XYZ"]
    reports = [compare_rankings(rankings[0], rankings[1])]
    with pytest.raises(ValueError):
        correlation_matrix(rankings, reports)


def test_correlation_matrix_duplicate_labels_rejected():
    a = ranking_from_order(["A", "B", "C", "D"], label="P")
    b = ranking_from_order(["D", "C", "B", "A"], label="P")
    with pytest.raises(ValidationError, match="duplicate"):
        matrix_of([a, b])


def test_compare_rankings_report():
    order = [f"e{i:02d}" for i in range(61)]
    a = ranking_from_order(order, label="P")
    b = ranking_from_order(list(reversed(order)), label="LAT")
    report = compare_rankings(a, b)
    assert report.n == 61
    assert report.rho == pytest.approx(-1.0)
    assert report.strength == "strong"
    # reversal sends all of Q4 to Q1 and vice versa
    assert report.shifts.counts == {0: 1, 1: 28, 2: 2, 3: 30}
    assert report.topk_rows[0].variations == 3


def test_monotone_transform_invariance():
    rng = random.Random(37)
    scores = {f"e{i:02d}": rng.uniform(0, 10) for i in range(30)}
    base = build_ranking(scores, HIGHER_IS_BETTER, "base")
    transformed = build_ranking(
        {e: math.exp(0.3 * v) + 5 for e, v in scores.items()}, HIGHER_IS_BETTER, "base"
    )
    assert [e.entity_id for e in base.entries] == [e.entity_id for e in transformed.entries]
    assert [e.rank for e in base.entries] == [e.rank for e in transformed.entries]
    other = build_ranking({e: rng.uniform(0, 1) for e in scores}, HIGHER_IS_BETTER, "other")
    r1 = compare_rankings(base, other)
    r2 = compare_rankings(transformed, other)
    assert r1.rho == pytest.approx(r2.rho)
    assert r1.shifts == r2.shifts
    assert r1.topk_rows == r2.topk_rows


# ---------------------------------------------------------------------------
# files and rendering


def test_ranking_csv_round_trip(tmp_path):
    r = build_ranking({"A": 2.5, "B": 2.5, "C": 1.0}, label="demo")
    path = tmp_path / "demo.csv"
    write_ranking_csv(r, path)
    loaded = read_ranking_csv(path)
    assert loaded.label == "demo"
    assert loaded.entries == r.entries


def test_read_ranking_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="expected header"):
        read_ranking_csv(path)


@pytest.mark.parametrize(
    "ranks, line, entity, expected",
    [
        ("1.0,1.0,1.0,1.0", 2, "A", "2.5"),
        ("1.0,2.0,2.0,4.0", 3, "B", "2.5"),
        ("1.0,2.0,3.0,5.0", 5, "D", "4.0"),
        ("0.0,1.0,2.0,3.0", 2, "A", "1.0"),
    ],
)
def test_read_ranking_rejects_ranks_that_are_not_tie_averaged(tmp_path, ranks, line, entity, expected):
    path = tmp_path / "bad.csv"
    rows = "".join(f"{e},1.0,{rank}\n" for e, rank in zip("ABCD", ranks.split(",")))
    path.write_text("entity_id,score,rank\n" + rows, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"bad.csv:{line}: entity '{entity}' has rank .* position {expected}$"):
        read_ranking_csv(path)


def test_render_matrix_csv_quotes_labels():
    labels = ["GDP, 2003", 'say "P"']
    rankings = [ranking_from_order([f"e{i:02d}" for i in range(20)], label=label) for label in labels]
    rows = list(csv.reader(io.StringIO(render_matrix(matrix_of(rankings), "csv"))))
    assert {len(row) for row in rows} == {6}
    assert [row[:2] for row in rows[1:]] == [[a, b] for a in labels for b in labels]


def test_render_matrix_formats():
    a = ranking_from_order([f"e{i:02d}" for i in range(20)], label="P")
    b = ranking_from_order([f"e{i:02d}" for i in range(20)], label="NI")
    m = matrix_of([a, b])
    md = render_matrix(m, "markdown")
    assert "1.0000" in md and "| P" in md and "* p-value < 0.05" in md
    assert "1.0000*" in md  # identical rankings correlate significantly
    csv_text = render_matrix(m, "csv")
    assert csv_text.splitlines()[0] == "row,column,rho,p_value,significant,n_common"
    payload = json.loads(render_matrix(m, "json"))
    assert payload["labels"] == ["P", "NI"]
    with pytest.raises(ValueError):
        render_matrix(m, "html")


def test_render_comparison_formats():
    order = [f"e{i:02d}" for i in range(61)]
    a = ranking_from_order(order, label="P")
    b = ranking_from_order(list(reversed(order)), label="VTR")
    report = compare_rankings(a, b)
    md = render_comparison(report, "markdown")
    assert "P vs VTR" in md and "out of 3" in md and "Common entities: 61" in md
    csv_text = render_comparison(report, "csv")
    assert csv_text.startswith("# comparison P vs VTR")
    payload = json.loads(render_comparison(report, "json"))
    assert payload["n"] == 61 and payload["rho"] == pytest.approx(-1.0)


def test_spearman_p_value_is_bitwise_scipy_t_sf():
    # The narrow scipy.special import must give the exact bits of stats.t.sf.
    rng = random.Random(23)
    for n in (3, 4, 5, 7, 10, 20, 31, 60, 100, 500):
        for _ in range(40):
            ranks_b = list(range(1, n + 1))
            rng.shuffle(ranks_b)
            rho, p = spearman(list(range(1, n + 1)), ranks_b)
            if abs(rho) == 1.0:
                continue
            t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            assert p == min(1.0, 2.0 * float(stats.t.sf(abs(t), n - 2)))
