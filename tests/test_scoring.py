import math
import random
from fractions import Fraction

import pytest

from bibliorank.corpus import AuthorSlot, Corpus, PublicationRecord, Taxonomy, load_corpus
from bibliorank.scoring import class_numerators, compute_baselines, credit_shares

from conftest import minimal_rows, reference_position_weights, write_corpus

PLAIN_TAXONOMY = Taxonomy({"S1": "UDA1"}, {}, frozenset(), frozenset())
LIFE_TAXONOMY = Taxonomy({"S1": "UDA1"}, {}, frozenset({"S1"}), frozenset({"LC"}))


def make_pub(citations, categories, slots, total=None, pub_id="P1", year=2001):
    return PublicationRecord(
        pub_id=pub_id,
        year=year,
        doc_type="article",
        citations=citations,
        categories=tuple(categories),
        authors=tuple(slots),
        total_author_count=total if total is not None else len(slots),
    )


def domestic(position, university, sds="S1"):
    return AuthorSlot(position, university, sds, True)


def external(position=None):
    return AuthorSlot(position, None, None, False)


def shares_of(pub, taxonomy, baselines=None):
    """Credit shares of a one-publication corpus; every cell's divisor is 1 unless ``baselines`` are given."""
    if baselines is None:
        baselines = {(pub.year, category): 1.0 for category, _ in pub.categories}
    return credit_shares(Corpus((2001, 2003), (pub,), (), taxonomy, (), ()), baselines)


def fractions_of(pub, taxonomy):
    return {(share.university_id, share.sds_id): share.fraction for share in shares_of(pub, taxonomy)}


def value_of(pub, baselines):
    return shares_of(pub, PLAIN_TAXONOMY, baselines)[0].standardized_value


def standardized_values(corpus, baselines):
    return [share.standardized_value for share in credit_shares(corpus, baselines)]


# ---------------------------------------------------------------------------
# Baselines


def _corpus_with_citations(tmp_path, citations_by_pub):
    rows = minimal_rows()
    rows["publications"] = [
        (f"P{i}", 2001, "article", c, 1) for i, c in enumerate(citations_by_pub, start=1)
    ]
    rows["pub_categories"] = [(f"P{i}", "C1", "1.0") for i in range(1, len(citations_by_pub) + 1)]
    rows["pub_authors"] = [(f"P{i}", 1, "true", "U1", "S1") for i in range(1, len(citations_by_pub) + 1)]
    return load_corpus(write_corpus(tmp_path, **rows), (2001, 2003))


def test_baseline_odd_count_median(tmp_path):
    baselines = compute_baselines(_corpus_with_citations(tmp_path, [0, 2, 10]))
    assert baselines == {(2001, "C1"): 2.0}  # the median, not the mean 4


def test_baseline_even_count_midpoint(tmp_path):
    baselines = compute_baselines(_corpus_with_citations(tmp_path, [1, 3]))
    assert baselines[(2001, "C1")] == 2


def test_baseline_singleton(tmp_path):
    baselines = compute_baselines(_corpus_with_citations(tmp_path, [5]))
    assert baselines[(2001, "C1")] == 5


# ---------------------------------------------------------------------------
# Standardization


def test_standardize_single_category():
    pub = make_pub(10, [("C1", 1.0)], [domestic(1, "U1")])
    assert value_of(pub, {(2001, "C1"): 5.0}) == 2.0


def test_standardize_weighted_average():
    pub = make_pub(10, [("C1", 0.5), ("C2", 0.5)], [domestic(1, "U1")])
    baselines = {(2001, "C1"): 4.0, (2001, "C2"): 5.0}
    assert value_of(pub, baselines) == pytest.approx(2.25, abs=1e-12)


def test_standardize_zero_citations():
    pub = make_pub(0, [("C1", 1.0)], [domestic(1, "U1")])
    assert value_of(pub, {(2001, "C1"): 7.0}) == 0.0


def test_zero_median_falls_back_to_mean(tmp_path):
    corpus = _corpus_with_citations(tmp_path, [0, 0, 3])
    baselines = compute_baselines(corpus)
    assert baselines == {(2001, "C1"): 1.0}
    assert standardized_values(corpus, baselines) == [0.0, 0.0, 3.0]


def test_zero_median_zero_mean_zero_citations(tmp_path):
    corpus = _corpus_with_citations(tmp_path, [0, 0])
    baselines = compute_baselines(corpus)
    assert baselines == {(2001, "C1"): 0.0}
    assert standardized_values(corpus, baselines) == [0.0, 0.0]


def test_monotone_in_citations():
    baselines = {(2001, "C1"): 4.0, (2001, "C2"): 5.0}
    values = [
        value_of(make_pub(c, [("C1", 0.5), ("C2", 0.5)], [domestic(1, "U1")]), baselines)
        for c in range(6)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_scale_invariance_within_cell(tmp_path):
    corpus = _corpus_with_citations(tmp_path, [1, 3, 8])
    baselines = compute_baselines(corpus)
    values = standardized_values(corpus, baselines)
    for k in (2, 10):
        scaled = _corpus_with_citations(tmp_path / f"k{k}", [1 * k, 3 * k, 8 * k])
        scaled_baselines = compute_baselines(scaled)
        scaled_values = standardized_values(scaled, scaled_baselines)
        assert scaled_values == pytest.approx(values, abs=1e-12)


# ---------------------------------------------------------------------------
# Author fractions


def test_uniform_fraction_over_total_authors():
    pub = make_pub(1, [("C1", 1.0)], [domestic(1, "UX"), domestic(2, "UX"), domestic(3, "UY"), domestic(4, "UZ")])
    fractions = fractions_of(pub, PLAIN_TAXONOMY)
    assert fractions[("UX", "S1")] == 0.5


def test_uniform_fraction_counts_unlisted_externals():
    pub = make_pub(1, [("C1", 1.0)], [domestic(1, "UX")], total=4)
    assert fractions_of(pub, PLAIN_TAXONOMY) == {("UX", "S1"): 0.25}


def test_life_science_shared_first_last():
    pub = make_pub(
        1,
        [("LC", 1.0)],
        [domestic(1, "UX"), domestic(2, "UA"), domestic(3, "UB"), domestic(4, "UC"), domestic(5, "UX")],
    )
    fractions = fractions_of(pub, LIFE_TAXONOMY)
    assert fractions[("UX", "S1")] == pytest.approx(0.8, abs=1e-12)
    for university in ("UA", "UB", "UC"):
        assert fractions[(university, "S1")] == pytest.approx(0.2 / 3, abs=1e-12)


def test_life_science_split_first_last():
    pub = make_pub(1, [("LC", 1.0)], [domestic(i, f"U{i}") for i in range(1, 7)])
    fractions = fractions_of(pub, LIFE_TAXONOMY)
    expected = {1: 0.30, 2: 0.15, 3: 0.05, 4: 0.05, 5: 0.15, 6: 0.30}
    for position, share in expected.items():
        assert fractions[(f"U{position}", "S1")] == pytest.approx(share, abs=1e-12)


def _class_weights(n, shared):
    """Exact per-slot weights of the first, last, second, second-to-last and other positions."""
    numerators, denominator = class_numerators(n, True, shared)
    return tuple(Fraction(numerator, denominator) for numerator in numerators)


def test_life_science_short_bylines_renormalize():
    # (first, last, second, second-to-last, other); a class with no member weighs 0
    half, zero = Fraction(1, 2), Fraction(0)
    assert _class_weights(1, True) == _class_weights(1, False) == (1, 0, 0, 0, 0)
    assert _class_weights(2, True) == (half, half, zero, zero, zero)
    assert _class_weights(2, False) == (half, half, zero, zero, zero)
    assert _class_weights(3, False) == (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5), zero, zero)
    assert _class_weights(4, False) == (
        Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), zero
    )


def test_life_science_weights_total_one_without_renormalization():
    for n in range(5, 31):
        for shared in (True, False):
            first, last, second, second_last, other = _class_weights(n, shared)
            assert first + last + second + second_last + (n - 4) * other == Fraction(1)


@pytest.mark.parametrize("shared", [True, False])
def test_life_science_weights_match_the_per_position_reference(shared):
    # Every position listed, each its own university but for a shared first/last one.
    for n in range(1, 60):
        owner = {position: f"U{position:02d}" for position in range(1, n + 1)}
        if shared:
            owner[n] = owner[1]
        elif n > 1:
            owner[n] = "UX"
        pub = make_pub(1, [("LC", 1.0)], [domestic(position, owner[position]) for position in owner], total=n)
        expected: dict[tuple[str, str], Fraction] = {}
        for position, weight in reference_position_weights(n, shared).items():
            key = (owner[position], "S1")
            expected[key] = expected.get(key, Fraction(0)) + weight
        assert sum(expected.values()) == 1
        assert fractions_of(pub, LIFE_TAXONOMY) == {key: float(value) for key, value in sorted(expected.items())}


def test_life_science_weights_are_cached_and_read_only():
    numerators = class_numerators(7, True, False)
    assert class_numerators(7, True, False) is numerators
    assert class_numerators(7, True, True) is not numerators
    with pytest.raises(TypeError):
        numerators[0][1] = 1  # type: ignore[index]
    assert len(numerators[0]) == len(class_numerators(7, False, False)[0]) == 5


def test_class_numerators_sum_to_their_denominator():
    for n in range(1, 3001):
        # byline positions in each class: first, last, second, second-to-last, other
        sizes = (1, int(n >= 2), int(n >= 3), int(n >= 4), max(n - 4, 0))
        assert class_numerators(n, False, False) == ((1, 1, 1, 1, 1), n)
        for shared in (True, False):
            numerators, denominator = class_numerators(n, True, shared)
            assert sum(numerator * size for numerator, size in zip(numerators, sizes, strict=True)) == denominator
            assert class_numerators(n, True, shared) is class_numerators(n, True, shared)


def test_life_science_credit_of_a_huge_byline_costs_no_per_position_table():
    # The class numerators are five integers whatever the byline length, so this returns at once.
    n = 10**12
    pub = make_pub(1, [("LC", 1.0)], [domestic(1, "UX"), domestic(2, "UY"), domestic(n, "UZ")], total=n)
    assert fractions_of(pub, LIFE_TAXONOMY) == {
        ("UX", "S1"): 0.3, ("UY", "S1"): 0.15, ("UZ", "S1"): 0.3
    }


def test_life_science_external_first_author_selects_split_branch():
    # position 1 is an unlisted external author, so first/last cannot share
    pub = make_pub(1, [("LC", 1.0)], [domestic(3, "UX")], total=5)
    fractions = fractions_of(pub, LIFE_TAXONOMY)
    assert fractions[("UX", "S1")] == pytest.approx(0.10, abs=1e-12)


def test_single_author_gets_full_fraction():
    for taxonomy, category in ((PLAIN_TAXONOMY, "C1"), (LIFE_TAXONOMY, "LC")):
        pub = make_pub(1, [(category, 1.0)], [domestic(1, "UX")])
        assert fractions_of(pub, taxonomy) == {("UX", "S1"): 1.0}


def test_fraction_conservation_randomized():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 30)
        life = rng.random() < 0.5
        positions = list(range(1, n + 1))
        rng.shuffle(positions)
        listed = positions[: rng.randint(1, n)]
        slots = []
        for position in listed:
            if rng.random() < 0.7:
                slots.append(domestic(position, f"U{rng.randint(1, 4)}"))
            else:
                slots.append(external(position))
        if not any(s.is_domestic_academic for s in slots):
            slots[0] = domestic(slots[0].position, "U1")
        # in byline order, as the loader gives them
        pub = make_pub(1, [("LC" if life else "C1", 1.0)], sorted(slots), total=n)
        fractions = fractions_of(pub, LIFE_TAXONOMY if life else PLAIN_TAXONOMY)
        group_total = sum(fractions.values())
        residual = _external_residual(pub, life)
        assert group_total + residual == pytest.approx(1.0, abs=1e-9)


def _external_residual(pub, life):
    """Independent residual: weight carried by external or unlisted slots."""
    n = pub.total_author_count
    domestic_positions = {s.position for s in pub.authors if s.is_domestic_academic}
    if not life:
        return (n - len(domestic_positions)) / n
    by_position = {s.position: s for s in pub.authors}
    first, last = by_position.get(1), by_position.get(n)
    shared = (
        first is not None
        and last is not None
        and first.university_id is not None
        and first.university_id == last.university_id
    )
    weights = reference_position_weights(n, shared)
    return float(sum(w for pos, w in weights.items() if pos not in domestic_positions))


# ---------------------------------------------------------------------------
# Credit shares


def test_credit_shares_composition(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 1), ("P2", 2001, "article", 2, 1)]
    rows["pub_categories"] = [("P1", "C1", "1.0"), ("P2", "C1", "1.0")]
    rows["pub_authors"] = [("P1", 1, "true", "U1", "S1"), ("P2", 1, "true", "U1", "S1")]
    corpus = load_corpus(write_corpus(tmp_path, **rows), (2001, 2003))
    baselines = compute_baselines(corpus)
    shares = credit_shares(corpus, baselines)
    # median of {4, 2} is 3
    assert [(s.pub_id, s.fraction, s.standardized_value) for s in shares] == [
        ("P1", 1.0, pytest.approx(4 / 3)),
        ("P2", 1.0, pytest.approx(2 / 3)),
    ]


def test_credit_shares_split(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 2)]
    rows["pub_categories"] = [("P1", "C1", "1.0")]
    rows["pub_authors"] = [("P1", 1, "true", "U1", "S1"), ("P1", 2, "true", "U2", "S1")]
    rows["staff"] = [("R1", "U1", "S1", "3.0"), ("R2", "U2", "S1", "3.0")]
    corpus = load_corpus(write_corpus(tmp_path, **rows), (2001, 2003))
    shares = credit_shares(corpus, compute_baselines(corpus))
    assert [(s.university_id, s.fraction) for s in shares] == [("U1", 0.5), ("U2", 0.5)]
    assert math.isclose(sum(s.fraction for s in shares), 1.0)


def test_credit_shares_empty_corpus(tmp_path):
    rows = minimal_rows()
    rows["publications"] = []
    rows["pub_categories"] = []
    rows["pub_authors"] = []
    corpus = load_corpus(write_corpus(tmp_path, **rows), (2001, 2003))
    assert credit_shares(corpus, {}) == []
