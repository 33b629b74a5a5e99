import logging
import random
import re

import pytest

from bibliorank import corpus as corpus_mod
from bibliorank import productivity
from bibliorank.corpus import SCHEMAS, StaffEntry, Taxonomy, load_corpus
from bibliorank.errors import ValidationError
from bibliorank.productivity import (
    ScoreEntry,
    ScoreTable,
    filter_eligible_sds,
    macro_uda_productivity,
    read_score_csv,
    score_corpus,
    sds_productivity,
    uda_productivity,
    university_productivity,
    write_score_csv,
)
from conftest import Share, credit_table, minimal_rows, share_rows, write_corpus

WINDOW = (2001, 2003)


def staff(researcher, university="U1", sds="S1", years=3.0):
    return StaffEntry(researcher, university, sds, years)


def share(university="U1", sds="S1", fraction=1.0, value=1.0):
    return Share(university, sds, fraction, value)


def test_staff_equivalent_full_window():
    roster = [staff("R1"), staff("R2")]
    assert sds_productivity(credit_table([]), roster, WINDOW).entries[("U1", "S1")].RS == 2.0


def test_staff_equivalent_partial_years():
    table = sds_productivity(credit_table([]), [staff("R1", years=2.0)], WINDOW)
    assert table.entries[("U1", "S1")].RS == pytest.approx(2 / 3)


def test_staff_equivalent_no_match():
    assert ("U9", "S1") not in sds_productivity(credit_table([]), [staff("R1")], WINDOW).entries


# ---------------------------------------------------------------------------
# Eligibility


def _corpus_with_staff(tmp_path, n_staff, n_publishing):
    """n_staff researchers in S1, one per university; the first n_publishing publish."""
    rows = minimal_rows()
    rows["staff"] = [(f"R{i}", f"U{i}", "S1", "3.0") for i in range(1, n_staff + 1)]
    rows["publications"] = [(f"P{i}", 2001, "article", 1, 1) for i in range(1, n_publishing + 1)]
    rows["pub_categories"] = [(f"P{i}", "C1", "1.0") for i in range(1, n_publishing + 1)]
    rows["pub_authors"] = [(f"P{i}", 1, "true", f"U{i}", "S1") for i in range(1, n_publishing + 1)]
    directory = write_corpus(tmp_path, **rows)
    corpus = load_corpus(directory, WINDOW)
    shares = credit_table(share(university=f"U{i}") for i in range(1, n_publishing + 1))
    return corpus, shares


def test_eligibility_boundary_is_inclusive(tmp_path):
    corpus, shares = _corpus_with_staff(tmp_path, 4, 2)
    report = filter_eligible_sds(corpus, shares)
    assert report["S1"].active_fraction == 0.5
    assert report["S1"].eligible


def test_eligibility_below_threshold(tmp_path):
    corpus, shares = _corpus_with_staff(tmp_path, 4, 1)
    report = filter_eligible_sds(corpus, shares)
    assert report["S1"].active_fraction == 0.25
    assert not report["S1"].eligible


def test_eligibility_no_staff(tmp_path):
    rows = minimal_rows()
    rows["taxonomy"].append(("S_EMPTY", "UDA1", "false"))
    corpus = load_corpus(write_corpus(tmp_path, **rows), WINDOW)
    report = filter_eligible_sds(corpus, credit_table([]))
    assert report["S_EMPTY"].active_fraction == 0.0
    assert not report["S_EMPTY"].eligible


def test_researcher_with_two_affiliations_in_an_sds_counts_once(tmp_path):
    rows = minimal_rows()
    rows["taxonomy"].append(("S2", "UDA1", "false"))
    # R1 is in S1 at U1, which does not publish, and at U2, which does; an S2 affiliation sorts between the two.
    rows["staff"] = [("R1", "U2", "S1", "3.0"), ("R2", "U3", "S1", "3.0"), ("R1", "U1", "S2", "3.0"),
                     ("R1", "U1", "S1", "3.0")]
    rows["pub_authors"] = [("P1", 1, "true", "U2", "S1")]
    corpus = load_corpus(write_corpus(tmp_path, **rows), WINDOW)
    report = filter_eligible_sds(corpus, credit_table([share(university="U2")]))
    assert report["S1"] == (2, 1, 0.5, True)
    assert report["S2"] == (1, 0, 0.0, False)
    # With U1 publishing too, both of R1's S1 affiliations are active, and R1 is still one active researcher.
    report = filter_eligible_sds(corpus, credit_table([share(university="U1"), share(university="U2")]))
    assert report["S1"] == (2, 1, 0.5, True)


# ---------------------------------------------------------------------------
# SDS productivity


def test_sds_productivity_hand_example():
    roster = [staff("R1"), staff("R2")]  # RS = 2
    shares = credit_table([share(value=2.0, fraction=1.0), share(value=1.0, fraction=0.5)])
    table = sds_productivity(shares, roster, WINDOW)
    assert table.entries[("U1", "S1")] == ScoreEntry(pytest.approx(1.25), 2.0)


def test_sds_productivity_inactive_university_scores_zero():
    table = sds_productivity(credit_table([]), [staff("R1")], WINDOW)
    assert table.entries[("U1", "S1")].P == 0.0


def test_sds_productivity_singleton_national_mean():
    roster = [staff("R1"), staff("R2")]
    shares = credit_table([share(value=2.0), share(value=1.0, fraction=0.5)])
    table = sds_productivity(shares, roster, WINDOW)
    assert table.national_means["S1"] == pytest.approx(1.25)


def test_national_mean_includes_silent_universities():
    roster = [staff("R1", "U1"), staff("R2", "U2")]
    shares = credit_table([share(university="U1", value=2.0)])
    table = sds_productivity(shares, roster, WINDOW)
    # U1 scores 2.0, U2 scores 0; unweighted mean over both
    assert table.national_means["S1"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Aggregation


def _sds_table(entries, means):
    return ScoreTable(level="sds", entries=entries, national_means=means)


TAXONOMY = Taxonomy(
    {"S1": "UDA1", "S2": "UDA1", "S3": "UDA2"},
    {"UDA1": "M1", "UDA2": "M1"},
    frozenset(),
)


def test_uda_normalization_identity():
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(1.5, 2.0), ("U1", "S2"): ScoreEntry(0.25, 5.0)},
        {"S1": 1.5, "S2": 0.25},
    )
    result = uda_productivity(table, TAXONOMY)
    assert result.entries[("U1", "UDA1")].P == pytest.approx(1.0, abs=1e-12)
    assert result.entries[("U1", "UDA1")].RS == 7.0


def test_uda_single_sds_collapse():
    table = _sds_table({("U1", "S1"): ScoreEntry(2.0, 4.0)}, {"S1": 1.0})
    result = uda_productivity(table, TAXONOMY)
    assert result.entries[("U1", "UDA1")].P == pytest.approx(2.0)


def test_uda_weighted_example():
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(2.0, 1.0), ("U1", "S2"): ScoreEntry(0.0, 3.0)},
        {"S1": 1.0, "S2": 1.0},
    )
    result = uda_productivity(table, TAXONOMY)
    assert result.entries[("U1", "UDA1")].P == pytest.approx(0.5)


def test_zero_mean_sds_dropped_with_warning(caplog):
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(2.0, 1.0), ("U1", "S2"): ScoreEntry(0.0, 3.0)},
        {"S1": 1.0, "S2": 0.0},
    )
    with caplog.at_level(logging.WARNING):
        result = uda_productivity(table, TAXONOMY)
    assert result.entries[("U1", "UDA1")] == ScoreEntry(pytest.approx(2.0), 1.0)
    assert "national mean productivity is 0" in caplog.text


def test_university_level_sums_across_udas():
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(2.0, 1.0), ("U1", "S3"): ScoreEntry(0.0, 3.0)},
        {"S1": 1.0, "S3": 1.0},
    )
    result = university_productivity(table)
    assert result.entries[("U1", "")].P == pytest.approx(0.5)
    assert result.level == "university"


def test_macro_singleton_merge_matches_uda():
    taxonomy = Taxonomy({"S1": "UDA1"}, {"UDA1": "M_ONLY"}, frozenset())
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(2.0, 1.0), ("U2", "S1"): ScoreEntry(1.0, 2.0)},
        {"S1": 1.5},
    )
    uda = uda_productivity(table, taxonomy)
    macro = macro_uda_productivity(table, taxonomy)
    assert macro.entries[("U1", "M_ONLY")].P == pytest.approx(uda.entries[("U1", "UDA1")].P)
    assert macro.entries[("U2", "M_ONLY")].P == pytest.approx(uda.entries[("U2", "UDA1")].P)


def test_macro_merges_multiple_udas():
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(2.0, 1.0), ("U1", "S3"): ScoreEntry(1.0, 1.0)},
        {"S1": 1.0, "S3": 1.0},
    )
    macro = macro_uda_productivity(table, TAXONOMY)
    assert macro.entries[("U1", "M1")].P == pytest.approx(1.5)


def test_macro_skips_unmapped_uda(caplog):
    taxonomy = Taxonomy({"S1": "UDA1", "S3": "UDA2"}, {"UDA1": "M1"}, frozenset())
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(2.0, 1.0), ("U2", "S3"): ScoreEntry(1.0, 1.0)},
        {"S1": 1.0, "S3": 1.0},
    )
    with caplog.at_level(logging.WARNING):
        macro = macro_uda_productivity(table, taxonomy)
    assert ("U1", "M1") in macro.entries
    assert all(university != "U2" for university, _ in macro.entries)
    assert "no unit mapping" in caplog.text


def test_university_absent_from_components_absent_from_macro():
    table = _sds_table({("U1", "S1"): ScoreEntry(2.0, 1.0)}, {"S1": 1.0})
    macro = macro_uda_productivity(table, TAXONOMY)
    assert list(macro.entries) == [("U1", "M1")]


def test_weighted_mean_bounds_randomized():
    rng = random.Random(11)
    for _ in range(200):
        n_sds = rng.randint(1, 6)
        entries = {}
        means = {}
        ratios = []
        for i in range(n_sds):
            sds = f"S{i}"
            means[sds] = rng.uniform(0.1, 3.0)
            p = rng.uniform(0.0, 4.0)
            entries[("U1", sds)] = ScoreEntry(p, rng.uniform(0.1, 5.0))
            ratios.append(p / means[sds])
        taxonomy = Taxonomy({f"S{i}": "UDA1" for i in range(n_sds)}, {}, frozenset())
        result = uda_productivity(_sds_table(entries, means), taxonomy)
        value = result.entries[("U1", "UDA1")].P
        assert min(ratios) - 1e-12 <= value <= max(ratios) + 1e-12


def test_normalization_identity_randomized():
    rng = random.Random(13)
    for _ in range(100):
        n_sds = rng.randint(1, 5)
        n_universities = rng.randint(2, 6)
        entries = {}
        means = {}
        for i in range(n_sds):
            sds = f"S{i}"
            level = rng.uniform(0.2, 3.0)
            means[sds] = level
            for u in range(n_universities):
                entries[(f"U{u}", sds)] = ScoreEntry(level, rng.uniform(0.5, 4.0))
        taxonomy = Taxonomy({f"S{i}": "UDA1" for i in range(n_sds)}, {}, frozenset())
        table = _sds_table(entries, means)
        for result, unit in ((uda_productivity(table, taxonomy), "UDA1"), (university_productivity(table), "")):
            for u in range(n_universities):
                assert result.entries[(f"U{u}", unit)].P == pytest.approx(1.0, abs=1e-9)


def test_window_rescaling_leaves_rankings_unchanged():
    """Scaling the window and years together rescales all P uniformly."""
    roster = [staff("R1", "U1", years=3.0), staff("R2", "U2", years=1.5)]
    shares = credit_table([share(university="U1", value=2.0), share(university="U2", value=1.0)])
    base = sds_productivity(shares, roster, WINDOW)
    scaled_roster = [StaffEntry(e.researcher_id, e.university_id, e.sds_id, e.years_on_staff * 2) for e in roster]
    scaled = sds_productivity(shares, scaled_roster, (2000, 2005))  # window length doubled
    ratios = [
        scaled.entries[key].P / base.entries[key].P
        for key in base.entries
        if base.entries[key].P != 0
    ]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)
    base_order = sorted(base.entries, key=lambda k: -base.entries[k].P)
    scaled_order = sorted(scaled.entries, key=lambda k: -scaled.entries[k].P)
    assert base_order == scaled_order


# ---------------------------------------------------------------------------
# Pipeline and CSV round-trip


def test_score_corpus_excludes_ineligible_sds(tmp_path, monkeypatch):
    rows = minimal_rows()
    rows["taxonomy"] = [("S1", "UDA1", "false"), ("S2", "UDA1", "false")]
    rows["staff"] = [
        ("R1", "U1", "S1", "3.0"),
        ("R2", "U1", "S2", "3.0"),
        ("R3", "U2", "S2", "3.0"),
        ("R4", "U3", "S2", "3.0"),
    ]
    # only U1 publishes in S2: 1 of 3 researchers active -> S2 ineligible
    rows["publications"] = [("P1", 2001, "article", 2, 1), ("P2", 2001, "article", 1, 1)]
    rows["pub_categories"] = [("P1", "C1", "1.0"), ("P2", "C1", "1.0")]
    rows["pub_authors"] = [("P1", 1, "true", "U1", "S1"), ("P2", 1, "true", "U1", "S2")]
    corpus = load_corpus(write_corpus(tmp_path, **rows), WINDOW)
    passed = []  # the shares score_corpus gives sds_productivity

    def recording(shares, *args):
        passed.append(share_rows(shares))
        return sds_productivity(shares, *args)

    monkeypatch.setattr(productivity, "sds_productivity", recording)
    bundle = score_corpus(corpus)
    assert passed[0] == [share(fraction=1.0, value=4 / 3)]  # P1's share only
    assert bundle.sds.entries[("U1", "S1")].P == pytest.approx(4 / 3)  # P1's 2 citations over the cell median 1.5
    assert bundle.eligibility["S1"].eligible
    assert not bundle.eligibility["S2"].eligible
    assert all(sds != "S2" for _, sds in bundle.sds.entries)
    assert ("U2", "UDA1") not in bundle.uda.entries  # U2 was only active in S2


def test_score_csv_round_trip(tmp_path):
    table = _sds_table(
        {("U1", "S1"): ScoreEntry(1.25, 2.0), ("U2", "S1"): ScoreEntry(0.5, 1.0)},
        {"S1": 0.875},
    )
    path = tmp_path / "scores.csv"
    write_score_csv(table, path)
    loaded = read_score_csv(path)
    assert loaded.level == "sds"
    assert loaded.entries == table.entries


@pytest.mark.parametrize("block_rows", [1, corpus_mod.BLOCK_ROWS])
@pytest.mark.parametrize(
    "body, message",
    [
        (
            "sds,U1,S1,1.0,3.0\nsds,U2,,1.0,3.0\n",
            "scores.csv:3: unit_id must not be empty unless level is 'university'",
        ),
        (
            "uda,U1,UDA1,1.0,3.0\nuda,U2, ,1.0,3.0\n",
            "scores.csv:3: unit_id must not be empty unless level is 'university'",
        ),
        ("macro,U1,,1.0,3.0\n", "scores.csv:2: unit_id must not be empty unless level is 'university'"),
        (
            "university,U1,,1.0,3.0\nuniversity,U2,UDA1,1.0,3.0\n",
            "scores.csv:3: unit_id must be empty when level is 'university', got 'UDA1'",
        ),
    ],
)
def test_score_csv_unit_id_is_empty_exactly_at_university_level(tmp_path, monkeypatch, block_rows, body, message):
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", block_rows)
    path = tmp_path / "scores.csv"
    path.write_text(",".join(SCHEMAS["scores"]) + "\n" + body, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read_score_csv(path)
