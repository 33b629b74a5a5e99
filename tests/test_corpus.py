import gc
import itertools
import re
import sys
import warnings
from pathlib import Path
from typing import Collection

import pytest

from bibliorank import cli
from bibliorank import corpus as corpus_mod
from bibliorank.corpus import (
    SCHEMAS,
    AuthorSlot,
    Corpus,
    CorpusPaths,
    PeerOutcome,
    PublicationRecord,
    load_corpus,
    read_indicators_csv,
)
from bibliorank.errors import ValidationError
from bibliorank.productivity import read_score_csv, score_corpus, write_score_csv

from conftest import emit_corpus, minimal_rows, write_corpus, write_file

WINDOW = (2001, 2003)


def test_minimal_corpus_loads(minimal_corpus_dir):
    corpus = load_corpus(minimal_corpus_dir, WINDOW)
    assert len(corpus.publications) == 1
    assert len(corpus.staff) == 1
    assert corpus.rejected_count == 0
    assert corpus.universities() == ["U1"]
    assert corpus.window == WINDOW


CORPUS_FIELDS = Corpus._fields


@pytest.mark.parametrize("name", ["window", "publications", "rejected_no_domestic", "not_a_field"])
def test_a_corpus_is_read_only(minimal_corpus_dir, name):
    corpus = load_corpus(minimal_corpus_dir, WINDOW)
    before = {field: getattr(corpus, field) for field in CORPUS_FIELDS}
    with pytest.raises(AttributeError):
        setattr(corpus, name, None)
    with pytest.raises(AttributeError):
        delattr(corpus, name)
    assert {field: getattr(corpus, field) for field in CORPUS_FIELDS} == before


@pytest.mark.parametrize(
    "changes",
    [
        {"rejected_out_of_window": 3},
        {"rejected_no_domestic": 2},
        {"rejected_out_of_window": 1, "rejected_no_domestic": 1},
        {"window": (2001, 2004)},
        {"publications": ()},
        {"peer_outcomes": (PeerOutcome("U1", "UDA1", 1, 0, 0, 0),)},
    ],
    ids=["out-of-window", "no-domestic", "both-counts", "window", "publications", "peer-outcomes"],
)
def test_corpora_that_differ_in_any_field_are_unequal(minimal_corpus_dir, changes):
    corpus = load_corpus(minimal_corpus_dir, WINDOW)
    other = corpus._replace(**changes)
    assert (other == corpus, corpus == other, other != corpus) == (False, False, True)


def test_corpus_paths_name_the_nine_corpus_files_in_schema_order(tmp_path):
    stems = list(SCHEMAS)[:9]  # the corpus files come first; the derived ones follow
    assert list(vars(CorpusPaths.from_dir(tmp_path)).items()) == [(stem, tmp_path / f"{stem}.csv") for stem in stems]


def test_category_weights_must_sum_to_one(tmp_path):
    rows = minimal_rows()
    rows["pub_categories"] = [("P1", "C1", "0.5"), ("P1", "C2", "0.6")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="weights sum 1.1"):
        load_corpus(directory, WINDOW)


def test_out_of_window_publication_rejected_with_count(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 1999, "article", 4, 1)]
    directory = write_corpus(tmp_path, **rows)
    corpus = load_corpus(directory, WINDOW)
    assert len(corpus.publications) == 0
    assert corpus.rejected_count == 1
    assert corpus.rejected_out_of_window == 1


def test_publication_without_domestic_author_rejected(tmp_path):
    rows = minimal_rows()
    rows["pub_authors"] = [("P1", 1, "false", "", "")]
    directory = write_corpus(tmp_path, **rows)
    corpus = load_corpus(directory, WINDOW)
    assert len(corpus.publications) == 0
    assert corpus.rejected_no_domestic == 1


def test_duplicate_pub_id_rejected(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 1), ("P1", 2002, "article", 1, 1)]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="duplicate pub_id"):
        load_corpus(directory, WINDOW)


def test_error_messages_name_file_and_line(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", -1, 1)]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match=r"publications\.csv:2"):
        load_corpus(directory, WINDOW)


def test_staff_sds_must_resolve_to_uda(tmp_path):
    rows = minimal_rows()
    rows["staff"] = [("R1", "U1", "S_UNKNOWN", "3.0")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match=r"^staff\.csv:2: unknown sds_id 'S_UNKNOWN'$"):
        load_corpus(directory, WINDOW)


def test_author_university_must_be_in_roster(tmp_path):
    rows = minimal_rows()
    rows["pub_authors"] = [("P1", 1, "true", "U_GHOST", "S1")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="unknown university_id 'U_GHOST'"):
        load_corpus(directory, WINDOW)


def test_author_pair_needs_staff_entry(tmp_path):
    rows = minimal_rows()
    rows["staff"].append(("R2", "U2", "S2", "3.0"))
    rows["taxonomy"].append(("S2", "UDA1", "false"))
    rows["pub_authors"] = [("P1", 1, "true", "U2", "S1")]  # U2 exists, but not in S1
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="no staff entry"):
        load_corpus(directory, WINDOW)


def test_domestic_author_requires_affiliation(tmp_path):
    rows = minimal_rows()
    rows["pub_authors"] = [("P1", 1, "true", "U1", "")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="sds_id must not be empty unless is_domestic_academic is False"):
        load_corpus(directory, WINDOW)


def test_external_author_with_a_university_exits_2(tmp_path, capsys):
    # The life-science shared first/last rule reads the last slot's university, so an external one must carry none.
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 5)]
    rows["pub_authors"] = [("P1", 1, "true", "U1", "S1"), ("P1", 5, "false", "U1", "")]
    rows["categories"] = [("C1", "true")]
    directory = write_corpus(tmp_path / "corpus", **rows)
    out = tmp_path / "out"
    assert cli.main(["score", "--corpus-dir", str(directory), "--out-dir", str(out)]) == 2
    message = "error: pub_authors.csv:3: university_id must be empty when is_domestic_academic is False, got 'U1'\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_duplicate_byline_position_rejected(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 2)]
    rows["pub_authors"] = [("P1", 1, "true", "U1", "S1"), ("P1", 1, "false", "", "")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match=r"^pub_authors\.csv:3: duplicate \(pub_id, position\) \('P1', 1\)$"):
        load_corpus(directory, WINDOW)


def test_listed_authors_cannot_exceed_total(tmp_path):
    rows = minimal_rows()
    rows["pub_authors"] = [("P1", 1, "true", "U1", "S1"), ("P1", "", "false", "", "")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="exceed total_author_count"):
        load_corpus(directory, WINDOW)


def test_position_beyond_total_rejected(tmp_path):
    rows = minimal_rows()
    rows["pub_authors"] = [("P1", 5, "true", "U1", "S1")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="exceeds total_author_count"):
        load_corpus(directory, WINDOW)


def test_life_science_publication_requires_positions(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 2)]
    rows["pub_authors"] = [("P1", "", "true", "U1", "S1")]
    rows["categories"] = [("C1", "true")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="unknown author positions"):
        load_corpus(directory, WINDOW)


# The publication-level checks in the order a publication is put through them, each with its message.
PUBLICATION_FAULTS = {
    "no-categories": "pub_categories.csv: pub {!r}: no categories listed",
    "weight-sum": "pub_categories.csv: pub {!r}: weights sum 0.5",
    "too-many-authors": "pub_authors.csv: pub {!r}: 3 listed authors exceed total_author_count 2",
    "life-science-unknown-positions": (
        "pub_authors.csv: pub {!r}: life-science publication with unknown author positions"
    ),
}


def _publication_rows(pid: str, faults: Collection[str]) -> dict[str, list[tuple]]:
    """The rows of a two-author publication that fails each of ``faults`` and no other check."""
    category = "CL" if "life-science-unknown-positions" in faults else "C1"
    weight = "0.5" if "weight-sum" in faults else "1.0"
    authors = [(pid, "" if "life-science-unknown-positions" in faults else 1, "true", "U1", "S1")]
    if "too-many-authors" in faults:
        authors += [(pid, "", "false", "", "")] * 2
    return {
        "publications": [(pid, 2001, "article", 4, 2)],
        "pub_categories": [] if "no-categories" in faults else [(pid, category, weight)],
        "pub_authors": authors,
    }


@pytest.mark.parametrize(
    "faults",
    [
        *([[first], [second]] for first, second in itertools.permutations(PUBLICATION_FAULTS, 2)),
        *([[first], [second], [third]] for first, second, third in itertools.permutations(PUBLICATION_FAULTS, 3)),
        # One publication failing two checks, before one failing a third.
        [["no-categories", "too-many-authors"], ["weight-sum"]],
        [["weight-sum", "too-many-authors"], ["no-categories"]],
        [["weight-sum", "life-science-unknown-positions"], ["no-categories"]],
        [["too-many-authors", "life-science-unknown-positions"], ["weight-sum"]],
    ],
    ids=lambda faults: " then ".join("+".join(pub) for pub in faults),
)
def test_the_first_failing_publication_in_pub_id_order_is_named_with_its_first_failing_check(tmp_path, faults):
    # Valid P0 and P9 around the faulty P1, P2, ...; every file lists its rows in reverse pub-id order.
    pubs = [("P0", ())] + [(f"P{i}", pub_faults) for i, pub_faults in enumerate(faults, 1)] + [("P9", ())]
    rows = minimal_rows()
    for stem in ("publications", "pub_categories", "pub_authors"):
        rows[stem] = [row for pid, pub_faults in reversed(pubs) for row in _publication_rows(pid, pub_faults)[stem]]
    rows["categories"] = [("C1", "false"), ("CL", "true")]
    directory = write_corpus(tmp_path, **rows)
    first = next(fault for fault in PUBLICATION_FAULTS if fault in faults[0])
    with pytest.raises(ValidationError, match=f"^{re.escape(PUBLICATION_FAULTS[first].format('P1'))}$"):
        load_corpus(directory, WINDOW)


def test_unknown_positions_tolerated_outside_life_science(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 2)]
    rows["pub_authors"] = [("P1", "", "true", "U1", "S1")]
    directory = write_corpus(tmp_path, **rows)
    corpus = load_corpus(directory, WINDOW)
    assert corpus.publications[0].authors[0].position is None


def test_years_on_staff_bounds(tmp_path):
    rows = minimal_rows()
    rows["staff"] = [("R1", "U1", "S1", "3.5")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="years_on_staff"):
        load_corpus(directory, WINDOW)


def test_bad_window_rejected(minimal_corpus_dir):
    with pytest.raises(ValidationError, match="precedes"):
        load_corpus(minimal_corpus_dir, (2003, 2001))


def test_missing_required_file(tmp_path):
    rows = minimal_rows()
    directory = write_corpus(tmp_path, **rows)
    (directory / "staff.csv").unlink()
    with pytest.raises(ValidationError, match="missing required input file"):
        load_corpus(directory, WINDOW)


def test_wrong_header_rejected(tmp_path):
    rows = minimal_rows()
    directory = write_corpus(tmp_path, **rows)
    (directory / "staff.csv").write_text("who,where\nR1,U1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="expected header"):
        load_corpus(directory, WINDOW)


def test_indicator_direction_validated(tmp_path):
    rows = minimal_rows()
    rows["indicators"] = [("LAT", "sideways", "U1", "41.5")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="direction"):
        load_corpus(directory, WINDOW)


def test_indicator_duplicate_university_rejected(tmp_path):
    rows = minimal_rows()
    rows["indicators"] = [
        ("LAT", "higher_is_better", "U1", "41.5"),
        ("LAT", "higher_is_better", "U1", "42.0"),
    ]
    directory = write_corpus(tmp_path, **rows)
    message = r"^indicators\.csv:3: duplicate \(indicator_name, university_id\) \('LAT', 'U1'\)$"
    with pytest.raises(ValidationError, match=message):
        load_corpus(directory, WINDOW)


def test_indicators_loaded(tmp_path):
    rows = minimal_rows()
    rows["indicators"] = [
        ("LAT", "higher_is_better", "U1", "41.5"),
        ("RES", "lower_is_better", "U1", "7.0"),
    ]
    directory = write_corpus(tmp_path, **rows)
    corpus = load_corpus(directory, WINDOW)
    assert [t.indicator_name for t in corpus.indicators] == ["LAT", "RES"]
    assert corpus.indicators[0].values == {"U1": 41.5}


def test_peer_outcomes_loaded(tmp_path):
    rows = minimal_rows()
    rows["peer_outcomes"] = [("U1", "UDA1", 17, 5, 1, 0)]
    directory = write_corpus(tmp_path, **rows)
    corpus = load_corpus(directory, WINDOW)
    assert corpus.peer_outcomes == (PeerOutcome("U1", "UDA1", 17, 5, 1, 0),)


def test_peer_outcomes_all_zero_rejected(tmp_path):
    rows = minimal_rows()
    rows["peer_outcomes"] = [("U1", "UDA1", 0, 0, 0, 0)]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match="zero"):
        load_corpus(directory, WINDOW)


def _rich_corpus_dir(tmp_path: Path) -> Path:
    return write_corpus(
        tmp_path / "rich",
        publications=[
            ("P1", 2001, "article", 4, 3),
            ("P2", 2002, "review", 0, 5),
            ("P3", 2003, "proceedings", 9, 2),
        ],
        pub_categories=[
            ("P1", "C1", "0.6"),
            ("P1", "C2", "0.4"),
            ("P2", "LC1", "1.0"),
            ("P3", "C1", "1.0"),
        ],
        pub_authors=[
            ("P1", "", "true", "U1", "S1"),
            ("P1", "", "true", "U2", "S1"),
            ("P2", 1, "true", "U1", "S2"),
            ("P2", 5, "true", "U1", "S2"),
            ("P2", 3, "false", "", ""),
            ("P3", 1, "true", "U2", "S1"),
        ],
        staff=[
            ("R1", "U1", "S1", "3.0"),
            ("R2", "U1", "S2", "1.5"),
            ("R3", "U2", "S1", "2.0"),
        ],
        taxonomy=[("S1", "UDA1", "false"), ("S2", "UDA2", "true")],
        macro_map=[("UDA1", "M1"), ("UDA2", "M1")],
        categories=[("C1", "false"), ("C2", "false"), ("LC1", "true")],
        peer_outcomes=[("U1", "UDA1", 3, 1, 0, 0), ("U2", "UDA1", 1, 2, 1, 0)],
        indicators=[
            ("LAT", "higher_is_better", "U1", "45.2"),
            ("LAT", "higher_is_better", "U2", "38.1"),
        ],
    )


def test_round_trip_emit_and_reload(tmp_path):
    corpus = load_corpus(_rich_corpus_dir(tmp_path), WINDOW)
    out = tmp_path / "emitted"
    emit_corpus(corpus, out)
    reloaded = load_corpus(out, WINDOW)
    assert reloaded == corpus


def test_unpositioned_slots_load_in_one_order_whatever_the_row_order(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 3)]
    rows["staff"].append(("R2", "U2", "S1", "3.0"))
    slots = [("P1", "", "true", "U1", "S1"), ("P1", "", "true", "U2", "S1"), ("P1", "", "false", "", "")]
    rows["pub_authors"] = slots
    forward = load_corpus(write_corpus(tmp_path / "forward", **rows), WINDOW)
    rows["pub_authors"] = slots[::-1]
    backward = load_corpus(write_corpus(tmp_path / "backward", **rows), WINDOW)
    assert backward == forward


def test_loaded_ids_are_shared_objects(tmp_path):
    corpus = load_corpus(_rich_corpus_dir(tmp_path), WINDOW)
    university_of = {e.university_id: e.university_id for e in corpus.staff}
    sds_of = {sds: sds for sds in corpus.taxonomy.sds_to_uda}
    assert len({id(e.university_id) for e in corpus.staff}) == len(university_of)
    slots = [slot for pub in corpus.publications for slot in pub.authors if slot.university_id is not None]
    assert len(slots) == 5
    for slot in slots:
        assert slot.university_id is university_of[slot.university_id]
        assert slot.sds_id is sds_of[slot.sds_id]


@pytest.mark.parametrize("block_rows", [1, corpus_mod.BLOCK_ROWS])
def test_equal_records_load_as_one_shared_object(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", block_rows)
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 2), ("P2", 2001, "article", 4, 2), ("P3", 2002, "review", 0, 2)]
    rows["pub_categories"] = [
        ("P1", "C1", "0.5"), ("P1", "C2", "0.5"), ("P2", "C1", "0.5"), ("P2", "C3", "0.5"), ("P3", "C1", "1.0"),
    ]
    rows["pub_authors"] = [
        ("P1", 1, "true", "U1", "S1"), ("P1", 2, "false", "", ""),
        ("P2", 1, "true", "U1", "S1"), ("P3", 2, "true", "U1", "S1"),
    ]
    directory = write_corpus(tmp_path, **rows)
    corpus = load_corpus(directory, WINDOW)
    domestic_first, external_second = AuthorSlot(1, "U1", "S1"), AuthorSlot(2, None, None)
    assert corpus.publications == (
        PublicationRecord("P1", 2001, 4, (("C1", 0.5), ("C2", 0.5)), (domestic_first, external_second), 2),
        PublicationRecord("P2", 2001, 4, (("C1", 0.5), ("C3", 0.5)), (domestic_first,), 2),
        PublicationRecord("P3", 2002, 0, (("C1", 1.0),), (AuthorSlot(2, "U1", "S1"),), 2),
    )
    p1, p2, p3 = corpus.publications
    assert all(type(slot) is AuthorSlot for pub in corpus.publications for slot in pub.authors)
    assert p2.authors[0] is p1.authors[0]
    assert p2.categories[0] is p1.categories[0]
    assert p3.authors[0] is not p1.authors[0]  # another position
    assert p3.categories[0] is not p1.categories[0]  # another weight
    # Records are shared within one load only: nothing outlives it.
    assert load_corpus(directory, WINDOW).publications[0].authors[0] is not p1.authors[0]


def test_loading_is_deterministic(tmp_path):
    directory = _rich_corpus_dir(tmp_path)
    assert load_corpus(directory, WINDOW) == load_corpus(directory, WINDOW)


def test_emission_is_byte_deterministic(tmp_path):
    corpus = load_corpus(_rich_corpus_dir(tmp_path), WINDOW)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    emit_corpus(corpus, out_a)
    emit_corpus(corpus, out_b)
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes()


def test_a_corpus_whose_files_start_with_a_byte_order_mark_loads_the_same(tmp_path):
    directory = _rich_corpus_dir(tmp_path)
    marked = tmp_path / "marked"
    marked.mkdir()
    for path in directory.iterdir():
        (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_corpus(marked, WINDOW) == load_corpus(directory, WINDOW)


def test_a_valid_file_is_checked_once_per_block(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", 4)
    path = tmp_path / "macro_map.csv"
    rows = "".join(f"UDA{i},M1\n" for i in range(10))
    path.write_text(",".join(SCHEMAS["macro_map"]) + "\n" + rows, encoding="utf-8")
    calls = [(list(lines), [*map(len, columns)]) for lines, columns in corpus_mod.read_rows(path, "macro_map")]
    assert calls == [([2, 3, 4, 5], [4, 4]), ([6, 7, 8, 9], [4, 4]), ([10, 11], [2, 2])]


def test_an_abandoned_read_closes_its_file(tmp_path, monkeypatch):
    # A consumer that stops after the first block drops the reader, which must close the file then.  A file left
    # open warns when it is collected, as under -X dev; that warning is an error here, raised where nothing can catch
    # it, so it reaches the unraisable hook.
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", 4)
    path = tmp_path / "macro_map.csv"
    rows = "".join(f"UDA{i},M1\n" for i in range(10))
    path.write_text(",".join(SCHEMAS["macro_map"]) + "\n" + rows, encoding="utf-8")
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for lines, _ in corpus_mod.read_rows(path, "macro_map"):
            break
        gc.collect()
    assert list(lines) == [2, 3, 4, 5]
    assert [hook.exc_value for hook in unraisable] == []


def test_read_indicators_csv_standalone(tmp_path):
    path = write_file(tmp_path, "indicators.csv", [("NI", "higher_is_better", "U1", "1.2")])
    tables = read_indicators_csv(path)
    assert tables[0].indicator_name == "NI"
    assert tables[0].values["U1"] == 1.2


# ---------------------------------------------------------------------------
# The row reader


def _two_author_corpus(tmp_path: Path, authors_body: str) -> Path:
    """The minimal corpus with a two-author byline whose ``pub_authors.csv`` data rows are ``authors_body`` verbatim."""
    rows = minimal_rows()
    rows["publications"] = [("P1", 2001, "article", 4, 2)]
    directory = write_corpus(tmp_path / "corpus", **rows)
    header = ",".join(SCHEMAS["pub_authors"]) + "\n"
    (directory / "pub_authors.csv").write_text(header + authors_body, encoding="utf-8", newline="")
    return directory


def test_blank_line_between_rows_is_skipped(tmp_path):
    directory = _two_author_corpus(tmp_path, "P1,1,true,U1,S1\n\nP1,2,false,,\n")
    corpus = load_corpus(directory, WINDOW)
    assert [slot.position for slot in corpus.publications[0].authors] == [1, 2]


def test_crlf_line_endings_load(tmp_path):
    directory = _two_author_corpus(tmp_path, "P1,1,true,U1,S1\r\nP1,2,false,,\r\n")
    assert len(load_corpus(directory, WINDOW).publications[0].authors) == 2


@pytest.mark.parametrize("bad_row", ["P1,2,false,", "P1,2,false,,,extra"], ids=["short", "long"])
def test_row_with_wrong_field_count_exits_2_with_its_line(tmp_path, capsys, bad_row):
    # line 2 is a good row, line 3 is blank, so the bad row is line 4
    directory = _two_author_corpus(tmp_path, f"P1,1,true,U1,S1\n\n{bad_row}\n")
    out = tmp_path / "out"
    assert cli.main(["score", "--corpus-dir", str(directory), "--out-dir", str(out)]) == 2
    assert "error: pub_authors.csv:4: wrong number of fields" in capsys.readouterr().err
    assert not out.exists()


def test_first_violation_in_file_order_is_reported_and_file_closed(tmp_path):
    rows = minimal_rows()
    rows["publications"] = [(f"P{i:03d}", 2001, "article", 4, 1) for i in range(200)]
    rows["pub_categories"] = [(f"P{i:03d}", "C1", "1.0") for i in range(200)]
    authors = [(f"P{i:03d}", 1, "true", "U1", "S1") for i in range(200)]
    authors[99] = ("P099", 1, "true", "U_GHOST", "S1")  # line 101
    authors[150] = ("P150", 1, "true")  # line 152: a later, purely syntactic fault
    rows["pub_authors"] = authors
    directory = write_corpus(tmp_path, **rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=r"^pub_authors\.csv:101: unknown university_id 'U_GHOST'"):
            load_corpus(directory, WINDOW)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("block_rows", [3, corpus_mod.BLOCK_ROWS])
def test_csv_error_after_an_earlier_fault_in_its_block_reports_the_earlier_fault(tmp_path, monkeypatch, block_rows):
    rows = minimal_rows()
    rows["staff"] = [("R1", "U1", "S1", "3.0"), ("R2", "U1", "S_NONE", "3.0"), ("R" * 200_000, "U1", "S1", "3.0")]
    directory = write_corpus(tmp_path, **rows)
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", block_rows)
    with pytest.raises(ValidationError, match=r"^staff\.csv:3: unknown sds_id 'S_NONE'$"):
        load_corpus(directory, WINDOW)


def test_line_break_inside_a_field_rejected(tmp_path):
    rows = minimal_rows()
    rows["indicators"] = [("LAT", "higher_is_better", "U1", "41.5"), ("GDP\nX", "higher_is_better", "U1", "2.0")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match=r"^indicators\.csv:3: line break inside a field$"):
        load_corpus(directory, WINDOW)


def test_oversized_field_rejected_with_file_and_line(tmp_path):
    rows = minimal_rows()
    rows["staff"] = [("R1", "U1", "S1", "3.0"), ("R" * 200_000, "U1", "S1", "3.0")]
    directory = write_corpus(tmp_path, **rows)
    with pytest.raises(ValidationError, match=r"^staff\.csv:3: field larger than field limit"):
        load_corpus(directory, WINDOW)


@pytest.mark.parametrize("block_rows", [1, 2, corpus_mod.BLOCK_ROWS])
@pytest.mark.parametrize(
    "name, body, message",
    [
        ("taxonomy.csv", "S1,UDA1,false\nS1,UDA2,false\n", "taxonomy.csv:3: duplicate sds_id 'S1'"),
        # The first copy lies before a smaller key.
        (
            "taxonomy.csv", "S1,UDA1,false\nS2,UDA1,false\nS0,UDA1,false\nS1,UDA2,false\n",
            "taxonomy.csv:5: duplicate sds_id 'S1'",
        ),
        (
            "staff.csv", "R1,U1,S1,3.0\nR2,U1,S1,3.0\nR1,U2,S1,3.0\nR1,U1,S1,3.0\n",
            "staff.csv:5: duplicate (researcher_id, university_id, sds_id) ('R1', 'U1', 'S1')",
        ),
        # Rows sharing a researcher, over two and three blocks of two rows.
        (
            "staff.csv", "R1,U1,S1,3.0\nR1,U2,S1,3.0\nR1,U3,S1,3.0\nR1,U1,S1,3.0\n",
            "staff.csv:5: duplicate (researcher_id, university_id, sds_id) ('R1', 'U1', 'S1')",
        ),
        (
            "staff.csv", "R0,U1,S1,3.0\nR1,U1,S1,3.0\nR1,U2,S1,3.0\nR1,U3,S1,3.0\nR1,U4,S1,3.0\nR1,U1,S1,3.0\n",
            "staff.csv:7: duplicate (researcher_id, university_id, sds_id) ('R1', 'U1', 'S1')",
        ),
        # A row of unknown position has no key, between two rows of one publication too.
        (
            "pub_authors.csv", "P1,1,true,U1,S1\nP1,,false,,\nP1,1,false,,\n",
            "pub_authors.csv:4: duplicate (pub_id, position) ('P1', 1)",
        ),
        ("macro_map.csv", "UDA1,M1\nUDA1,M2\n", "macro_map.csv:3: duplicate uda_id 'UDA1'"),
        ("categories.csv", "C1,false\nC1,true\n", "categories.csv:3: duplicate category_id 'C1'"),
        (
            "peer_outcomes.csv", "U1,UDA1,1,0,0,0\nU1,UDA1,0,1,0,0\n",
            "peer_outcomes.csv:3: duplicate (university_id, uda_id) ('U1', 'UDA1')",
        ),
        (
            "indicators.csv", "LAT,higher_is_better,U1,1.0\nLAT,lower_is_better,U2,2.0\n",
            "indicators.csv:3: direction must be 'higher_is_better' for indicator_name 'LAT', got 'lower_is_better'",
        ),
        (
            "indicators.csv", "LAT,higher_is_better,U1,1.0\nLAT,higher_is_better,U1,2.0\n",
            "indicators.csv:3: duplicate (indicator_name, university_id) ('LAT', 'U1')",
        ),
        (
            "indicators.csv", "LAT,higher_is_better,U1,1.0\nRES,higher_is_better,U1,2.0\nLAT,higher_is_better,U1,3.0\n",
            "indicators.csv:4: duplicate (indicator_name, university_id) ('LAT', 'U1')",
        ),
        (
            "scores.csv", "uda,U1,X,1.0,3.0\nsds,U1,S1,1.0,3.0\n",
            "scores.csv:3: level must be 'uda' throughout the file, got 'sds'",
        ),
        (
            "scores.csv", "uda,U1,X,1.0,3.0\nuda,U1, X,2.0,3.0\n",
            "scores.csv:3: duplicate (university_id, unit_id) ('U1', 'X')",
        ),
        # Weights that sum to 1 over a repeated category.
        (
            "pub_categories.csv", "P1,C1,0.5\nP1,C1,0.5\n",
            "pub_categories.csv:3: duplicate (pub_id, category_id) ('P1', 'C1')",
        ),
        # A repeat is named before a fault that the loader meets first: in a later file, or in a group rule of a
        # publication before or after the repeat's.  A body that is a dict gives the data rows of several files.
        (
            "pub_categories.csv",
            {"pub_categories.csv": "P1,C1,0.5\nP1,C1,0.5\n", "pub_authors.csv": "P1,x,true,U1,S1\n"},
            "pub_categories.csv:3: duplicate (pub_id, category_id) ('P1', 'C1')",
        ),
        *(
            (
                "pub_authors.csv",
                {
                    "publications.csv": "P1,2001,article,4,2\nP2,2001,article,4,2\n",
                    "pub_categories.csv": f"P1,C1,{weights[0]}\nP2,C1,{weights[1]}\n",
                    "pub_authors.csv": "P1,1,true,U1,S1\nP2,1,true,U1,S1\nP2,1,false,,\n",
                },
                "pub_authors.csv:4: duplicate (pub_id, position) ('P2', 1)",
            )
            for weights in (("0.5", "1.0"), ("1.0", "0.5"))
        ),
    ],
)
def test_repeated_key_names_its_line_within_and_across_blocks(tmp_path, monkeypatch, block_rows, name, body, message):
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", block_rows)
    path = write_corpus(tmp_path, **minimal_rows()) / name
    for file_name, text in (body if isinstance(body, dict) else {name: body}).items():
        (tmp_path / file_name).write_text(",".join(SCHEMAS[Path(file_name).stem]) + "\n" + text, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read_score_csv(path) if name == "scores.csv" else load_corpus(tmp_path, WINDOW)


@pytest.mark.parametrize("block_rows", [1, 3, corpus_mod.BLOCK_ROWS])
@pytest.mark.parametrize(
    "bad_byte_line, faults, message",
    [
        (6, {}, "publications.csv:6: not UTF-8: byte 0xff (invalid start byte)"),
        (1, {}, "publications.csv:1: not UTF-8: byte 0xff (invalid start byte)"),
        (2900, {}, "publications.csv:2900: not UTF-8: byte 0xff (invalid start byte)"),
        (6, {4: b"P9999,2001,article,4"}, "publications.csv:4: wrong number of fields"),
        (2900, {2000: b"P9999,20x1,article,4,1"}, "publications.csv:2000: year must be an integer, got '20x1'"),
        (2900, {2899: b"P0001,2001,article,4,1"}, "publications.csv:2899: duplicate pub_id 'P0001'"),
    ],
    ids=["early", "header", "past-the-first-chunks", "earlier-wrong-width", "earlier-bad-value",
         "bad-row-just-before"],
)
def test_a_byte_that_is_not_utf8_names_its_line_after_the_rows_before_it(
    tmp_path, monkeypatch, block_rows, bad_byte_line, faults, message
):
    rows = minimal_rows()
    rows["publications"] = [(f"P{i:04d}", 2001, "article", 4, 1) for i in range(3000)]
    path = write_corpus(tmp_path, **rows) / "publications.csv"
    # The decoder reads ahead in chunks of several thousand bytes, so line 2900 lies well past the first.
    lines = path.read_bytes().split(b"\n")
    for line, text in faults.items():
        lines[line - 1] = text
    lines[bad_byte_line - 1] = lines[bad_byte_line - 1][:3] + b"\xff" + lines[bad_byte_line - 1][3:]
    path.write_bytes(b"\n".join(lines))
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", block_rows)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_corpus(tmp_path, WINDOW)


@pytest.mark.parametrize("block_rows", [1, corpus_mod.BLOCK_ROWS])
@pytest.mark.parametrize(
    "name, data, message",
    [
        # A byte that is not UTF-8 is one more bad value, so a row reports the first check it fails.
        (
            "publications.csv", b"P1,2001,article,4,1\nP1,2001,arti\xe9cle,4,1\n",
            "publications.csv:3: duplicate pub_id 'P1'",
        ),
        (
            "publications.csv", b"P1,2001,article,4,1\nP2,20\xff01,article,4\n",
            "publications.csv:3: wrong number of fields",
        ),
        (
            "indicators.csv", b'LAT,higher_is_better,U1,41.5\n"GDP\nX\xe9",higher_is_better,U1,2.0\n',
            "indicators.csv:3: line break inside a field",
        ),
        (
            "indicators.csv", b"LAT,higher_is_better,U1,41.5\nLAT,higher_is_better,U2,1.5\xe2\x82",
            "indicators.csv:3: not UTF-8: byte 0xe2 (invalid continuation byte)",
        ),
        (
            "indicators.csv",
            b"LAT,higher_is_better,U1,41.5\nLAT,higher_is_better,Universit\xe9,2.0\nLAT,higher_is_better,U3,1.0\n",
            "indicators.csv:3: not UTF-8: byte 0xe9 (invalid continuation byte)",
        ),
        (
            "indicators.csv", b"LAT,higher_is_better,U1,41.5\nLAT,higher_is_better, \xe9 ,2.0\n",
            "indicators.csv:3: not UTF-8: byte 0xe9 (invalid continuation byte)",
        ),
    ],
    ids=["bad-byte-after-duplicate", "bad-byte-in-short-row", "bad-byte-in-multiline-record",
         "sequence-cut-off-by-end-of-file", "latin1-mid-file", "bad-byte-in-padded-id"],
)
def test_a_byte_that_is_not_utf8_is_a_bad_value_of_its_row(tmp_path, monkeypatch, block_rows, name, data, message):
    monkeypatch.setattr(corpus_mod, "BLOCK_ROWS", block_rows)
    path = write_corpus(tmp_path, **minimal_rows()) / name
    path.write_bytes(",".join(SCHEMAS[path.stem]).encode() + b"\n" + data)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_corpus(tmp_path, WINDOW)


def test_non_ascii_ids_load_and_round_trip(tmp_path):
    university, sds = "Università", "Società"
    rows = minimal_rows()
    rows["staff"] = [("R1", university, sds, "3.0")]
    rows["taxonomy"] = [(sds, "UDA1", "false")]
    rows["pub_authors"] = [("P1", 1, "true", university, sds)]
    rows["indicators"] = [("LATITUDINE", "higher_is_better", university, "41.5")]
    corpus = load_corpus(write_corpus(tmp_path / "corpus", **rows), WINDOW)
    assert corpus.universities() == [university]
    assert corpus.publications[0].authors[0].sds_id == sds
    assert corpus.indicators[0].values == {university: 41.5}
    emit_corpus(corpus, tmp_path / "emitted")
    assert load_corpus(tmp_path / "emitted", WINDOW) == corpus
    table = score_corpus(corpus).university
    path = tmp_path / "scores_university.csv"
    write_score_csv(table, path)
    assert read_score_csv(path).entries == table.entries == {(university, ""): table.entries[university, ""]}
