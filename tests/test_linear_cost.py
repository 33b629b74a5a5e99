"""Synthesis, loading and scoring cost the same number of Python calls per publication whatever the corpus size.

Call counts under ``cProfile`` do not depend on the host's speed or load.  A
per-publication scan over every university that makes a call per item (a
generator, a lambda, a method) shows here as a count per publication that
grows with the corpus.  ``cProfile`` counts neither the iterations of one
comprehension nor a call from C code to a C function (``map(str, ...)``),
so scans of those kinds are left to the benchmark's wall time.  Nor does
it count numpy's draws, so the synth count is of the Python around them.

``synthesize`` writes each row to its file as it draws it, so its Python heap
peak (``tracemalloc``, which counts numpy's buffers too) stays about flat as
the corpus grows; a writer that held the rows until the end would peak at
every row at once.

Loading and scoring are held to a heap peak within a share of the corpus they
keep (``tracemalloc`` again, so the bound is on what the code allocates, not
on where the allocator happens to place it): a load that grouped its rows with
its temporaries alive, or a scoring that held its shares in lists, would cross
it.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from pathlib import Path

from bibliorank import corpus as corpus_module, scoring
from bibliorank.corpus import DEFAULT_WINDOW, load_corpus
from bibliorank.productivity import score_corpus
from bibliorank.synth import SynthParams, generate, synthesize


def calls_per_publication(directory: Path) -> float:
    scoring.class_numerators.cache_clear()  # each size pays for its own credit weights
    profiler = cProfile.Profile()
    profiler.enable()
    corpus = load_corpus(directory, DEFAULT_WINDOW)
    score_corpus(corpus)
    profiler.disable()
    return pstats.Stats(profiler).total_calls / len(corpus.publications)


def test_load_and_score_make_no_more_calls_per_publication_on_a_larger_corpus(tmp_path):
    for universities in (20, 40):
        synthesize(SynthParams(seed=6, universities=universities), tmp_path / str(universities))
    score_corpus(load_corpus(tmp_path / "20", DEFAULT_WINDOW))  # first-use imports are not a per-publication cost
    small, large = (calls_per_publication(tmp_path / str(universities)) for universities in (20, 40))
    assert large <= small, f"{large:.1f} calls per publication at 40 universities, {small:.1f} at 20"


def test_synth_makes_no_more_calls_per_publication_on_a_larger_corpus():
    generate(SynthParams(seed=6))  # first-use imports are not a per-publication cost
    counts = {}
    for universities in (20, 40):
        profiler = cProfile.Profile()
        profiler.enable()
        data = generate(SynthParams(seed=6, universities=universities))
        profiler.disable()
        counts[universities] = pstats.Stats(profiler).total_calls / len(data.publications)
    assert counts[40] <= counts[20], f"{counts[40]:.1f} calls per publication at 40 universities, {counts[20]:.1f} at 20"


def test_synthesize_makes_no_more_calls_per_publication_on_a_larger_corpus(tmp_path):
    synthesize(SynthParams(seed=6, universities=2), tmp_path / "warm")  # first-use imports and opens
    counts = {}
    for universities in (20, 40):
        profiler = cProfile.Profile()
        profiler.enable()
        data = synthesize(SynthParams(seed=6, universities=universities), tmp_path / str(universities))
        profiler.disable()
        counts[universities] = pstats.Stats(profiler).total_calls / len(data.publications)
    assert counts[40] <= counts[20], f"{counts[40]:.1f} calls per publication at 40 universities, {counts[20]:.1f} at 20"


def test_synthesize_heap_peak_does_not_grow_with_the_corpus(tmp_path):
    synthesize(SynthParams(seed=6, universities=2), tmp_path / "warm")  # first-use imports are not held rows
    peaks, publications = {}, {}
    for universities in (20, 80):
        tracemalloc.start()
        try:
            data = synthesize(SynthParams(seed=6, universities=universities, udas=4, sds_per_uda=5),
                              tmp_path / str(universities))
            peaks[universities] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        publications[universities] = len(data.publications)
    assert publications[80] > 3 * publications[20]
    # Only the per-(university, SDS) tables grow with the universities; a fourfold corpus held as rows
    # would more than double the peak.
    assert peaks[80] <= 1.25 * peaks[20], f"heap peak {peaks[80]:.2f} MB at 80 universities, {peaks[20]:.2f} MB at 20"


def test_load_and_score_heap_peaks_stay_within_a_share_of_the_corpus(tmp_path, monkeypatch):
    # At 20 universities of 14 UDAs x 10 SDSs (9.9k publications), read in blocks of 512 rows so that the block
    # buffers do not set the load's peak, the load peaks 0.22 corpora above the corpus it keeps and score_corpus
    # 0.28 above it.  Grouping the publication rows with every load temporary still alive gave the load 0.46, and
    # credit shares as four lists with a pub id column gave the scoring 0.44.
    monkeypatch.setattr(corpus_module, "BLOCK_ROWS", 512)
    synthesize(SynthParams(seed=6, universities=20, udas=14, sds_per_uda=10), tmp_path)
    score_corpus(load_corpus(tmp_path, DEFAULT_WINDOW))  # first-use imports and caches are not held memory
    tracemalloc.start()
    try:
        corpus = load_corpus(tmp_path, DEFAULT_WINDOW)
        kept, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        score_corpus(corpus)
        score_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_peak - kept <= 0.33 * kept, f"load peaks {(load_peak - kept) / kept:.2f} corpora above the corpus"
    assert score_peak - kept <= 0.36 * kept, f"scoring peaks {(score_peak - kept) / kept:.2f} corpora above the corpus"
