"""Run one bibliorank CLI command with its public functions wrapped in spans.

Usage: python3 perfbench/tracer.py SPANS_JSON -- [bibliorank CLI arguments]

Each wrapped call records one span (name, parent, start, end) in memory.
``ready`` is the ``time.perf_counter()`` reading once ``bibliorank.cli`` is
imported; on Linux that clock is system-wide, so the parent subtracts its
own spawn time to get the start-up of this very process.
Layer counts are taken from the calls' arguments and results after
``cli.main`` returns, so counting never runs inside a span.  Spans and
counts are written to SPANS_JSON at exit, and the process exits with the
CLI's own exit code.

Functions are wrapped under the name their caller looks up:
``productivity`` imports ``compute_baselines`` and ``credit_shares`` by
name, so those two are wrapped on ``bibliorank.productivity``; ``cli`` and
``score_corpus`` reach every other function through its module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TARGETS = {
    "bibliorank.synth": ("generate", "write_synth"),
    "bibliorank.corpus": ("load_corpus", "read_peer_outcomes_csv", "read_indicators_csv"),
    "bibliorank.productivity": (
        "compute_baselines",
        "credit_shares",
        "score_corpus",
        "filter_eligible_sds",
        "sds_productivity",
        "uda_productivity",
        "macro_uda_productivity",
        "university_productivity",
        "write_score_csv",
        "write_eligibility_csv",
        "read_score_csv",
    ),
    "bibliorank.peer_rating": ("rate_outcomes", "pooled_university_ratings", "write_rated_csv"),
    "bibliorank.rankcmp": (
        "build_ranking",
        "correlation_matrix",
        "compare_rankings",
        "render_matrix",
        "render_comparison",
        "read_ranking_csv",
        "write_ranking_csv",
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.calls: list[tuple[str, int, tuple, object]] = []  # (name, span, args, result)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self.stack.pop()
            self.calls.append((name, index, args, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(f"{layer}.{fn.__name__}", fn))

    def counts(self) -> dict[str, float]:
        from bibliorank.corpus import CorpusPaths

        totals: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0) + value

        def add_files(paths) -> None:
            for path in paths:
                if path.exists():
                    data = path.read_bytes()
                    add("corpus.bytes_read", len(data))
                    add("corpus.rows_read", max(data.count(b"\n") - 1, 0))

        for name, index, args, result in self.calls:
            parent = self.spans[index][1]
            if name == "corpus.load_corpus":
                add_files(vars(CorpusPaths.from_dir(args[0])).values())
                add("corpus.pubs_accepted", len(result.publications))
                add("corpus.rejected_out_of_window", result.rejected_out_of_window)
                add("corpus.rejected_no_domestic", result.rejected_no_domestic)
            elif name in ("corpus.read_peer_outcomes_csv", "corpus.read_indicators_csv"):
                if parent < 0 or self.spans[parent][0] != "corpus.load_corpus":
                    add_files([args[0]])
            elif name == "scoring.compute_baselines":
                add("scoring.baseline_cells", len(result))
            elif name == "scoring.credit_shares":
                corpus = args[0]
                add("scoring.shares", len(result))
                life = [p for p in corpus.publications if corpus.taxonomy.is_life_science_publication(p)]
                add("scoring.life_science_pubs", len(life))
                add("scoring.life_science_slots", sum(p.total_author_count for p in life))
            elif name == "productivity.filter_eligible_sds":
                add("productivity.eligible_sds", sum(1 for e in result.values() if e.eligible))
            elif name == "productivity.sds_productivity":
                add("productivity.kept_shares", len(args[0]))
            elif name == "peer_rating.rate_outcomes":
                add("peer_rating.cells", len(result))
            elif name in ("rankcmp.build_ranking", "rankcmp.read_ranking_csv"):
                add("rankcmp.rankings", 1)
            elif name == "rankcmp.compare_rankings":
                add("rankcmp.pairs", 1)
            elif name == "synth.generate":
                rows = sum(len(getattr(result, table)) for table in (
                    "publications", "pub_categories", "pub_authors", "staff", "taxonomy",
                    "macro_map", "categories", "peer_outcomes", "indicators"))
                add("synth.rows_written", rows)
            elif name == "synth.write_synth":
                for path in vars(CorpusPaths.from_dir(args[1])).values():
                    add("synth.bytes_written", path.stat().st_size)
        return totals


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS_JSON -- [bibliorank arguments]", file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    from bibliorank import cli

    ready = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    main_fn = tracer.wrap("cli.main", cli.main)
    code = main_fn(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "spans": tracer.spans, "counts": tracer.counts()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
