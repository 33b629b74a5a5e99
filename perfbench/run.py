"""Benchmark of the bibliorank CLI on seeded synthetic corpora.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload national --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0    # every workload, both pinned seeds

The benchmark reads the program only through ``python -m bibliorank`` and,
in the traced run, through its public functions.  Every command runs in a
fresh child process with ``PYTHONPATH=src``; CPU time and peak RSS come
from that child's own rusage (``os.wait4``).  ``PYTHONHASHSEED`` is removed
from the children's environment, so an output that depends on hash order
shows up as a byte mismatch.

Each workload has two pinned synth seeds, one for development and one held
out for claims; ``--seed`` picks one of them by parity (even: development,
odd: held out).  The pairs were taken from seeds 1-10 so that the two
corpora of a workload differ by under 0.5% in publications: the seed
changes the bytes but hardly the amount of work, and every input and
output byte is checked against ``pins.json`` (written by ``pin.py``).

A run with ``--trace 0`` sets up the corpus three times (``setup_s`` is
the median ``synth`` wall time), then repeats the workload's timed
commands, each iteration in a fresh empty output directory, until
``--seconds`` are used, and reports medians over the iterations.

The end-to-end times are reported at a reference machine speed.  On a
shared host the same process runs up to 1.5x slower from one minute to
the next, and CPU time slows with it, so raw seconds from two sets of runs
are not comparable.  The benchmark therefore pins itself and its children
to one CPU, where a thread times a fixed 1.5 ms probe every 100 ms while
each child runs.  Each child's wall and CPU seconds are multiplied by
``(REFERENCE_PROBE_S / median probe) ** SPEED_EXPONENT``.  Under host
contention the workloads' seconds move about half as much, in log terms,
as the probe's (correlation about 0.9 on a shared 2-vCPU virtual
machine), hence the exponent 0.5.  Raw seconds and the speed factor are
printed next to the result.

A run with ``--trace 1`` alternates untraced and traced iterations (see
``tracer.py``) and reports the per-layer breakdown in raw seconds.  The
last line of standard output is one JSON object; the exit code is 0 only
when every process exited 0 and every byte matched.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_FILE = BENCH_DIR / "pins.json"
SETUP_REPEATS = 3
PROBE_PERIOD_S = 0.1
REFERENCE_PROBE_S = 0.0015
SPEED_EXPONENT = 0.5
CORPUS_FILES = (
    "publications.csv",
    "pub_categories.csv",
    "pub_authors.csv",
    "staff.csv",
    "taxonomy.csv",
    "macro_map.csv",
    "categories.csv",
    "peer_outcomes.csv",
    "indicators.csv",
)
SUBCOMMANDS = ("score", "vtr", "rank", "compare", "report")


# ---------------------------------------------------------------------------
# Workloads


def report_steps(fmt: str):
    def steps(inp: Path, out: Path):
        yield ["report", "--corpus-dir", str(inp), "--out-dir", str(out), "--format", fmt]

    return steps


def stepwise_steps(inp: Path, out: Path):
    yield ["score", "--corpus-dir", str(inp), "--out-dir", str(out)]
    yield ["vtr", "--outcomes", str(inp / "peer_outcomes.csv"), "--out-dir", str(out)]
    for source in (
        out / "scores_university.csv",
        out / "scores_uda.csv",
        out / "vtr_ratings.csv",
        inp / "indicators.csv",
    ):
        yield ["rank", "--input", str(source), "--out-dir", str(out)]
    # Evaluated after the rank steps ran, so the glob sees their files.
    rankings = sorted(str(p) for p in out.glob("ranking_*.csv"))
    yield ["compare", *rankings, "--format", "markdown", "--out-dir", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    synth_args: dict[str, tuple[str, ...]]  # size -> synth flags
    synth_ini: dict[str, str]  # size -> [synth] section lines, written to a --config file
    seeds: tuple[int, int]  # (development, held out)
    steps: Callable[[Path, Path], Iterator[list[str]]]  # (input_dir, out_dir) -> CLI argv, consumed lazily


NATIONAL_ARGS = ("--universities", "200", "--udas", "14", "--sds-per-uda", "10")
LIFESCI_ARGS = ("--universities", "60", "--udas", "14", "--sds-per-uda", "10")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "national",
            {"full": NATIONAL_ARGS, "tiny": ("--universities", "8", "--udas", "4", "--sds-per-uda", "2")},
            {},
            (1, 6),
            report_steps("csv"),
        ),
        Workload(
            "lifesci",
            {"full": LIFESCI_ARGS, "tiny": ("--universities", "8", "--udas", "2", "--sds-per-uda", "2")},
            {
                "full": "life_science_udas = 14\nmax_external_authors = 150\ncross_university_rate = 0.6\n",
                "tiny": "life_science_udas = 2\nmax_external_authors = 40\ncross_university_rate = 0.6\n",
            },
            (5, 1),
            report_steps("json"),
        ),
        Workload(
            "stepwise",
            {"full": (), "tiny": ("--universities", "10")},
            {},
            (10, 4),
            stepwise_steps,
        ),
    )
}


# ---------------------------------------------------------------------------
# Processes


@dataclass
class Proc:
    argv: list[str]
    code: int
    start: float  # time.perf_counter() just before the spawn
    wall: float
    cpu: float
    rss_mb: float
    stderr: str
    speed: float  # factor that takes this process's seconds to the reference speed


PROBE_LINES = [f"P{i:06d},{2001 + i % 3},article,{i * 7919 % 97},{1 + i % 9}" for i in range(400)]


def probe() -> None:
    """Fixed interpreter work of the kinds the program does: CSV parsing, dicts, Fractions, sorting."""
    rows = [(pid, int(y), doc, int(c), int(n)) for pid, y, doc, c, n in csv.reader(PROBE_LINES)]
    cells: dict[tuple[int, str], list[Fraction]] = {}
    for pid, year, doc, cites, authors in rows:
        cells.setdefault((year, doc), []).append(Fraction(cites, authors))
    sorted((key, float(sum(values[:40]))) for key, values in cells.items())
    sorted(rows, key=lambda row: (row[3], row[0]))


class SpeedProbe(threading.Thread):
    """Times ``probe()`` every PROBE_PERIOD_S on the CPU the children share."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            probe()
            self.samples.append(time.perf_counter() - start)

    def speed(self) -> float:
        self.done.set()
        self.join()
        if not self.samples:
            return 1.0
        return (REFERENCE_PROBE_S / statistics.median(self.samples)) ** SPEED_EXPONENT


def pin_to_one_cpu() -> None:
    """Children inherit the affinity, so they, the probe and this process share one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONHASHSEED", None)
    # Cache bytecode under src/ as an installed package would; compiling at every start is not the user's cost.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], log: Path) -> Proc:
    """Run one child to completion; time it from spawn to exit and read its own rusage."""
    sampler = SpeedProbe()
    with open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        sampler.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        speed = sampler.speed()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return Proc(argv, proc.returncode, start, wall, cpu, usage.ru_maxrss / 1024.0, stderr, speed)


def cli_argv(args: list[str], trace_file: Path | None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "bibliorank", *args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_file), "--", *args]


# ---------------------------------------------------------------------------
# Output gate


def digest_dir(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def compare_digests(kind: str, got: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """Problems between the files found and the pinned ones: missing, extra, changed."""
    problems = [f"{kind}: missing {name}" for name in sorted(pinned.keys() - got.keys())]
    problems += [f"{kind}: unexpected {name}" for name in sorted(got.keys() - pinned.keys())]
    problems += [
        f"{kind}: sha256 of {name} differs from the pin"
        for name in sorted(got.keys() & pinned.keys())
        if got[name] != pinned[name]
    ]
    return problems


def data_rows(directory: Path) -> int:
    return sum((directory / name).read_bytes().count(b"\n") - 1 for name in CORPUS_FILES)


# ---------------------------------------------------------------------------
# One run


@dataclass
class Iteration:
    procs: list[Proc]
    problems: list[str]
    outputs: dict[str, str]
    traces: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def ref_wall(self) -> float:
        return sum(p.wall * p.speed for p in self.procs)

    @property
    def ref_cpu(self) -> float:
        return sum(p.cpu * p.speed for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


@dataclass
class Run:
    workload: Workload
    seed: int  # synth seed
    size: str
    work: Path
    pinned: dict | None
    input_rows: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def gate(self, kind: str, got: dict[str, str]) -> list[str]:
        if self.pinned is None:
            return []
        return compare_digests(kind, got, self.pinned[kind])

    def synth(self, index: int, trace: bool = False) -> tuple[Proc, Path, dict | None]:
        out = self.work / f"input{index}"
        args = []
        ini = self.workload.synth_ini.get(self.size)
        if ini:
            config = self.work / "synth.ini"
            config.write_text("[synth]\n" + ini, encoding="utf-8")
            args = ["--config", str(config)]
        args += ["synth", "--seed", str(self.seed), *self.workload.synth_args[self.size], "--out-dir", str(out)]
        trace_file = self.work / f"synth{index}.trace.json" if trace else None
        proc = spawn(cli_argv(args, trace_file), self.work / f"synth{index}.log")
        problems = exit_problems(proc)
        if not problems:
            problems = self.gate("inputs", digest_dir(out))
        self.record(problems)
        traced = json.loads(trace_file.read_text()) if trace_file and not problems else None
        return proc, out, traced

    def iterate(self, inp: Path, index: int, trace: bool = False) -> Iteration:
        """Run the workload's timed commands once, in order, into a fresh empty directory."""
        out = self.work / f"out{index}"
        out.mkdir()
        procs: list[Proc] = []
        traces: list[dict] = []
        problems: list[str] = []
        for step, args in enumerate(self.workload.steps(inp, out)):
            trace_file = self.work / f"out{index}.{step}.trace.json" if trace else None
            proc = spawn(cli_argv(args, trace_file), self.work / f"out{index}.{step}.log")
            procs.append(proc)
            problems = exit_problems(proc)
            if problems:
                break
            if trace_file:
                traced = json.loads(trace_file.read_text())
                traced["subcommand"] = args[0]
                traced["startup"] = traced["ready"] - proc.start
                traces.append(traced)
        outputs = digest_dir(out)
        if not problems:
            problems = self.gate("outputs", outputs)
        self.record(problems)
        shutil.rmtree(out)
        return Iteration(procs, problems, outputs, traces)


def exit_problems(proc: Proc) -> list[str]:
    if proc.code == 0:
        return []
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit {proc.code} from {' '.join(proc.argv[1:4])} ...: {tail[0]}"]


def keep_going(started: float, seconds: float, done: list[float]) -> bool:
    """Start another iteration only if its expected length still fits in the budget."""
    return time.perf_counter() - started + statistics.median(done) <= seconds


def measure(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Untraced run: end-to-end metrics."""
    setups = []
    for index in range(SETUP_REPEATS):
        proc, inp, _ = run.synth(index)
        setups.append(proc)
        if run.failed:
            return {}
        if index:
            shutil.rmtree(inp)
    inp = run.work / "input0"
    run.input_rows = data_rows(inp)

    iterations: list[Iteration] = []
    started = time.perf_counter()
    while not iterations or keep_going(started, seconds, [i.wall for i in iterations]):
        iteration = run.iterate(inp, len(iterations))
        if iteration.problems:
            return {}
        iterations.append(iteration)
    wall = statistics.median(i.ref_wall for i in iterations)
    print(f"# raw wall_s {statistics.median(i.wall for i in iterations):.4f} s, raw setup_s "
          f"{statistics.median(p.wall for p in setups):.4f} s, {len(iterations)} iterations, speed factor "
          f"{statistics.median(p.speed for i in iterations for p in i.procs):.4f}")
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(i.ref_cpu for i in iterations), "s"),
        "peak_rss_mb": (statistics.median(i.rss_mb for i in iterations), "MB"),
        "rows_per_s": (run.input_rows / wall, "rows/s"),
        "setup_s": (statistics.median(p.wall * p.speed for p in setups), "s"),
        "setup_rss_mb": (statistics.median(p.rss_mb for p in setups), "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run


def span_times(traces: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name, summed over processes."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for traced in traces:
        spans = traced["spans"]
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, parent, start, end), inner in zip(spans, child):
            total[name] = total.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - inner
    return total, self_time


def layer_metrics(traces: list[dict], synth_trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer seconds and counts of one traced iteration plus the traced synth."""
    total, self_time = span_times(traces)
    synth_total, _ = span_times([synth_trace])
    counts: dict[str, float] = {}
    for traced in traces:
        for key, value in traced["counts"].items():
            counts[key] = counts.get(key, 0) + value
    synth_counts = synth_trace["counts"]

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def c(name: str) -> float:
        return counts.get(name, 0)

    considered = c("corpus.pubs_accepted") + c("corpus.rejected_out_of_window") + c("corpus.rejected_no_domestic")
    metrics = {
        "synth.generate_s": (synth_total.get("synth.generate", 0.0), "s"),
        "synth.write_synth_s": (synth_total.get("synth.write_synth", 0.0), "s"),
        "synth.rows_written": (synth_counts.get("synth.rows_written", 0), "count"),
        "synth.bytes_written": (synth_counts.get("synth.bytes_written", 0), "bytes"),
        "corpus.load_corpus_s": (t("corpus.load_corpus"), "s"),
        "corpus.read_tables_s": (t("corpus.read_peer_outcomes_csv", "corpus.read_indicators_csv"), "s"),
        "corpus.rows_read": (c("corpus.rows_read"), "count"),
        "corpus.bytes_read": (c("corpus.bytes_read"), "bytes"),
        "corpus.pubs_accepted": (c("corpus.pubs_accepted"), "count"),
        "corpus.rejected_out_of_window": (c("corpus.rejected_out_of_window"), "count"),
        "corpus.rejected_no_domestic": (c("corpus.rejected_no_domestic"), "count"),
        "corpus.accept_ratio": (c("corpus.pubs_accepted") / considered if considered else 0.0, "ratio"),
        "scoring.compute_baselines_s": (t("scoring.compute_baselines"), "s"),
        "scoring.baseline_cells": (c("scoring.baseline_cells"), "count"),
        "scoring.credit_shares_s": (t("scoring.credit_shares"), "s"),
        "scoring.shares": (c("scoring.shares"), "count"),
        "scoring.life_science_pubs": (c("scoring.life_science_pubs"), "count"),
        "scoring.life_science_slots": (c("scoring.life_science_slots"), "count"),
        "productivity.score_corpus_s": (t("productivity.score_corpus"), "s"),
        "productivity.score_corpus_self_s": (self_time.get("productivity.score_corpus", 0.0), "s"),
        "productivity.filter_eligible_sds_s": (t("productivity.filter_eligible_sds"), "s"),
        "productivity.sds_productivity_s": (t("productivity.sds_productivity"), "s"),
        "productivity.rollup_s": (
            t("productivity.uda_productivity", "productivity.macro_uda_productivity", "productivity.university_productivity"),
            "s",
        ),
        "productivity.write_s": (t("productivity.write_score_csv", "productivity.write_eligibility_csv"), "s"),
        "productivity.read_score_csv_s": (t("productivity.read_score_csv"), "s"),
        "productivity.eligible_sds": (c("productivity.eligible_sds"), "count"),
        "productivity.kept_share_ratio": (
            c("productivity.kept_shares") / c("scoring.shares") if c("scoring.shares") else 0.0,
            "ratio",
        ),
        "peer_rating.rate_outcomes_s": (t("peer_rating.rate_outcomes"), "s"),
        "peer_rating.pooled_s": (t("peer_rating.pooled_university_ratings"), "s"),
        "peer_rating.write_s": (t("peer_rating.write_rated_csv"), "s"),
        "peer_rating.cells": (c("peer_rating.cells"), "count"),
        "rankcmp.build_ranking_s": (t("rankcmp.build_ranking"), "s"),
        "rankcmp.rankings": (c("rankcmp.rankings"), "count"),
        "rankcmp.correlation_matrix_s": (t("rankcmp.correlation_matrix"), "s"),
        "rankcmp.compare_rankings_s": (t("rankcmp.compare_rankings"), "s"),
        "rankcmp.pairs": (c("rankcmp.pairs"), "count"),
        "rankcmp.render_s": (t("rankcmp.render_matrix", "rankcmp.render_comparison"), "s"),
        "rankcmp.read_ranking_csv_s": (t("rankcmp.read_ranking_csv"), "s"),
        "rankcmp.write_ranking_csv_s": (t("rankcmp.write_ranking_csv"), "s"),
    }
    for sub in SUBCOMMANDS:
        seconds = sum(
            end - start
            for traced in traces
            if traced["subcommand"] == sub
            for name, parent, start, end in traced["spans"]
            if name == "cli.main"
        )
        metrics[f"cli.main_s.{sub}"] = (seconds, "s")
    metrics["cli.self_s"] = (self_time.get("cli.main", 0.0), "s")
    metrics["cli.invocations"] = (len(traces), "count")
    return metrics


COUNT_METRICS = (
    "synth.rows_written",
    "synth.bytes_written",
    "corpus.rows_read",
    "corpus.bytes_read",
    "corpus.pubs_accepted",
    "corpus.rejected_out_of_window",
    "corpus.rejected_no_domestic",
    "scoring.baseline_cells",
    "scoring.shares",
    "scoring.life_science_pubs",
    "scoring.life_science_slots",
    "productivity.eligible_sds",
    "peer_rating.cells",
    "rankcmp.rankings",
    "rankcmp.pairs",
    "cli.invocations",
)


def measure_traced(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Traced run: per-layer metrics from alternating untraced and traced iterations."""
    _, inp, synth_trace = run.synth(0, trace=True)
    if run.failed:
        return {}
    run.input_rows = data_rows(inp)
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    layers: list[dict[str, tuple[float, str]]] = []
    started = time.perf_counter()
    while not plain or keep_going(started, seconds, [a.wall + b.wall for a, b in zip(plain, traced)]):
        for kind, trace in ((plain, False), (traced, True)):
            iteration = run.iterate(inp, len(plain) + len(traced), trace=trace)
            if iteration.problems:
                return {}
            kind.append(iteration)
        layers.append(layer_metrics(traced[-1].traces, synth_trace))
    counts = {name: layers[0][name][0] for name in COUNT_METRICS}
    for other in layers[1:]:
        for name in COUNT_METRICS:
            if other[name][0] != counts[name]:
                run.record([f"count {name} changed between iterations: {counts[name]} vs {other[name][0]}"])
    if run.pinned is not None:
        for name, value in run.pinned["counts"].items():
            if counts.get(name) != value:
                run.record([f"count {name} is {counts.get(name)}, pinned {value}"])

    metrics = {
        name: (statistics.median(layer[name][0] for layer in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    wall = statistics.median(i.wall for i in plain)
    traced_wall = statistics.median(i.wall for i in traced)
    covered = statistics.median(
        sum(t["startup"] + sum(end - start for _, parent, start, end in t["spans"] if parent < 0) for t in i.traces)
        for i in traced
    )
    # Start-up of a fresh interpreter up to the end of ``import bibliorank.cli``, per process.
    metrics["startup.import_s"] = (statistics.median(t["startup"] for i in traced for t in i.traces), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    # Traced time that neither start-up nor cli.main covers: interpreter exit, which
    # frees the corpus, and the tracer's own counting and writing.
    metrics["trace.unaccounted_s"] = (traced_wall - covered, "s")
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, size: str = "full"
) -> tuple[Run, dict[str, tuple[float, str]]]:
    """One benchmark run on the pinned corpus that ``seed`` selects."""
    synth_seed = workload.seeds[seed % 2]
    work = ROOT / ".perfbench-work" / f"{workload.name}-{size}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, synth_seed, size, work, load_pins()[size][workload.name][str(synth_seed)])
    metrics = (measure_traced if trace else measure)(run, seconds)
    if not run.failed:
        shutil.rmtree(work)
    return run, metrics


def check_checkout() -> str | None:
    """The program must come from this checkout's src/, never from an installed copy."""
    if not (ROOT / "src" / "bibliorank" / "cli.py").is_file():
        return f"no bibliorank sources under {ROOT / 'src'}"
    probe = subprocess.run(
        [sys.executable, "-c", "import importlib.util as u; print(u.find_spec('bibliorank').origin)"],
        capture_output=True, text=True, env=child_env(), check=False,
    )
    origin = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or ROOT / "src" not in origin.parents:
        return f"bibliorank would not be imported from {ROOT / 'src'} (found {origin})"
    return None


def result_line(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="even: development corpus, odd: held-out corpus")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test corpora")
    args = parser.parse_args(argv)

    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    pin_to_one_cpu()

    if args.workload == "all":
        cases = [(WORKLOADS[name], seed) for name in WORKLOADS for seed in (0, 1)]
    else:
        cases = [(WORKLOADS[args.workload], args.seed)]
    attempted = failed = 0
    line = ""
    for workload, seed in cases:
        run, metrics = run_workload(workload, seed, args.seconds, bool(args.trace), args.size)
        print(f"# {workload.name} seed {seed} (synth seed {run.seed}, {args.size}): "
              f"{run.attempted - run.failed}/{run.attempted} ok, failed_frac "
              f"{run.failed / max(run.attempted, 1):.4f} ratio, input {run.input_rows} data rows")
        for name, (value, unit) in metrics.items():
            print(f"{workload.name:9s} {name:36s} {value:14.6f} {unit}")
        for problem in run.problems:
            print(f"FAIL {workload.name}: {problem}")
        attempted += run.attempted
        failed += run.failed
        line = result_line(run.attempted, run.failed, metrics)
    if len(cases) > 1:
        line = result_line(attempted, failed, {})
    print(line)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
