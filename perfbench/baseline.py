"""Run the benchmark over many seeds and summarise it; optionally write baseline.json.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 10                 # spreads only
    python3 perfbench/baseline.py --seeds 10 --write         # also baseline.json
    python3 perfbench/baseline.py --compare old.json         # medians against an earlier file

For each workload it runs ``run.py`` once per seed (0, 1, ...) as a separate
process from the checkout root, and reports the median, the quartiles and the spread
(interquartile distance over the median, from ``statistics.quantiles``) of
every end-to-end metric next to its bound from BENCHMARK.json.  With
``--write`` it adds one traced run per pinned seed and stores everything
with the interpreter, library and machine details, so numbers from
different machines are never compared by accident.  With ``--compare`` it
reports, for every workload and end-to-end metric, how far the new median
moved from the one in an earlier baseline file, and whether it got worse
by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit.stdout.strip() or "unknown",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    parser.add_argument("--compare", type=Path, help="earlier baseline file to compare medians with")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    summary: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [bench_run(workload, seed, args.seconds, 0) for seed in range(args.seeds)]
        metrics = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else ("WIDE" if stats["spread"] <= bound else "OVER")
            if name != "setup_s" and flag != "ok":
                steady = False
            print(f"{workload:9s} {name:14s} median {stats['median']:14.4f} {stats['unit']:7s} "
                  f"q1 {stats['q1']:12.4f} q3 {stats['q3']:12.4f} spread {stats['spread']:.4f} "
                  f"bound {bound} {flag}", flush=True)
        summary[workload] = {
            "end_to_end": metrics,
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        }
        if args.write:
            summary[workload]["per_layer"] = {
                str(seed): {k: v["value"] for k, v in bench_run(workload, seed, args.seconds, 1)["metrics"].items()}
                for seed in (0, 1)
            }
    if args.compare:
        old = json.loads(args.compare.read_text(encoding="utf-8"))["workloads"]
        for workload, data in summary.items():
            for name, stats in data["end_to_end"].items():
                before = old[workload]["end_to_end"][name]["median"]
                change = stats["median"] / before - 1
                worse = change if better[name] == "lower" else -change
                flag = "REGRESSION" if worse > bounds[name] else "ok"
                print(f"{workload:9s} {name:14s} {before:14.4f} -> {stats['median']:14.4f} "
                      f"({change:+.2%}, bound {bounds[name]}) {flag}")
                if flag != "ok":
                    steady = False
    if args.write:
        baseline = {
            "environment": environment(),
            "run_seconds": args.seconds,
            "seeds": list(range(args.seeds)),
            "workloads": summary,
        }
        (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {BENCH_DIR / 'baseline.json'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
