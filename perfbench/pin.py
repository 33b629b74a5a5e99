"""Write pins.json: the sha256 of every input and output file of each
workload's two pinned seeds, and the layer counts of its traced run.

Usage, from the root of a checkout: python3 perfbench/pin.py

Each case runs synth once (traced), the timed commands once untraced and
once traced, in processes with different hash seeds; both must produce
the same bytes.  Pins change only in a change that says in CHANGES.md why
the output bytes moved.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench


def pin_case(workload: bench.Workload, seed: int, size: str) -> dict:
    work = bench.ROOT / ".perfbench-work" / f"pin-{workload.name}-{size}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = bench.Run(workload, seed, size, work, None)
    _, inp, synth_trace = run.synth(0, trace=True)
    plain = run.iterate(inp, 0) if not run.failed else None
    traced = run.iterate(inp, 1, trace=True) if not run.failed else None
    if run.failed or plain.outputs != traced.outputs:
        sys.exit(f"{workload.name} seed {seed} ({size}): {run.problems or 'outputs differ between processes'}")
    layers = bench.layer_metrics(traced.traces, synth_trace)
    case = {
        "inputs": bench.digest_dir(inp),
        "outputs": plain.outputs,
        "counts": {name: layers[name][0] for name in bench.COUNT_METRICS},
    }
    shutil.rmtree(work)
    return case


def main() -> int:
    pins = {
        size: {
            w.name: {str(seed): pin_case(w, seed, size) for seed in w.seeds}
            for w in bench.WORKLOADS.values()
        }
        for size in ("full", "tiny")
    }
    bench.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {bench.PINS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
