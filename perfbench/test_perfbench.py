"""Tests of the benchmark itself, on tiny corpora.

Run from the root of a checkout: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(name: str, work: Path) -> bench.Run:
    workload = bench.WORKLOADS[name]
    seed = workload.seeds[0]
    return bench.Run(workload, seed, "tiny", work, bench.load_pins()["tiny"][name][str(seed)])


def test_tampered_output_byte_fails_the_gate(tmp_path):
    run = tiny_run("national", tmp_path)
    _, inp, _ = run.synth(0)
    out = tmp_path / "out"
    for args in run.workload.steps(inp, out):
        assert bench.spawn(bench.cli_argv(args, None), tmp_path / "step.log").code == 0
    assert run.gate("outputs", bench.digest_dir(out)) == []

    path = out / "scores_university.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert run.gate("outputs", bench.digest_dir(out)) == [
        "outputs: sha256 of scores_university.csv differs from the pin"
    ]


def test_output_mismatch_fails_the_run(tmp_path):
    run = tiny_run("national", tmp_path)
    _, inp, _ = run.synth(0)
    run.pinned = {**run.pinned, "outputs": {**run.pinned["outputs"], "eligibility.csv": "0" * 64}}
    iteration = run.iterate(inp, 0)
    assert iteration.problems == ["outputs: sha256 of eligibility.csv differs from the pin"]
    assert (run.attempted, run.failed) == (2, 1)


def test_nonzero_exit_fails_the_run(tmp_path):
    def failing_steps(inp, out):
        yield ["rank", "--input", str(inp / "missing.csv"), "--out-dir", str(out)]

    run = tiny_run("national", tmp_path)
    run.workload = bench.Workload("broken", {}, {}, (0, 0), failing_steps)
    iteration = run.iterate(tmp_path, 0)
    assert len(iteration.problems) == 1 and iteration.problems[0].startswith("exit 2 from")
    assert (run.attempted, run.failed) == (1, 1)


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "national", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_smoke_run_passes(name, trace):
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", name, "--seed", str(trace),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
