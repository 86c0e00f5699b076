"""Smoke test of the benchmark: every workload at the reduced size, with and
without tracing. Asserts that every metric named in BENCHMARK.json is
emitted with its unit and that the output checks pass.

    python3 -m pytest -q bench/test_bench_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


# train-paper is not in BENCHMARK.json (see README.md) but stays runnable
WORKLOADS = ("train-desk", "train-paper", "eval-protocols")


def test_benchmark_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_passes_checks(workload, trace):
    result, stdout = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)
        record = json.loads((ROOT / ".bench_work" / workload / "record.json").read_text())
        assert record["wall"]["ref_kernel_samples"] > 0
        assert record["wall"]["op_ms.p50"] > 0


def test_traced_split_names_the_duplicate_vp_forward():
    result, _ = run_bench("train-desk", 1)
    assert result["metrics"]["estimators.vp.fwd_per_tick"]["value"] == 2.0


def test_speed_meter_scales_to_the_reference_speed():
    sys.path.insert(0, str(ROOT / "bench"))
    from speed import REF_MS, SpeedMeter
    meter = SpeedMeter()
    meter.starts = [1.0, 2.0, 3.0]
    meter.durs = [0.004, 0.010, 0.006]
    # 2.0 s of wall time holding two kernel runs; median kernel 8 ms
    assert meter.scaled(1.5, 3.5) == pytest.approx((2.0 - 0.016) * REF_MS / 8.0)
    with pytest.raises(ValueError):
        meter.scaled(1.2, 1.8)


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
