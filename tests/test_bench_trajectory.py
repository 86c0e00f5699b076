"""The committed benchmark trajectories: every entry of BENCH_train-desk.json
and BENCH_eval-protocols.json records a before/after run set completely. No
figure is checked against a bound; the files are a record, and the
benchmark itself judges the figures."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("train-desk", "eval-protocols")
SIDES = ("parent", "change")
WALL = ("env_steps_per_s", "op_ms.p50", "setup_s.median")
COMMIT = re.compile(r"[0-9a-f]{40}")
DIGEST = re.compile(r"[0-9a-f]{64}")


def entries(workload):
    doc = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert doc["schema"] == "bench-trajectory/v1"
    assert doc["workload"] == workload
    assert doc["entries"]
    return doc["entries"]


ENTRIES = [(w, e) for w in WORKLOADS for e in entries(w)]


def summary(fig):
    """A median and an IQR per side."""
    assert set(fig) == set(SIDES)
    for side in SIDES:
        assert set(fig[side]) == {"median", "iqr"}
        assert all(isinstance(v, (int, float)) for v in fig[side].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_entries_are_keyed_by_pr_and_parent_commit(workload):
    keys = [(e["pr"], e["parent"]) for e in entries(workload)]
    assert len(set(keys)) == len(keys)
    for pr, parent in keys:
        assert isinstance(pr, int) and pr > 0
        assert COMMIT.fullmatch(parent)


@pytest.mark.parametrize("workload, entry", ENTRIES,
                         ids=[f"{w}:pr{e['pr']}" for w, e in ENTRIES])
def test_an_entry_holds_every_figure_of_its_claim(workload, entry):
    assert isinstance(entry["seed"], int)
    assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1
    assert entry["command"].startswith(f"python3 bench/run.py --workload {workload} ")
    names = {m["name"] for m in SPEC["end_to_end"]}
    # a claim names one end-to-end metric; a no-regression record claims none
    assert entry["claim"] is None or entry["claim"] in names
    assert set(entry["metrics"]) == names
    for fig in entry["metrics"].values():
        summary(fig)
    assert set(entry["wall"]) == set(WALL)
    for fig in entry["wall"].values():
        summary(fig)
    summary(entry["ref_kernel_ms"])
    for side in SIDES:
        assert len(entry["runs"][side]) == entry["pairs"]
    digests = entry["output_sha256_seed1"]
    assert set(digests) == set(SIDES)
    for side in SIDES:
        assert digests[side]
        assert all(DIGEST.fullmatch(d) for d in digests[side].values())
