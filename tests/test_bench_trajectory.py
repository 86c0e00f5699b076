"""The committed benchmark trajectory: every entry of BENCH_train-desk.json
records a before/after claim completely. No figure is checked against a
bound; the file is a record, and the benchmark itself judges the figures."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = ROOT / "BENCH_train-desk.json"
SIDES = ("parent", "change")
WALL = ("env_steps_per_s", "op_ms.p50", "setup_s.median")
COMMIT = re.compile(r"[0-9a-f]{40}")
DIGEST = re.compile(r"[0-9a-f]{64}")


def entries():
    doc = json.loads(TRAJECTORY.read_text())
    assert doc["schema"] == "bench-trajectory/v1"
    assert doc["workload"] == "train-desk"
    assert doc["entries"]
    return doc["entries"]


def summary(fig):
    """A median and an IQR per side."""
    assert set(fig) == set(SIDES)
    for side in SIDES:
        assert set(fig[side]) == {"median", "iqr"}
        assert all(isinstance(v, (int, float)) for v in fig[side].values())


def test_entries_are_keyed_by_pr_and_parent_commit():
    keys = [(e["pr"], e["parent"]) for e in entries()]
    assert len(set(keys)) == len(keys)
    for pr, parent in keys:
        assert isinstance(pr, int) and pr > 0
        assert COMMIT.fullmatch(parent)


@pytest.mark.parametrize("entry", entries(), ids=lambda e: f"pr{e['pr']}")
def test_an_entry_holds_every_figure_of_its_claim(entry):
    assert isinstance(entry["seed"], int)
    assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1
    assert entry["command"].startswith("python3 bench/run.py --workload train-desk")
    assert set(entry["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for fig in entry["metrics"].values():
        summary(fig)
    assert set(entry["wall"]) == set(WALL)
    for fig in entry["wall"].values():
        summary(fig)
    summary(entry["ref_kernel_ms"])
    digests = entry["output_sha256_seed1"]
    assert set(digests) == set(SIDES)
    for side in SIDES:
        assert digests[side]
        assert all(DIGEST.fullmatch(d) for d in digests[side].values())
