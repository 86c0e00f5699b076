"""redloco benchmark: one workload per run, every metric by name with its unit.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 50 --trace 0

Workloads: train-desk, train-paper, eval-protocols (see workloads.py and
bench/README.md). With ``--trace 0`` the run prints the end-to-end metrics,
measured with no tracing installed; with ``--trace 1`` it alternates untraced
and traced units of work and prints the per-layer split. Either way the
outputs of the program are checked, and the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. End-to-end timings are scaled to the reference speed of
speed.py; the run record holds them as plain wall times too. Run it from the
repository root; it writes only under ``.bench_work/`` there.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS     # pinned before numpy loads

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-desk", "train-paper", "eval-protocols")
MAX_SHOWN = 20            # failed checks printed and recorded; all are counted

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "env_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile. Below 21 samples that percentile would fall under the
    median, so the maximum (percentile 100) is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's Python sources, path and content."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, outcome, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "schema": "bench-run-record/v1",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS), "numpy": np.__version__,
        "python": platform.python_version(), "cpu_model": cpu_model(),
        "operation": outcome.op, "ops_timed": len(outcome.op_ms),
        "setup_samples": len(outcome.setup_s), "unit_ms": outcome.plain_unit_ms,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems[:MAX_SHOWN], "warnings": outcome.warnings,
        "output_sha256": outcome.digests,
        "wall": wall_figures(outcome),
    }


def wall_figures(outcome) -> dict:
    """The end-to-end timings as plain wall times, and the kernel's speed."""
    wall = outcome.wall
    meter = outcome.meter
    return {
        "setup_s.median": statistics.median(wall["setup_s"]) if wall["setup_s"] else None,
        "op_ms.p50": statistics.median(wall["op_ms"]) if wall["op_ms"] else None,
        "env_steps_per_s": (outcome.steps / sum(wall["work_s"])
                            if wall["work_s"] else None),
        "ref_kernel_ms.median": meter.median_ref_ms() if meter else None,
        "ref_kernel_samples": len(meter.durs) if meter else 0,
    }


def end_to_end(outcome) -> tuple[dict[str, float], dict]:
    ops = outcome.op_ms or [0.0]          # no operation finished: the run failed
    value, pct = tail(ops)
    metrics = {
        "setup_s": statistics.median(outcome.setup_s),
        "op_ms.p50": statistics.median(ops),
        "op_ms.tail": value,
        "env_steps_per_s": outcome.steps / outcome.work_s if outcome.work_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": 1.0 - outcome.failed / outcome.attempted,
    }
    notes = {"op_ms.tail_percentile": pct}
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the reduced size of the benchmark's smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "redloco" / "__init__.py").is_file():
        print(f"bench: no program sources at {ROOT / 'src' / 'redloco'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import spans
    import workloads

    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    if args.workload == "eval-protocols":
        outcome = workloads.run_eval(args.seed, args.seconds, trace, args.size, work)
    else:
        preset = "desk" if args.workload == "train-desk" else "paper-shape"
        outcome = workloads.run_train(args.workload, preset, args.seed, args.seconds,
                                      trace, args.size, work)

    record = run_record(args, outcome, np)
    if trace:
        n_ops = outcome.traced_ops
        metrics = spans.layer_metrics(outcome.tracer, n_ops, outcome.traced_s,
                                      outcome.plain_unit_ms, outcome.traced_unit_ms)
        units = spans.layer_units()
        per = "training iteration" if args.workload != "eval-protocols" else "protocol set"
        print(f"# per-layer split, per {per} over {n_ops} traced; "
              f"self time excludes wrapped children")
        for line in spans.span_table(outcome.tracer, n_ops, outcome.traced_s):
            print(line)
        print("# conv/deconv work per call shape")
        for line in spans.conv_table(outcome.tracer, n_ops):
            print(line)
        outcome.tracer.write_spans(work / "spans.csv")
        record["traced_units"] = n_ops
    else:
        metrics, notes = end_to_end(outcome)
        units = END_TO_END_UNITS
        record.update(notes)
    print(f"# {args.workload} seed {args.seed}: {len(outcome.op_ms)} untraced "
          f"operations ({outcome.op}) timed, BLAS threads {BLAS_THREADS}, "
          f"nproc {os.cpu_count()}")
    for name, value in metrics.items():
        print(f"{name:<30}{value:>16.6g} {units[name]}")
    for msg in outcome.problems[:MAX_SHOWN]:
        print(f"CHECK FAILED: {msg}")
    if len(outcome.problems) > MAX_SHOWN:
        print(f"CHECK FAILED: ... and {len(outcome.problems) - MAX_SHOWN} more")
    for msg in outcome.warnings:
        print(f"KNOWN DEFECT (not counted as a failure): {msg}")
    (work / "record.json").write_text(json.dumps(
        dict(record, op_ms=outcome.op_ms, setup_s=outcome.setup_s), indent=2) + "\n")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
