"""The three benchmark workloads and the checks on their outputs.

train-desk / train-paper
    `Trainer` on the joint config (24 envs x 48 steps, 8-terrain mix) under
    the `desk` (12x16 depth) or `paper-shape` (48x64 depth) preset. The run
    repeats blocks of a fixed number of iterations from the same seed, so
    every block does the same work and must write byte-identical outputs.
    One operation is one training iteration.

eval-protocols
    Set-up builds a checkpoint with a short joint training run at a fixed
    seed. Each protocol set then runs `calibrate_beta_run`, the noise
    protocol (one Gaussian and one salt-and-pepper condition, both arms) and
    the gamma sweep on it, seeded from the benchmark seed. One operation is
    the calibration run or one `run_episode` call.

Time is taken with `time.perf_counter` around the calls. Outside a traced
run the only hooks installed mark iteration and episode boundaries and run
the reference kernel of `speed.SpeedMeter`; the end-to-end timings are wall
times scaled to the kernel's reference speed (see speed.py), and the plain
wall times go into the run record.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from redloco import config as config_mod
from redloco.errors import CheckpointError, ContractError, RolloutAbort
from redloco.harness import protocols
from redloco.training import bundle
from redloco.training import trainer as trainer_mod
from redloco.training.trainer import METRICS_COLUMNS, METRICS_SCHEMA, Trainer

from spans import Instrumentation, Tracer
from speed import SpeedMeter

# errors an operation may raise; each one counts that operation as failed
OP_ERRORS = (RolloutAbort, ContractError, CheckpointError)

JOINT_MIX = ("flat", "stairs_up", "gap", "flat", "stairs_down", "platform",
             "flat", "rough")

# Sizes: "full" is the benchmark; "smoke" is the reduced size of the smoke test.
TRAIN_SIZES = {
    "full": {"train-desk": dict(n_envs=24, horizon=48, block_iters=10),
             "train-paper": dict(n_envs=24, horizon=48, block_iters=1)},
    "smoke": {"train-desk": dict(n_envs=4, horizon=16, block_iters=1),
              "train-paper": dict(n_envs=2, horizon=10, block_iters=1)},
}
TRAIN_SETUPS = 3          # Trainer constructions before the first block

# the checkpoint of eval-protocols: a short joint desk run at a fixed seed
EVAL_CKPT = dict(seed=42, n_envs=8, horizon=48, iterations=10)
EVAL_SIZES = {
    "full": dict(setups=3, cal_episodes=20, cal_steps=300,
                 noise_robots=20, noise_steps=600,
                 conditions=(("gaussian", 70.0), ("salt_pepper", 30.0)),
                 gamma_robots=8, gamma_steps=650, gammas=(0.05, 0.1, 0.3, 1.0)),
    "smoke": dict(setups=1, cal_episodes=4, cal_steps=100,
                  noise_robots=2, noise_steps=420,
                  conditions=(("gaussian", 70.0), ("salt_pepper", 30.0)),
                  gamma_robots=2, gamma_steps=560, gammas=(0.1, 1.0)),
}
NOISE_ONSET = 150
COMMAND = 0.6
P_ERR_TOL = 1e-12


@dataclass
class Outcome:
    """What one benchmark run measured and checked. Outside a traced run,
    `op_ms`, `work_s` and `setup_s` are scaled to the reference speed and
    `wall` holds the same figures in plain wall time."""
    op: str
    op_ms: list[float] = field(default_factory=list)          # untraced ops
    steps: int = 0                                            # robot-steps of untraced units
    work_s: float = 0.0                                       # time of untraced units
    setup_s: list[float] = field(default_factory=list)
    meter: SpeedMeter | None = None
    wall: dict[str, list[float]] = field(
        default_factory=lambda: {"op_ms": [], "work_s": [], "setup_s": []})
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)         # known defects that pass
    digests: dict[str, str] = field(default_factory=dict)
    tracer: Tracer | None = None
    traced_ops: int = 0                                       # iterations or sets
    traced_s: float = 0.0
    # comparable units with tracing off and on, for the tracing overhead:
    # iterations (train) or protocol sets (eval), in ms
    plain_unit_ms: list[float] = field(default_factory=list)
    traced_unit_ms: list[float] = field(default_factory=list)

    def problem(self, msg: str) -> None:
        self.problems.append(msg)

    def close(self) -> float:
        """Ends a timed interval: one kernel sample, then the time."""
        if self.meter is not None:
            self.meter.sample()
        return time.perf_counter()

    def span_s(self, t0: float, t1: float) -> float:
        """An interval's time at the reference speed (wall time when traced)."""
        return self.meter.scaled(t0, t1) if self.meter is not None else t1 - t0

    def add_op(self, t0: float, t1: float) -> None:
        self.op_ms.append(self.span_s(t0, t1) * 1e3)
        self.wall["op_ms"].append((t1 - t0) * 1e3)

    def add_work(self, t0: float, t1: float) -> None:
        self.work_s += self.span_s(t0, t1)
        self.wall["work_s"].append(t1 - t0)

    def add_setup(self, t0: float, t1: float) -> None:
        self.setup_s.append(self.span_s(t0, t1))
        self.wall["setup_s"].append(t1 - t0)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_number(text: str) -> float:
    """A CSV cell as a float. Also reads numpy 2's ``np.float64(x)`` repr,
    which the noise protocol writes into velocity_*.csv."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _first_line(path: Path) -> str:
    with open(path) as f:
        return f.readline().rstrip("\n")


# ---------------------------------------------------------------------------
# operation boundaries

class IterationClock:
    """Marks training-iteration boundaries: each `Trainer.collect` call starts
    one, and the final checkpoint save ends the last. Also samples the
    optimizers' rejected-update counters at each boundary."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.marks: list[tuple[float, int]] = []
        self._restore = []

    @staticmethod
    def _rejected(tr: Trainer) -> int:
        return sum(o.rejected for o in (tr.policy_opt, tr.critic_opt, tr.op_opt,
                                        tr.vp_opt, tr.him_opt, tr.ae_opt))

    def install(self) -> None:
        clock = self
        collect = Trainer.collect
        save = trainer_mod.save_bundle

        def timed_collect(tr, iteration):
            clock.marks.append((clock.out.close(), clock._rejected(tr)))
            clock.trainer = tr
            return collect(tr, iteration)

        def timed_save(*args, **kwargs):
            clock.marks.append((clock.out.close(), clock._rejected(clock.trainer)))
            return save(*args, **kwargs)

        self._restore = [(Trainer, "collect", collect), (trainer_mod, "save_bundle", save)]
        Trainer.collect = timed_collect
        trainer_mod.save_bundle = timed_save

    def uninstall(self) -> None:
        for owner, attr, fn in self._restore:
            setattr(owner, attr, fn)

    def __enter__(self) -> "IterationClock":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> tuple[list[tuple[float, float]], list[int]]:
        """(start, end) times and rejected-update counts of the iterations
        since the last call. Without a closing mark the last iteration is
        open and left out."""
        marks, self.marks = self.marks, []
        spans = [(a[0], b[0]) for a, b in zip(marks, marks[1:])]
        rej = [b[1] - a[1] for a, b in zip(marks, marks[1:])]
        return spans, rej


class EpisodeClock:
    """Times each `run_episode` call of the protocols."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.episodes: list[tuple[float, float, int]] = []    # (start, end, robot-steps)

    def install(self) -> None:
        clock = self
        run_episode = protocols.run_episode

        def timed(cfg, nets, spec, arm):
            t0 = time.perf_counter()
            result = run_episode(cfg, nets, spec, arm)
            clock.episodes.append((t0, clock.out.close(), spec.robots * spec.steps))
            return result

        self._orig = run_episode
        protocols.run_episode = timed

    def uninstall(self) -> None:
        protocols.run_episode = self._orig

    def __enter__(self) -> "EpisodeClock":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def schedule(seconds: float, trace: bool):
    """Yields (index, traced) for each unit of work while one more fits in
    `seconds`, judged by the longest unit so far (checks included). At least
    one unit runs; a traced run alternates untraced and traced units and runs
    at least one of each."""
    start = time.perf_counter()
    longest = 0.0
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        yield i, trace and i % 2 == 1
        longest = max(longest, time.perf_counter() - t0)
        i += 1


def tracing(tracer: Tracer | None, traced: bool):
    return Instrumentation(tracer) if traced else contextlib.nullcontext()


def metering(out: Outcome):
    return out.meter if out.meter is not None else contextlib.nullcontext()


def dir_digests(d: Path) -> dict[str, str]:
    """sha256 of every file under `d`, by relative path."""
    return {str(p.relative_to(d)): sha256_file(p)
            for p in sorted(d.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# training workloads

def train_config(preset: str, seed: int, size: dict, iterations: int):
    cfg = config_mod.PRESETS[preset]()
    cfg.seed = seed
    cfg.n_envs = size["n_envs"]
    cfg.horizon = size["horizon"]
    cfg.iterations = iterations
    cfg.terrain_mix = JOINT_MIX
    return cfg


def check_train_block(out_dir: Path, tr: Trainer, iterations: int,
                      out: Outcome) -> set[int]:
    """Checks one finished block; returns its failed iterations."""
    bad: set[int] = set()
    metrics = out_dir / "metrics.csv"
    lines = metrics.read_text().splitlines()
    if lines[:2] != [f"# schema: {METRICS_SCHEMA}", ",".join(METRICS_COLUMNS)]:
        out.problem(f"{metrics}: schema tag or header changed")
        bad.update(range(iterations))
    rows = lines[2:]
    if len(rows) != iterations:
        out.problem(f"{metrics}: {len(rows)} rows for {iterations} iterations")
        bad.update(range(len(rows), iterations))
    col_rej = METRICS_COLUMNS.index("rejected_updates")
    for it, row in enumerate(rows):
        values = [float(v) for v in row.split(",")]
        if len(values) != len(METRICS_COLUMNS) or not all(map(math.isfinite, values)):
            out.problem(f"{metrics}: iteration {it} has a non-finite or missing value")
            bad.add(it)
        elif values[col_rej] != 0:
            out.problem(f"{metrics}: iteration {it} rejected {values[col_rej]:g} updates")
            bad.add(it)
    masks = out_dir / "masks.csv"
    if _first_line(masks) != "# schema: train-masks/v1":
        out.problem(f"{masks}: schema tag changed")
        bad.update(range(iterations))
    resolved = out_dir / "config.resolved.cfg"
    if _first_line(resolved) != "# schema: redloco-config/v1":
        out.problem(f"{resolved}: schema tag changed")
        bad.update(range(iterations))
    ckpt = out_dir / "checkpoint.ckpt"
    try:
        _, nets, meta = bundle.load_bundle(ckpt)
        same = all(np.array_equal(a.values, b.values) for a, b in zip(
            _all_params(nets), _all_params(tr.nets)))
        if meta.get("iteration") != iterations or not same:
            out.problem(f"{ckpt}: does not round-trip the trained networks")
            bad.update(range(iterations))
    except (CheckpointError, ContractError, ValueError) as e:
        out.problem(f"{ckpt}: load_bundle failed: {e}")
        bad.update(range(iterations))
    return bad


def _all_params(nets):
    for obj in nets.named_stacks().values():
        yield from (obj.params() if hasattr(obj, "params") else [obj])


def run_train(workload: str, preset: str, seed: int, seconds: float, trace: bool,
              size: str, work: Path) -> Outcome:
    sz = TRAIN_SIZES[size][workload]
    k = sz["block_iters"]
    out = Outcome(op="training iteration", tracer=Tracer() if trace else None,
                  meter=None if trace else SpeedMeter())
    with metering(out), IterationClock(out) as clock:
        for _ in range(TRAIN_SETUPS):
            t0 = time.perf_counter()
            Trainer(train_config(preset, seed, sz, k), work / "setup")
            out.add_setup(t0, out.close())
        for block, traced in schedule(seconds, trace):
            out_dir = work / f"block{block}"
            t0 = time.perf_counter()
            tr = Trainer(train_config(preset, seed, sz, k), out_dir)
            out.add_setup(t0, out.close())
            error = None
            t0 = time.perf_counter()
            with tracing(out.tracer, traced):
                try:
                    tr.run()
                except OP_ERRORS as e:
                    error = e
            wall = time.perf_counter() - t0
            iters, rejected = clock.take()
            bad = {i for i, r in enumerate(rejected) if r}
            for i in sorted(bad):
                out.problem(f"block {block} iteration {i}: optimizer rejected "
                            f"{rejected[i]} updates")
            if error is not None:
                out.problem(f"block {block}: {type(error).__name__}: {error}")
                bad.update(range(len(iters), k))
                if traced:
                    out.tracer.count("training.aborts", int(isinstance(error, RolloutAbort)))
            else:
                bad |= check_train_block(out_dir, tr, k, out)
                digests = dir_digests(out_dir)
                if not out.digests:
                    out.digests = digests
                elif digests != out.digests:
                    out.problem(f"block {block}: outputs differ from block 0 under one seed")
                    bad.update(range(k))
            out.attempted += k
            out.failed += len(bad)
            if traced:
                out.tracer.count("training.rejected_updates", sum(rejected))
                out.traced_ops += k
                out.traced_s += wall
                out.traced_unit_ms += [(b - a) * 1e3 for a, b in iters]
            else:
                for a, b in iters:
                    out.add_op(a, b)
                    out.add_work(a, b)
                out.plain_unit_ms += [(b - a) * 1e3 for a, b in iters]
                out.steps += len(iters) * sz["n_envs"] * sz["horizon"]
    return out


# ---------------------------------------------------------------------------
# deployment protocols

def build_eval_checkpoint(work: Path, out: Outcome, setups: int) -> Path:
    """Set-up of eval-protocols: the short joint training run and its
    checkpoint save, done `setups` times; every copy must be identical."""
    ckpts = []
    for i in range(setups):
        cfg = train_config("desk", EVAL_CKPT["seed"], EVAL_CKPT, EVAL_CKPT["iterations"])
        t0 = time.perf_counter()
        result = Trainer(cfg, work / f"setup{i}").run()
        out.add_setup(t0, out.close())
        ckpts.append(result.checkpoint)
    digests = {sha256_file(c) for c in ckpts}
    if len(digests) != 1:
        out.problem("set-up checkpoints differ under one seed")
    out.digests["setup_checkpoint"] = sha256_file(ckpts[0])
    return ckpts[0]


class ProtocolSet:
    """One calibration run, the noise protocol and the gamma sweep."""

    def __init__(self, ckpt: Path, seed: int, sz: dict, out_dir: Path) -> None:
        self.ckpt, self.seed, self.sz, self.out_dir = ckpt, seed, sz, out_dir
        self.n_noise = 2 * len(sz["conditions"])
        self.n_gamma = len(sz["gammas"])
        self.n_ops = 1 + self.n_noise + self.n_gamma
        self.cal = self.noise = self.gamma = None
        self.errors: dict[str, Exception] = {}
        self.ops: list[tuple[float, float, int]] = []     # (start, end, robot-steps)

    def run(self, clock: EpisodeClock) -> tuple[float, float]:
        """Runs the protocols; returns their start and end times. Checks
        come later."""
        sz, ck = self.sz, str(self.ckpt)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        clock.episodes.clear()
        t_start = time.perf_counter()
        try:
            self.cal = protocols.calibrate_beta_run(ck, sz["cal_episodes"], self.seed,
                                                    steps=sz["cal_steps"])
            protocols.write_beta_file(self.cal, self.out_dir / "beta.cfg")
        except OP_ERRORS as e:
            self.errors["calibration"] = e
        self.ops.append((t_start, clock.out.close(), sz["cal_episodes"] * sz["cal_steps"]))
        if self.cal is not None:
            beta = self.cal["beta"]
            spec = protocols.ExperimentSpec(
                "bench-noise", ck, beta, robots=sz["noise_robots"], command=COMMAND,
                steps=sz["noise_steps"], noise_onset=NOISE_ONSET, seed=self.seed)
            try:
                self.noise = protocols.run_noise_robustness(
                    spec, self.out_dir / "noise", conditions=sz["conditions"])
            except OP_ERRORS as e:
                self.errors["noise"] = e
            spec = protocols.ExperimentSpec(
                "bench-gamma", ck, beta, robots=sz["gamma_robots"],
                steps=sz["gamma_steps"], seed=self.seed)
            try:
                self.gamma = protocols.run_gamma_sweep(spec, sz["gammas"],
                                                       self.out_dir / "gamma")
            except OP_ERRORS as e:
                self.errors["gamma"] = e
        t_end = clock.out.close()
        self.ops += clock.episodes
        return t_start, t_end

    def check(self, out: Outcome) -> int:
        """Checks the outputs; returns the failed operations."""
        for name, e in self.errors.items():
            out.problem(f"{name}: {type(e).__name__}: {e}")
        if self.cal is None:
            return self.n_ops
        try:
            return (self._check_calibration(out) + self._check_noise(out)
                    + self._check_gamma(out))
        except (OSError, ValueError, KeyError) as e:
            out.problem(f"protocol outputs unreadable: {type(e).__name__}: {e}")
            return self.n_ops

    def _check_calibration(self, out: Outcome) -> int:
        cal = self.cal
        beta_file = self.out_dir / "beta.cfg"
        ok = (cal["schema"] == "beta-calibration/v1"
              and _first_line(beta_file) == "# schema: beta-calibration/v1"
              and cal["successful_episodes"] > 0 and math.isfinite(cal["beta"])
              and all(map(math.isfinite, cal["losses"])))
        if not ok:
            out.problem("calibration: no successful episodes, a non-finite loss "
                        "or a changed schema tag")
        return int(not ok)

    def _check_noise(self, out: Outcome) -> int:
        if self.noise is None:
            return self.n_noise
        d = self.out_dir / "noise"
        summary = json.loads((d / "summary.json").read_text())
        if summary.get("schema") != "noise-robustness-summary/v1":
            out.problem("noise: summary.json schema tag changed")
            return self.n_noise
        failed = 0
        for cond in summary["conditions"]:
            name = cond["condition"]
            vel = d / f"velocity_{name}.csv"
            lines = vel.read_text().splitlines()
            traces = (d / f"traces_{name}.jsonl").read_text().splitlines()
            numbers = [cond[key] for key in ("pre_mean_auto", "post_mean_auto",
                                             "post_mean_vp_only", "tracking_err_auto",
                                             "tracking_err_vp_only")]
            if "np.float64(" in lines[-1]:
                msg = "noise: velocity_*.csv holds np.float64(...) reprs, not plain numbers"
                if msg not in out.warnings:
                    out.warnings.append(msg)
            ok = (lines[0] == "# schema: noise-velocity/v1"
                  and len(lines) == self.sz["noise_steps"] + 2
                  and all(math.isfinite(_csv_number(v)) for line in lines[2:]
                          for v in line.split(","))
                  and all(map(math.isfinite, numbers))
                  and all(json.loads(t)["schema"] == "selector-trace/v1" for t in traces))
            if not ok:
                out.problem(f"noise {name}: non-finite output or a changed schema tag")
                failed += 2
        return failed

    def _check_gamma(self, out: Outcome) -> int:
        if self.gamma is None:
            return self.n_gamma
        d = self.out_dir / "gamma"
        if (self.gamma["schema"] != "gamma-sweep/v1"
                or json.loads((d / "gamma_sweep.json").read_text())["schema"] != "gamma-sweep/v1"
                or _first_line(d / "gamma_sweep.csv") != "# schema: gamma-sweep/v1"):
            out.problem("gamma sweep: schema tag changed")
            return self.n_gamma
        failed = 0
        for row in self.gamma["rows"]:
            if not (row["recurrence_flips_match"]
                    and row["recurrence_max_p_err"] <= P_ERR_TOL):
                out.problem(f"gamma {row['gamma']}: filter disagrees with the "
                            f"recurrence replay (max |dP| {row['recurrence_max_p_err']})")
                failed += 1
        return failed


def run_eval(seed: int, seconds: float, trace: bool, size: str, work: Path) -> Outcome:
    sz = EVAL_SIZES[size]
    out = Outcome(op="protocol episode", tracer=Tracer() if trace else None,
                  meter=None if trace else SpeedMeter())
    with metering(out), EpisodeClock(out) as clock:
        ckpt = build_eval_checkpoint(work, out, sz["setups"])
        for n, traced in schedule(seconds, trace):
            pset = ProtocolSet(ckpt, seed, sz, work / f"set{n}")
            with tracing(out.tracer, traced):
                t_start, t_end = pset.run(clock)
            wall = t_end - t_start
            failed = pset.check(out)
            digests = dir_digests(pset.out_dir)
            if n == 0:
                first = digests
                out.digests.update(digests)
            elif digests != first:
                out.problem(f"set {n}: outputs differ from set 0 under one seed")
                failed = pset.n_ops
            out.attempted += pset.n_ops
            out.failed += min(failed, pset.n_ops)
            if traced:
                out.traced_ops += 1
                out.traced_s += wall
                out.traced_unit_ms.append(wall * 1e3)
            else:
                out.plain_unit_ms.append(wall * 1e3)
                for a, b, _ in pset.ops:
                    out.add_op(a, b)
                out.add_work(t_start, t_end)
                out.steps += sum(n_steps for _, _, n_steps in pset.ops)
    return out
