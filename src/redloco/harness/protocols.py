"""Experiment runners: noise robustness, filter-coefficient sweep, switching
traces, and threshold calibration. Every emitted file carries a schema field
and is bit-reproducible from (spec, seed, checkpoint)."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..config import TrainConfig
from ..errors import ContractError
from ..selector import (MODE_OP, MODE_VP, calibrate_beta, filter_update, make_selector,
                        min_flip_ticks, trace_record)
from ..sensor import (STAGE_RANDOMIZED, DepthImage, inject_gaussian, inject_occlusion,
                      inject_salt_pepper)
from ..training.bundle import Networks, load_bundle
from ..training.runner import VecRunner
from ..world import make_command, sample_command

DEFAULT_CONDITIONS = (("gaussian", 30.0), ("gaussian", 70.0), ("gaussian", 100.0),
                      ("salt_pepper", 10.0), ("salt_pepper", 30.0), ("salt_pepper", 70.0))


@dataclass(frozen=True)
class NoiseEvent:
    kind: str                    # gaussian | salt_pepper | occlusion
    level: float                 # percent, ignored for occlusion
    onset: int                   # sim step, inclusive
    offset: int | None = None    # sim step, exclusive; None = until the end

    def active(self, step: int) -> bool:
        return step >= self.onset and (self.offset is None or step < self.offset)


@dataclass
class ExperimentSpec:
    name: str
    checkpoint: str
    beta: float
    terrain_kind: str = "flat"
    terrain_level: int = 0
    robots: int = 20
    command: float = 0.6
    steps: int = 600
    noise_onset: int = 150
    gamma: float = 0.1
    seed: int = 0
    noise_events: list[NoiseEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for ev in self.noise_events:
            if not 0 <= ev.onset < self.steps:
                raise ContractError(f"noise onset {ev.onset} outside the episode")
            if ev.kind != "occlusion" and not 0.0 <= ev.level <= 100.0:
                raise ContractError(f"noise level {ev.level} outside [0, 100]")


def _make_noise_hook(events: list[NoiseEvent], noise_rngs, cam):
    """Tick hook that corrupts every robot's frame with the events active at
    the step; robot i draws from ``noise_rngs[i]``, events in list order."""
    def hook(frames, poses, step):
        active = [ev for ev in events if ev.active(step)]
        for i, rng in enumerate(noise_rngs if active else ()):
            img = DepthImage(frames[i], tuple(poses[i]), STAGE_RANDOMIZED)
            for ev in active:
                if ev.kind == "gaussian":
                    img = inject_gaussian(img, ev.level, rng, cam.max_range, cam.min_depth)
                elif ev.kind == "salt_pepper":
                    img = inject_salt_pepper(img, ev.level, rng, cam.max_range,
                                             cam.min_depth)
                elif ev.kind == "occlusion":
                    img = inject_occlusion(img, cam.min_depth)
                else:
                    raise ContractError(f"unknown noise kind {ev.kind!r}")
            frames[i] = img.data
        return frames, np.full(len(frames), bool(active))
    return hook


@dataclass
class EpisodeResult:
    vx: np.ndarray               # (steps, robots)
    rewards: np.ndarray          # (steps, robots)
    xz: np.ndarray               # (steps, robots, 2)
    tick_steps: list[int]
    traces: list[list[dict]]     # per robot, per valid tick
    modes: np.ndarray            # (n_ticks, robots) 1 = vision mode
    losses: np.ndarray           # (n_ticks, robots), nan where pair invalid


def run_episode(cfg: TrainConfig, nets: Networks, spec: ExperimentSpec, arm: str
                ) -> EpisodeResult:
    """Run one synchronized episode of ``spec.robots`` robots.

    arm = "auto": anomaly selector drives the estimator choice.
    arm = "vp_only": selector disabled, vision latent pinned.
    arm = "op_only": proprio latent pinned.
    """
    if arm not in ("auto", "vp_only", "op_only"):
        raise ContractError(f"unknown arm {arm!r}")
    cfg = dataclasses.replace(cfg)
    cfg.world = dataclasses.replace(cfg.world, episode_steps=spec.steps + 1)
    n = spec.robots
    ss = np.random.SeedSequence(spec.seed)
    children = ss.spawn(2 * n)
    env_rngs = [np.random.default_rng(c) for c in children[:n]]
    noise_rngs = [np.random.default_rng(c) for c in children[n:]]
    commands = [make_command(spec.command) for _ in range(n)]
    runner = VecRunner(cfg, [spec.terrain_kind] * n, env_rngs, nets.op, nets.vp,
                       ae=nets.ae if arm == "auto" else None, eval_mode=True,
                       fixed_commands=commands,
                       start_levels=[spec.terrain_level] * n)
    hook = _make_noise_hook(spec.noise_events, noise_rngs, cfg.camera)
    states = [make_selector(spec.beta, spec.gamma) for _ in range(n)] \
        if arm == "auto" else None
    vx = np.zeros((spec.steps, n))
    rewards = np.zeros((spec.steps, n))
    xz = np.zeros((spec.steps, n, 2))
    traces: list[list[dict]] = [[] for _ in range(n)]
    tick_steps: list[int] = []
    modes_log: list[np.ndarray] = []
    losses_log: list[np.ndarray] = []
    for t in range(spec.steps):
        if runner.is_tick_step():
            tick = runner.tick_estimators(hook)
            tick_steps.append(t)
            if arm == "auto":
                masks = np.zeros(n, dtype=np.int64)
                tick_losses = np.full(n, np.nan)
                for i in range(n):
                    if tick.pair_valid[i]:
                        states[i] = filter_update(states[i], float(tick.losses[i]))
                        traces[i].append(trace_record(states[i], t, float(tick.losses[i])))
                        tick_losses[i] = float(tick.losses[i])
                    masks[i] = 1 if states[i].mode == MODE_OP else 0
                losses_log.append(tick_losses)
            else:
                masks = np.full(n, 1 if arm == "op_only" else 0, dtype=np.int64)
                losses_log.append(np.full(n, np.nan))
            runner.set_latents(masks)
            modes_log.append((masks == 0).astype(np.int64))
        actions = np.clip(nets.policy.mean(runner.policy_obs()), -1.0, 1.0)
        sd = runner.step(actions)
        vx[t] = runner.world.vx
        rewards[t] = sd.rewards
        xz[t, :, 0] = runner.world.x
        xz[t, :, 1] = runner.world.z
    return EpisodeResult(vx, rewards, xz, tick_steps, traces,
                         np.array(modes_log), np.array(losses_log))


# ---------------------------------------------------------------------------

def run_noise_robustness(spec: ExperimentSpec, out_dir: str | Path,
                         conditions=DEFAULT_CONDITIONS) -> dict:
    """Two arms (selector on, vision pinned) per noise condition; emits
    per-step mean-velocity tables, selector traces, and a summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg, nets, _ = load_bundle(spec.checkpoint)
    summary = {"schema": "noise-robustness-summary/v1", "name": spec.name,
               "command": spec.command, "onset": spec.noise_onset,
               "robots": spec.robots, "seed": spec.seed, "conditions": []}
    for kind, level in conditions:
        cname = f"{kind}_{int(level)}"
        events = [NoiseEvent(kind, level, spec.noise_onset)] if level > 0 else []
        cspec = dataclasses.replace(spec, noise_events=events)
        auto = run_episode(cfg, nets, cspec, "auto")
        vp = run_episode(cfg, nets, cspec, "vp_only")
        mean_auto = auto.vx.mean(axis=1)
        mean_vp = vp.vx.mean(axis=1)
        with open(out / f"velocity_{cname}.csv", "w") as f:
            f.write("# schema: noise-velocity/v1\n")
            f.write("step,mean_vx_auto,mean_vx_vp_only\n")
            for t in range(spec.steps):
                f.write(f"{t},{float(mean_auto[t])!r},{float(mean_vp[t])!r}\n")
        with open(out / f"traces_{cname}.jsonl", "w") as f:
            for i, tr in enumerate(auto.traces):
                for rec in tr:
                    rec = dict(rec, robot=i, condition=cname)
                    f.write(json.dumps(rec) + "\n")
        onset_tick = int(np.searchsorted(auto.tick_steps, spec.noise_onset))
        # delay counts noisy ticks up to and including the tick that flips
        delays = []
        op_fracs = []
        for i in range(spec.robots):
            flipped = np.where(auto.modes[onset_tick:, i] == 0)[0]
            if flipped.size:
                delays.append(int(flipped[0]) + 1)
                after = auto.modes[onset_tick + int(flipped[0]):, i]
                op_fracs.append(float((after == 0).mean()))
            else:
                delays.append(-1)
                op_fracs.append(0.0)
        pre = slice(50, spec.noise_onset)
        post = slice(200, 400)
        op_frac = float(np.min(op_fracs)) if level > 0 else 0.0
        cond = {
            "condition": cname, "kind": kind, "level": level,
            "pre_mean_auto": float(mean_auto[pre].mean()),
            "post_mean_auto": float(mean_auto[post].mean()),
            "post_mean_vp_only": float(mean_vp[post].mean()),
            "tracking_err_auto": float(np.abs(mean_auto[post] - spec.command).mean()),
            "tracking_err_vp_only": float(np.abs(mean_vp[post] - spec.command).mean()),
            "switch_delay_ticks": delays,
            "max_switch_delay_ticks": max_switch_delay(delays),
            "min_op_mode_fraction_post_switch": op_frac,
        }
        summary["conditions"].append(cond)
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def max_switch_delay(delays: list[int]) -> int:
    """Largest per-robot switch delay, or -1 unless every robot switched
    (-1 marks a robot that never did), so one robot that never switches is
    not hidden behind the others' delays."""
    return max(delays) if delays and min(delays) > 0 else -1


def switch_delay_text(cond: dict) -> str:
    """One-line switch-delay report for a noise-protocol condition."""
    delays = cond["switch_delay_ticks"]
    never = sum(d < 0 for d in delays)
    if never:
        return f"{never}/{len(delays)} robots never switched"
    return f"all switched within {cond['max_switch_delay_ticks']} ticks"


def run_gamma_sweep(spec: ExperimentSpec, gammas, out_dir: str | Path,
                    timeline: list[NoiseEvent] | None = None) -> dict:
    """Delay and switch-count sweep over filter coefficients on a scripted
    noisy timeline with known onsets; gamma = 1 is the no-filter baseline."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg, nets, _ = load_bundle(spec.checkpoint)
    period = cfg.selector.tick_period
    if timeline is None:
        # two long bursts plus single-tick flickers inside clean segments;
        # everything before the first onset stays clean so P sits saturated
        timeline = [
            NoiseEvent("salt_pepper", 70.0, 200, 300),
            NoiseEvent("salt_pepper", 70.0, 400, 500),
            NoiseEvent("salt_pepper", 70.0, 350, 350 + period),
            NoiseEvent("salt_pepper", 70.0, 550, 550 + period),
        ]
    onsets = [200, 400]
    rows = []
    result = {"schema": "gamma-sweep/v1", "name": spec.name, "onsets": onsets,
              "seed": spec.seed, "rows": rows}
    for gamma in gammas:
        gspec = dataclasses.replace(spec, gamma=float(gamma), noise_events=list(timeline))
        ep = run_episode(cfg, nets, gspec, "auto")
        tick_steps = np.array(ep.tick_steps)
        delays = []
        for onset in onsets:
            onset_tick = int(np.searchsorted(tick_steps, onset))
            per_robot = []
            for i in range(gspec.robots):
                flipped = np.where(ep.modes[onset_tick:, i] == 0)[0]
                per_robot.append(int(flipped[0]) + 1 if flipped.size else -1)
            delays.append(per_robot)
        flat = [d for group in delays for d in group if d >= 0]
        switch_count = int(sum(sum(1 for r in tr if r["switched"]) for tr in ep.traces))
        # independent recurrence replay over the observed vote stream: P values
        # and mode flips must agree with the deployed filter
        max_p_err = 0.0
        flips_match = True
        for i in range(gspec.robots):
            p = cfg.selector.init_p
            mode_vp = p > 0.5
            for rec in ep.traces[i]:
                vote = 1.0 if rec["loss_ad"] < spec.beta else 0.0
                p = (1.0 - gamma) * p + gamma * vote
                max_p_err = max(max_p_err, abs(p - rec["P"]))
                new_mode_vp = p > 0.5
                flips_match &= (new_mode_vp != mode_vp) == rec["switched"]
                mode_vp = new_mode_vp
        rows.append({
            "gamma": float(gamma),
            "first_onset_delays": delays[0],
            "predicted_delay_ticks": min_flip_ticks(float(gamma)),
            "mean_delay_ticks": float(np.mean(flat)) if flat else float("nan"),
            "switch_count": switch_count,
            "recurrence_max_p_err": max_p_err,
            "recurrence_flips_match": bool(flips_match),
        })
    with open(out / "gamma_sweep.csv", "w") as f:
        f.write("# schema: gamma-sweep/v1\n")
        f.write("gamma,first_onset_delay,predicted_delay_ticks,mean_delay_ticks,"
                "switch_count,recurrence_max_p_err,recurrence_flips_match\n")
        for r in rows:
            first = max(r["first_onset_delays"])
            f.write(f"{r['gamma']!r},{first},{r['predicted_delay_ticks']},"
                    f"{r['mean_delay_ticks']!r},{r['switch_count']},"
                    f"{r['recurrence_max_p_err']!r},{r['recurrence_flips_match']}\n")
    (out / "gamma_sweep.json").write_text(json.dumps(result, indent=2))
    return result


def run_trace(spec: ExperimentSpec, out_dir: str | Path) -> dict:
    """Single-robot switching trace: per-tick selector records plus per-step
    body state, one JSON line each."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg, nets, _ = load_bundle(spec.checkpoint)
    tspec = dataclasses.replace(spec, robots=max(1, spec.robots))
    ep = run_episode(cfg, nets, tspec, "auto")
    path = out / "trace.jsonl"
    n_tick_lines = 0
    with open(path, "w") as f:
        for rec in ep.traces[0]:
            f.write(json.dumps(dict(rec, kind="tick")) + "\n")
            n_tick_lines += 1
        for t in range(tspec.steps):
            f.write(json.dumps({
                "schema": "robot-trace/v1", "kind": "step", "step": t,
                "x": float(ep.xz[t, 0, 0]), "z": float(ep.xz[t, 0, 1]),
                "vx": float(ep.vx[t, 0]), "reward": float(ep.rewards[t, 0])}) + "\n")
    mode_flips = int(sum(1 for r in ep.traces[0] if r["switched"]))
    summary = {"schema": "trace-summary/v1", "steps": tspec.steps,
               "tick_lines": n_tick_lines, "mode_flips": mode_flips,
               "final_mode": ep.traces[0][-1]["mode"] if ep.traces[0] else MODE_VP,
               "out": str(path)}
    (out / "trace_summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def calibrate_beta_run(checkpoint: str | Path, episodes: int, seed: int,
                       steps: int = 300) -> dict:
    """Clean evaluation episodes on the checkpoint's training terrains; the
    threshold is the maximum anomaly loss over ticks of episodes that finish
    without falling."""
    cfg, nets, _ = load_bundle(checkpoint)
    mix = list(cfg.terrain_mix)
    ss = np.random.SeedSequence([seed, 917])
    children = ss.spawn(episodes + 1)
    pick_rng = np.random.default_rng(children[-1])
    cfg_eval = dataclasses.replace(cfg)
    cfg_eval.world = dataclasses.replace(cfg.world, episode_steps=steps + 1)
    env_rngs = [np.random.default_rng(c) for c in children[:episodes]]
    kinds = [mix[i % len(mix)] for i in range(episodes)]
    levels = [int(pick_rng.integers(0, 6)) for _ in range(episodes)]
    commands = [sample_command(pick_rng, 2, cfg.world) for _ in range(episodes)]
    runner = VecRunner(cfg_eval, kinds, env_rngs, nets.op, nets.vp, ae=nets.ae,
                       eval_mode=True, fixed_commands=commands, start_levels=levels)
    losses: list[list[float]] = [[] for _ in range(episodes)]
    failed = np.zeros(episodes, dtype=bool)
    for t in range(steps):
        if runner.is_tick_step():
            tick = runner.tick_estimators()
            for i in range(episodes):
                if tick.pair_valid[i] and not failed[i]:
                    losses[i].append(float(tick.losses[i]))
            runner.set_latents(np.zeros(episodes, dtype=np.int64))
        actions = np.clip(nets.policy.mean(runner.policy_obs()), -1.0, 1.0)
        sd = runner.step(actions)
        failed |= sd.terminated
    # successful = finished upright and actually performed the commanded task
    # (a zero command has no commanded distance)
    w = runner.world
    moving = w.commanded_distance > 0
    failed[moving] |= w.along[moving] / w.commanded_distance[moving] < 0.5
    clean = [v for i in range(episodes) if not failed[i] for v in losses[i]]
    if not clean:
        raise ContractError("no successful calibration episodes")
    beta = calibrate_beta(clean)
    return {"schema": "beta-calibration/v1", "beta": beta, "episodes": episodes,
            "successful_episodes": int((~failed).sum()), "steps": steps,
            "seed": seed, "checkpoint": str(checkpoint), "losses_count": len(clean),
            "losses": clean}


def write_beta_file(result: dict, path: str | Path) -> None:
    lines = [f"# schema: {result['schema']}"]
    for k in ("beta", "episodes", "successful_episodes", "steps", "seed",
              "checkpoint", "losses_count"):
        lines.append(f"{k} = {result[k]!r}" if isinstance(result[k], float)
                     else f"{k} = {result[k]}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_beta_file(path: str | Path) -> float:
    for line in Path(path).read_text().splitlines():
        if line.startswith("beta"):
            return float(line.partition("=")[2])
    raise ContractError(f"{path}: no beta entry")
