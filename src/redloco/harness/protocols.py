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
from ..errors import ConfigError, ContractError
from ..selector import (MODE_VP, calibrate_beta, filter_step, filter_update, make_selector,
                        min_flip_ticks, trace_record)
from ..sensor import inject_gaussian, inject_occlusion, inject_salt_pepper
from ..sensor.camera import MAX_RANGE, MIN_DEPTH
from ..training.bundle import Networks, load_bundle
from ..training.runner import TICK_PERIOD, RunnerState, VecRunner
from ..world import make_command, sample_command

DEFAULT_CONDITIONS = (("gaussian", 30.0), ("gaussian", 70.0), ("gaussian", 100.0),
                      ("salt_pepper", 10.0), ("salt_pepper", 30.0), ("salt_pepper", 70.0))
NOISE_KINDS = ("gaussian", "salt_pepper", "occlusion")


@dataclass(frozen=True)
class NoiseEvent:
    kind: str                    # gaussian | salt_pepper | occlusion
    level: float                 # percent, ignored for occlusion
    onset: int                   # sim step, inclusive
    offset: int | None = None    # sim step, exclusive; None = until the end

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ContractError(f"unknown noise kind {self.kind!r}; known kinds: "
                                f"{', '.join(NOISE_KINDS)}")
        if self.kind != "occlusion" and not 0.0 <= self.level <= 100.0:
            raise ContractError(f"noise level {self.level} outside [0, 100]")
        if self.offset is not None and self.offset <= self.onset:
            raise ContractError(f"noise window ends at step {self.offset}, at or before "
                                f"its onset {self.onset}; the offset must be later")

    def active(self, step: int) -> bool:
        return step >= self.onset and (self.offset is None or step < self.offset)


@dataclass
class ExperimentSpec:
    name: str
    checkpoint: str
    beta: float
    robots: int = 20
    command: float = 0.6
    steps: int = 600
    noise_onset: int = 150
    gamma: float = 0.1
    seed: int = 0
    noise_events: list[NoiseEvent] = field(default_factory=list)
    # a clean prefix of this spec (see `clean_prefix`) that `run_episode` resumes from
    start: CleanPrefix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("robots", "steps"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ContractError(f"seed must be at least 0, got {self.seed}")
        if not np.isfinite(self.command):
            raise ContractError(f"command must be a finite speed, got {self.command}")
        make_selector(self.beta, self.gamma)    # refuses a non-finite beta, gamma outside (0, 1]
        for ev in self.noise_events:
            if not 0 <= ev.onset < self.steps:
                raise ContractError(f"noise onset {ev.onset} outside the episode: steps is "
                                    f"{self.steps}, so an onset must lie in [0, {self.steps - 1}]")


def _make_noise_hook(events: list[NoiseEvent], noise_rngs):
    """Tick hook that corrupts every robot's frame of the (E, H, W) stack with
    the events active at the step; robot i draws from ``noise_rngs[i]``,
    events in list order."""
    def hook(frames, step):
        active = [ev for ev in events if ev.active(step)]
        for i, rng in enumerate(noise_rngs if active else ()):
            for ev in active:
                if ev.kind == "gaussian":
                    frames[i] = inject_gaussian(frames[i], ev.level, rng, MAX_RANGE, MIN_DEPTH)
                elif ev.kind == "salt_pepper":
                    frames[i] = inject_salt_pepper(frames[i], ev.level, rng, MAX_RANGE, MIN_DEPTH)
                else:
                    frames[i] = inject_occlusion(frames[i], MIN_DEPTH)
        return frames, np.full(len(frames), bool(active))
    return hook


@dataclass
class EpisodeResult:
    vx: np.ndarray               # (steps, robots)
    rewards: np.ndarray          # (steps, robots)
    xz: np.ndarray               # (steps, robots, 2)
    terminated: np.ndarray       # (steps, robots)
    tick_steps: list[int]
    p: np.ndarray                # (n_ticks, robots) vision trust after the tick
    modes: np.ndarray            # (n_ticks, robots) 1 = vision mode
    losses: np.ndarray           # (n_ticks, robots), nan where pair invalid


@dataclass
class CleanPrefix:
    """The clean start that every arm, condition and gamma of one protocol
    share: the runner captured just before the tick at sim step ``fork``, and
    the ``fork`` steps and the scored ticks before it. `clean_prefix` builds
    it for a spec's ``robots``, ``seed``, ``command`` and ``beta``."""
    robots: int
    seed: int
    command: float
    beta: float
    fork: int
    state: RunnerState
    episode: EpisodeResult       # P and modes are all 1; losses are the scores


def _spec_robots(spec: ExperimentSpec) -> tuple[dict, list]:
    """`_deploy`'s robot arguments for the spec's robots (flat ground, level 0,
    the spec's command; robot i steps with generator i of the spec's seed) and
    their noise generators (robot i corrupts with generator n + i)."""
    n = spec.robots
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(spec.seed).spawn(2 * n)]
    return dict(kinds=["flat"] * n, levels=[0] * n,
                commands=[make_command(spec.command) for _ in range(n)],
                env_rngs=rngs[:n]), rngs[n:]


def _deploy(cfg: TrainConfig, nets: Networks, steps: int, kinds: list[str], levels: list[int],
            commands, env_rngs, score: bool, filt: tuple[float, float] | None,
            hook, start: CleanPrefix | None = None) -> tuple[EpisodeResult, VecRunner]:
    """The deployment loop: one robot per entry of ``kinds`` on its fixed command,
    driven by the policy mean for ``steps`` sim steps; no episode times out
    within them. Each estimator tick scores the frame pairs if ``score``,
    advances every robot's vision trust P, which starts at 1, by one
    `filter_step` if ``filt = (beta, gamma)``, and selects vision where P > 0.5.
    With ``start`` the loop resumes at ``start.fork``: the runner is restored
    from the prefix's capture, the prefix's steps and ticks are logged as they
    were (its scores only if ``score``), and P restarts at 1, where the prefix
    left it. Returns the episode and the runner after its last step; a clean
    prefix is a shorter run of this loop, and `clean_prefix` captures that
    runner once."""
    cfg = dataclasses.replace(cfg, world=dataclasses.replace(cfg.world, episode_steps=steps + 1))
    runner = VecRunner(cfg, kinds, env_rngs, nets.op, nets.vp, ae=nets.ae if score else None,
                       fixed_commands=commands, start_levels=levels)
    n = len(kinds)
    vx, rewards, xz = np.zeros((steps, n)), np.zeros((steps, n)), np.zeros((steps, n, 2))
    terminated = np.zeros((steps, n), dtype=bool)
    tick_steps, p_log, losses_log, t0 = [], [], [], 0
    if start is not None:
        pre, t0 = start.episode, start.fork
        runner.restore(start.state)
        vx[:t0], rewards[:t0], xz[:t0], terminated[:t0] = (pre.vx, pre.rewards, pre.xz,
                                                           pre.terminated)
        tick_steps += pre.tick_steps
        p_log += [np.ones(n)] * len(pre.tick_steps)
        losses_log += (list(pre.losses) if score
                       else [np.full(n, np.nan)] * len(pre.tick_steps))
    p = np.ones(n)
    for t in range(t0, steps):
        if runner.is_tick_step():
            tick = runner.tick_estimators(hook)
            if filt is not None:
                p = filter_step(p, tick.losses, tick.pair_valid, *filt)
            runner.set_latents((p <= 0.5).astype(np.int64))
            tick_steps.append(t)
            p_log.append(p)
            # nan where the pair is invalid or nothing scored
            losses_log.append(np.full(n, np.nan) if tick.losses is None
                              else np.where(tick.pair_valid, tick.losses, np.nan))
        sd = runner.step(np.clip(nets.policy.mean(runner.policy_obs()), -1.0, 1.0))
        vx[t], rewards[t], terminated[t] = runner.world.vx, sd.rewards, sd.terminated
        xz[t, :, 0], xz[t, :, 1] = runner.world.x, runner.world.z
    p_ticks = np.array(p_log)
    return EpisodeResult(vx, rewards, xz, terminated, tick_steps, p_ticks,
                         (p_ticks > 0.5).astype(np.int64), np.array(losses_log)), runner


def clean_prefix(cfg: TrainConfig, nets: Networks, spec: ExperimentSpec,
                 onset: int) -> CleanPrefix:
    """The spec's robots on a shorter `_deploy` run, scored and filtered with
    gamma 1, and one capture of its runner: the run stops before the first
    tick at or after ``onset``, or before the first tick where some valid pair
    does not score below ``spec.beta``. Gamma 1 sets exactly that pair's P to
    0, so a run that reaches such a tick is run again, fresh, up to it. Up to
    the fork every run of the spec steps the same bits, whatever its arm,
    noise from ``onset`` on, or gamma: the noise hook draws nothing before an
    onset and the autoencoder draws nothing at all, and while every valid pair
    votes 1, (1 - gamma) * 1 + gamma * 1 rounds to exactly 1 for every gamma in
    (0, 1], so every robot keeps P = 1 and vision."""

    def run(steps: int) -> tuple[EpisodeResult, VecRunner]:
        # fresh generators for each run, so a rerun steps the same bits
        return _deploy(cfg, nets, steps, **_spec_robots(spec)[0], score=True,
                       filt=(spec.beta, 1.0), hook=None)

    fork = min(-(-onset // TICK_PERIOD) * TICK_PERIOD, spec.steps)
    episode, runner = run(fork)
    # rows, not .any(axis=1): a fork at step 0 logs no ticks, and p is then (0,)
    stop = next((k for k, p in enumerate(episode.p) if (p < 1.0).any()), None)
    if stop is not None:
        fork = episode.tick_steps[stop]
        episode, runner = run(fork)
    return CleanPrefix(spec.robots, spec.seed, spec.command, spec.beta, fork, runner.capture(),
                       episode)


def _first_noisy_tick(events: list[NoiseEvent], steps: int) -> int:
    """The first tick step at which some event corrupts the frames, else ``steps``."""
    return next((t for t in range(0, steps, TICK_PERIOD)
                 if any(ev.active(t) for ev in events)), steps)


def run_episode(cfg: TrainConfig, nets: Networks, spec: ExperimentSpec, arm: str
                ) -> EpisodeResult:
    """Run one synchronized episode of ``spec.robots`` robots, from
    ``spec.start`` if it holds a clean prefix of this spec.

    arm = "auto": anomaly selector drives the estimator choice.
    arm = "vp_only": selector disabled, vision latent pinned.
    """
    if arm not in ("auto", "vp_only"):
        raise ContractError(f"unknown arm {arm!r}")
    start = spec.start
    if start is not None:
        built = dict(robots=start.robots, seed=start.seed, command=start.command,
                     beta=start.beta)
        want = dict(robots=spec.robots, seed=spec.seed, command=spec.command, beta=spec.beta)
        if built != want:
            raise ContractError(f"the clean prefix was built for {built}, not for this "
                                f"spec's {want}")
        first = _first_noisy_tick(spec.noise_events, spec.steps)
        if start.fork > first:
            raise ContractError(f"the clean prefix forks at step {start.fork}, past this "
                                f"spec's first noisy tick at step {first}")
    auto = arm == "auto"
    robots, noise_rngs = _spec_robots(spec)
    hook = _make_noise_hook(spec.noise_events, noise_rngs)
    return _deploy(cfg, nets, spec.steps, **robots, score=auto,
                   filt=(spec.beta, spec.gamma) if auto else None, hook=hook, start=start)[0]


def _flips(modes: np.ndarray) -> np.ndarray:
    """True where a tick flipped the mode (ticks first), from vision mode on."""
    return np.diff(modes, axis=0, prepend=1) != 0


def _selector_records(ep: EpisodeResult, beta: float, robot: int) -> list[dict]:
    """One robot's selector records, one per tick with a valid pair."""
    flips = _flips(ep.modes[:, robot])
    return [trace_record(ep.tick_steps[k], ep.losses[k, robot], beta, ep.p[k, robot], flips[k])
            for k in np.flatnonzero(np.isfinite(ep.losses[:, robot]))]


# ---------------------------------------------------------------------------

def run_noise_robustness(spec: ExperimentSpec, out_dir: str | Path,
                         conditions=DEFAULT_CONDITIONS) -> dict:
    """Two arms (selector on, vision pinned) per noise condition; emits
    per-step mean-velocity tables, selector traces, and a summary."""
    pre_from, post = 50, slice(200, 400)      # the summary's sim-step windows
    # the post window must start at or after the onset, or it averages clean steps
    for name, least, most in (("steps", post.stop, None),
                              ("noise_onset", pre_from + 1, post.start)):
        value = getattr(spec, name)
        if value < least or (most is not None and value > most):
            bound = f"at least {least}" if most is None else f"in [{least}, {most}]"
            raise ContractError(f"{name} {value} does not fit the summary's windows, steps "
                                f"[{pre_from}, noise_onset) and [{post.start}, {post.stop}): "
                                f"{name} must be {bound}")
    # each condition's spec and file name are built, and so checked, before the
    # checkpoint loads, and the checkpoint before the output directory is made; two
    # conditions under one name would overwrite each other
    cnames = [f"{kind}_{int(level)}" for kind, level in conditions]
    for i, cname in enumerate(cnames):
        if cname in cnames[:i]:
            (k0, l0), (k1, l1) = conditions[cnames.index(cname)], conditions[i]
            raise ContractError(f"noise conditions {k0}:{l0:g} and {k1}:{l1:g} share the "
                                f"name {cname!r}, so their files would overwrite each other")
    # an occlusion ignores its level, so occlusion:0 is a noisy condition
    cspecs = [dataclasses.replace(
        spec, noise_events=[NoiseEvent(kind, level, spec.noise_onset)]
        if kind == "occlusion" or level > 0 else [])
        for kind, level in conditions]
    cfg, nets, _ = load_bundle(spec.checkpoint)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # both arms of every condition step the same bits up to the onset
    start = clean_prefix(cfg, nets, spec, spec.noise_onset)
    cspecs = [dataclasses.replace(cspec, start=start) for cspec in cspecs]
    summary = {"schema": "noise-robustness-summary/v1", "name": spec.name,
               "command": spec.command, "onset": spec.noise_onset,
               "robots": spec.robots, "seed": spec.seed, "conditions": []}
    for (kind, level), cname, cspec in zip(conditions, cnames, cspecs):
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
            for i in range(spec.robots):
                for rec in _selector_records(auto, spec.beta, i):
                    f.write(json.dumps(dict(rec, robot=i, condition=cname)) + "\n")
        delays, op_fracs = switch_delays(auto.modes, auto.tick_steps, spec.noise_onset)
        pre = slice(pre_from, spec.noise_onset)
        op_frac = float(np.min(op_fracs)) if cspec.noise_events else 0.0
        cond = {
            "condition": cname, "kind": kind, "level": level,
            "pre_mean_auto": float(mean_auto[pre].mean()),
            "post_mean_auto": float(mean_auto[post].mean()),
            "post_mean_vp_only": float(mean_vp[post].mean()),
            "tracking_err_auto": float(np.abs(mean_auto[post] - spec.command).mean()),
            "tracking_err_vp_only": float(np.abs(mean_vp[post] - spec.command).mean()),
            "switch_delay_ticks": delays.tolist(),
            "max_switch_delay_ticks": max_switch_delay(delays.tolist()),
            "min_op_mode_fraction_post_switch": op_frac,
        }
        summary["conditions"].append(cond)
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def switch_delays(modes: np.ndarray, tick_steps: list[int], onset: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per robot, from the (ticks, robots) ``modes`` log: the noisy ticks up to
    and including its first proprio-mode tick at or after sim step ``onset``
    (-1 if it never switched), and its proprio-mode share of the ticks from
    that switch on (0 if none)."""
    op = modes[int(np.searchsorted(tick_steps, onset)):] == 0
    before = np.logical_and.accumulate(~op, axis=0).sum(axis=0)     # ticks before the flip
    switched = before < op.shape[0]
    share = op.sum(axis=0) / np.maximum(op.shape[0] - before, 1)
    return np.where(switched, before + 1, -1), np.where(switched, share, 0.0)


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


def run_gamma_sweep(spec: ExperimentSpec, gammas, out_dir: str | Path) -> dict:
    """Delay and switch-count sweep over filter coefficients on a scripted
    noisy timeline with known onsets; gamma = 1 is the no-filter baseline."""
    # two long bursts plus single-tick flickers inside clean segments;
    # everything before the first onset stays clean so P sits saturated
    onsets, flickers = [200, 400], [350, 550]
    if spec.steps <= max(flickers):
        raise ContractError(f"steps {spec.steps} is too short for the sweep's noise "
                            f"timeline: steps must be at least {max(flickers) + 1}")
    cfg, nets, _ = load_bundle(spec.checkpoint)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timeline = [NoiseEvent("salt_pepper", 70.0, on, on + 100) for on in onsets] + [
        NoiseEvent("salt_pepper", 70.0, on, on + TICK_PERIOD) for on in flickers]
    # every gamma steps the same bits up to the first onset
    start = clean_prefix(cfg, nets, spec, min(ev.onset for ev in timeline))
    rows = []
    result = {"schema": "gamma-sweep/v1", "name": spec.name, "onsets": onsets,
              "seed": spec.seed, "rows": rows}
    for gamma in gammas:
        gspec = dataclasses.replace(spec, gamma=float(gamma), noise_events=list(timeline),
                                    start=start)
        ep = run_episode(cfg, nets, gspec, "auto")
        delays = [switch_delays(ep.modes, ep.tick_steps, onset)[0].tolist()
                  for onset in onsets]
        flat = [d for group in delays for d in group if d >= 0]
        flips = _flips(ep.modes)
        # the scalar reference filter replays each robot's score stream: its P
        # values and mode flips must agree with the deployed array step
        max_p_err, flips_match = 0.0, True
        for i in range(gspec.robots):
            state = make_selector(gspec.beta, gspec.gamma)
            for k in np.flatnonzero(np.isfinite(ep.losses[:, i])):
                state = filter_update(state, float(ep.losses[k, i]))
                max_p_err = max(max_p_err, abs(state.p - float(ep.p[k, i])))
                flips_match &= state.switched == flips[k, i]
        rows.append({
            "gamma": float(gamma),
            "first_onset_delays": delays[0],
            "predicted_delay_ticks": min_flip_ticks(float(gamma)),
            "mean_delay_ticks": float(np.mean(flat)) if flat else None,   # none switched
            "switch_count": int(flips.sum()),
            "recurrence_max_p_err": max_p_err,
            "recurrence_flips_match": bool(flips_match),
        })
    with open(out / "gamma_sweep.csv", "w") as f:
        f.write("# schema: gamma-sweep/v1\n")
        f.write("gamma,first_onset_delay,predicted_delay_ticks,mean_delay_ticks,"
                "switch_count,recurrence_max_p_err,recurrence_flips_match\n")
        for r in rows:
            first = max(r["first_onset_delays"])
            mean = float("nan") if r["mean_delay_ticks"] is None else r["mean_delay_ticks"]
            f.write(f"{r['gamma']!r},{first},{r['predicted_delay_ticks']},"
                    f"{mean!r},{r['switch_count']},"
                    f"{r['recurrence_max_p_err']!r},{r['recurrence_flips_match']}\n")
    (out / "gamma_sweep.json").write_text(json.dumps(result, indent=2, allow_nan=False))
    return result


def run_trace(spec: ExperimentSpec, out_dir: str | Path) -> dict:
    """Single-robot switching trace: per-tick selector records plus per-step
    body state, one JSON line each."""
    cfg, nets, _ = load_bundle(spec.checkpoint)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ep = run_episode(cfg, nets, spec, "auto")
    records = _selector_records(ep, spec.beta, 0)
    path = out / "trace.jsonl"
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(dict(rec, kind="tick")) + "\n")
        for t in range(spec.steps):
            f.write(json.dumps({
                "schema": "robot-trace/v1", "kind": "step", "step": t,
                "x": float(ep.xz[t, 0, 0]), "z": float(ep.xz[t, 0, 1]),
                "vx": float(ep.vx[t, 0]), "reward": float(ep.rewards[t, 0])}) + "\n")
    summary = {"schema": "trace-summary/v1", "steps": spec.steps,
               "tick_lines": len(records), "mode_flips": sum(r["switched"] for r in records),
               "final_mode": records[-1]["mode"] if records else MODE_VP,
               "out": str(path)}
    (out / "trace_summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def calibrate_beta_run(checkpoint: str | Path, episodes: int, seed: int,
                       steps: int = 300) -> dict:
    """Clean evaluation episodes on the checkpoint's training terrains; the
    threshold is the maximum anomaly loss over ticks of episodes that finish
    without falling."""
    for name, value in (("episodes", episodes), ("steps", steps)):
        if value < 1:
            raise ContractError(f"{name} must be at least 1, got {value}")
    if seed < 0:
        raise ContractError(f"seed must be at least 0, got {seed}")
    cfg, nets, _ = load_bundle(checkpoint)
    mix = list(cfg.terrain_mix)
    children = np.random.SeedSequence([seed, 917]).spawn(episodes + 1)
    pick_rng = np.random.default_rng(children[-1])
    env_rngs = [np.random.default_rng(c) for c in children[:episodes]]
    kinds = [mix[i % len(mix)] for i in range(episodes)]
    levels = [int(pick_rng.integers(0, 6)) for _ in range(episodes)]
    commands = [sample_command(pick_rng, 2) for _ in range(episodes)]
    ep, runner = _deploy(cfg, nets, steps, kinds, levels, commands, env_rngs, score=True,
                         filt=None, hook=None)
    w = runner.world
    # successful = never fell and actually performed the commanded task
    # (a zero command has no commanded distance)
    failed = ep.terminated.any(axis=0)
    moving = w.commanded_distance > 0
    failed[moving] |= w.along[moving] / w.commanded_distance[moving] < 0.5
    keep = np.isfinite(ep.losses) & ~failed
    clean = ep.losses.T[keep.T].tolist()      # robot by robot, ticks in order
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
        key, _, raw = line.partition("=")
        if key.strip() == "beta":
            raw = raw.strip()
            try:
                return float(raw)
            except ValueError:
                raise ConfigError(f"{path}: beta value {raw!r} is not a number") from None
    raise ConfigError(f"{path}: no beta entry")
