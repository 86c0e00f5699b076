"""Command-line front end.

Subcommands: train, eval-noise, sweep-gamma, trace, render-depth,
calibrate-beta, gradcheck. Exit code 0 on success, 1 on a structured error,
2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .. import config as config_mod
from ..errors import CheckpointError, ConfigError, ContractError, RolloutAbort
from .protocols import (DEFAULT_CONDITIONS, ExperimentSpec, NoiseEvent,
                        calibrate_beta_run, read_beta_file, run_gamma_sweep,
                        run_noise_robustness, run_trace, switch_delay_text,
                        write_beta_file)
from .verify import run_full_suite


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="redloco",
                                description="Redundant-estimator locomotion toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    tr = sub.add_parser("train", help="run the joint training loop")
    tr.add_argument("--config", help="flat key-value config file")
    tr.add_argument("--preset", default="desk", choices=sorted(config_mod.PRESETS),
                    help="base preset the config file overrides")
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--iterations", type=int, default=None)
    tr.add_argument("--out", default=None, help="output directory")

    ev = sub.add_parser("eval-noise", help="noise-robustness protocol (two arms)")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--beta", type=float, default=None)
    ev.add_argument("--beta-file", default=None)
    ev.add_argument("--robots", type=int, default=20)
    ev.add_argument("--command", type=float, default=0.6)
    ev.add_argument("--onset", type=int, default=150)
    ev.add_argument("--steps", type=int, default=600)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--conditions", default=None,
                    help="comma list like gaussian:30,salt_pepper:70")
    ev.add_argument("--out", required=True)

    sw = sub.add_parser("sweep-gamma", help="filter-coefficient sweep")
    sw.add_argument("--checkpoint", required=True)
    sw.add_argument("--beta", type=float, default=None)
    sw.add_argument("--beta-file", default=None)
    sw.add_argument("--gammas", default="0.05,0.1,0.3,1.0")
    sw.add_argument("--robots", type=int, default=8)
    sw.add_argument("--steps", type=int, default=650)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", required=True)

    trc = sub.add_parser("trace", help="single-robot switching trace")
    trc.add_argument("--checkpoint", required=True)
    trc.add_argument("--beta", type=float, default=None)
    trc.add_argument("--beta-file", default=None)
    trc.add_argument("--steps", type=int, default=400)
    trc.add_argument("--seed", type=int, default=0)
    trc.add_argument("--noise", default="occlusion:0:150:300",
                     help="kind:level:onset[:offset]")
    trc.add_argument("--out", required=True)

    rd = sub.add_parser("render-depth", help="emit depth frames for inspection")
    rd.add_argument("--terrain", default="flat")
    rd.add_argument("--level", type=int, default=0)
    rd.add_argument("--seed", type=int, default=0)
    rd.add_argument("--frames", type=int, default=1)
    rd.add_argument("--randomize", action="store_true")
    rd.add_argument("--preset", default="desk", choices=sorted(config_mod.PRESETS))
    rd.add_argument("--out", required=True)

    cb = sub.add_parser("calibrate-beta", help="threshold from clean episodes")
    cb.add_argument("--checkpoint", required=True)
    cb.add_argument("--episodes", type=int, default=20)
    cb.add_argument("--steps", type=int, default=300)
    cb.add_argument("--seed", type=int, default=0)
    cb.add_argument("--out", required=True, help="beta file path")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gc.add_argument("--instances", type=int, default=20)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    return p


def _flag(flag: str, form: str, token: str, parse):
    """``parse(token)``, with a malformed token reported as a `ConfigError`
    that names the flag, the token and the form it should take."""
    try:
        return parse(token)
    except (ValueError, ContractError) as exc:
        raise ConfigError(f"{flag}: bad value {token!r}, want {form} ({exc})") from None


def _condition(tok: str) -> tuple[str, float]:
    kind, level = tok.strip().split(":")
    ev = NoiseEvent(kind, float(level), 0)
    return ev.kind, ev.level


def _noise_event(text: str) -> NoiseEvent:
    kind, level, onset, *rest = text.split(":")
    if len(rest) > 1:
        raise ValueError("too many fields")
    return NoiseEvent(kind, float(level), int(onset), int(rest[0]) if rest else None)


def _gamma(tok: str) -> float:
    g = float(tok)
    if not 0.0 < g <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    return g


def _resolve_beta(args) -> float:
    if args.beta is not None:
        return args.beta
    if args.beta_file:
        return read_beta_file(args.beta_file)
    raise ConfigError("provide --beta or --beta-file")


def cli(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) == "":
            # Path("") is the current directory, where a run would overwrite
            # whatever is there
            raise ConfigError("--out: expected a path, got an empty one")
        if args.cmd == "train":
            cfg = config_mod.PRESETS[args.preset]()
            if args.config:
                cfg = config_mod.load(args.config, base=cfg)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.iterations is not None:
                cfg.iterations = args.iterations
            from ..training import train
            res = train(cfg, args.out)
            print(f"checkpoint: {res.checkpoint}")
            print(f"metrics: {res.metrics}")
            print(f"final mean tracking: {res.final_mean_lin_vel:.4f}")
        elif args.cmd == "eval-noise":
            conditions = DEFAULT_CONDITIONS if not args.conditions else tuple(
                _flag("--conditions", "kind:level", tok, _condition)
                for tok in args.conditions.split(","))
            spec = ExperimentSpec("eval-noise", args.checkpoint, _resolve_beta(args),
                                  robots=args.robots, command=args.command,
                                  steps=args.steps, noise_onset=args.onset,
                                  seed=args.seed)
            summary = run_noise_robustness(spec, args.out, conditions)
            for c in summary["conditions"]:
                print(f"{c['condition']}: {switch_delay_text(c)}, "
                      f"err auto {c['tracking_err_auto']:.4f} "
                      f"vs vp-only {c['tracking_err_vp_only']:.4f}")
        elif args.cmd == "sweep-gamma":
            gammas = [_flag("--gammas", "a number in (0, 1]", tok, _gamma)
                      for tok in args.gammas.split(",")]
            spec = ExperimentSpec("sweep-gamma", args.checkpoint, _resolve_beta(args),
                                  robots=args.robots, steps=args.steps, seed=args.seed)
            res = run_gamma_sweep(spec, gammas, args.out)
            for r in res["rows"]:
                print(f"gamma {r['gamma']}: predicted delay {r['predicted_delay_ticks']}"
                      f" ticks, switches {r['switch_count']}")
        elif args.cmd == "trace":
            ev = _flag("--noise", "kind:level:onset[:offset]", args.noise, _noise_event)
            spec = ExperimentSpec("trace", args.checkpoint, _resolve_beta(args),
                                  robots=1, steps=args.steps, seed=args.seed,
                                  noise_events=[ev])
            summary = run_trace(spec, args.out)
            print(json.dumps(summary, indent=2))
        elif args.cmd == "render-depth":
            _render_depth_cmd(args)
        elif args.cmd == "calibrate-beta":
            result = calibrate_beta_run(args.checkpoint, args.episodes, args.seed,
                                        steps=args.steps)
            write_beta_file(result, args.out)
            print(f"beta = {result['beta']!r} "
                  f"({result['losses_count']} losses over "
                  f"{result['successful_episodes']} successful episodes) -> {args.out}")
        elif args.cmd == "gradcheck":
            if not args.tolerance > 0:      # NaN too: every row would FAIL
                raise ConfigError(f"--tolerance: bad value {args.tolerance!r}, "
                                  f"want a number above 0")
            results = run_full_suite(args.instances, args.seed)
            ok = True
            for name, err in results.items():
                status = "PASS" if err < args.tolerance else "FAIL"
                ok &= err < args.tolerance
                print(f"{name:14s} max rel err {err:.3e}  {status}")
            return 0 if ok else 1
    except (CheckpointError, ConfigError, ContractError, OSError, RolloutAbort) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


def _render_depth_cmd(args) -> None:
    from ..sensor import dump_text, render_batch
    from ..world import BatchWorld

    if args.seed < 0:
        raise ContractError(f"seed must be at least 0, got {args.seed}")
    cfg = config_mod.PRESETS[args.preset]()
    ss = np.random.SeedSequence(args.seed)
    env_rng, render_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    world = BatchWorld(cfg.world, [args.terrain], [env_rng], [args.level])
    if args.frames < 1:
        raise ContractError(f"frames must be at least 1, got {args.frames}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.frames):
        data, poses = render_batch(world, cfg.camera, [render_rng], args.randomize)
        path = out / f"frame_{k:03d}.txt"
        path.write_text(dump_text(data[0], poses[0], args.randomize))
        print(path)


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
