"""Span tracing of the redloco modules from outside the program.

`Instrumentation` wraps the public functions and methods of each module
(`world`, `sensor`, `estimators`, `selector`, `nn`, `training`, `harness`)
with span recorders, and restores the originals on `uninstall`. A wrapped
function is replaced in every loaded ``redloco`` module that binds it, so
names imported with ``from ... import`` are covered too.

`Tracer` keeps the open spans on a stack and aggregates, per span name, the
call count, self time (duration minus the time covered by child spans) and
inclusive time (outermost occurrence only). It also keeps counters, the
computed conv/deconv work per call shape, and the first spans in full
(name, start, end, parent) for a dump.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

NN_GROUPS = {
    "conv2d": "conv2d", "deconv2d": "deconv2d", "gru_cell": "gru_cell",
    "linear": "linear", "elu": "activation", "tanh": "activation",
    "sigmoid": "activation", "flatten": "other", "reshape": "other",
    "attention_1h": "other",
}
SPAN_DUMP_CAP = 20000


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.shapes: dict[tuple, list] = {}
        self.covered_s = 0.0
        self.spans: list[tuple] = []
        self._stack: list[list] = []      # [name, start, child_s, span_id]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        self._active[name] -= 1
        if self._active[name] == 0:
            self.incl_s[name] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            self.covered_s += dur
            parent_id = 0
        if len(self.spans) < SPAN_DUMP_CAP:
            self.spans.append((span_id, parent_id, name, start, end))

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def write_spans(self, path: Path) -> None:
        """Dump the first recorded spans, one CSV row each (times in us)."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write("id,parent,name,start_us,end_us\n")
            for span_id, parent_id, name, start, end in sorted(self.spans, key=lambda s: s[3]):
                f.write(f"{span_id},{parent_id},{name},{(start - t0) * 1e6:.1f},"
                        f"{(end - t0) * 1e6:.1f}\n")


# ---------------------------------------------------------------------------
# computed work of conv/deconv calls; counts from shapes, not measurements

def _conv_work(kind: str, b: int, ci: int, hi: int, wi: int, co: int, ho: int,
               wo: int, k: int, itemsize: int, direction: str) -> tuple[int, int]:
    """(flops, bytes) of one call. Forward: 2*MACs. Backward: input grad plus
    weight grad, twice the forward. Bytes: each tensor read or written once."""
    if kind == "conv2d":
        macs = b * co * ho * wo * ci * k * k
    else:
        macs = b * ci * hi * wi * co * k * k
    x = b * ci * hi * wi
    y = b * co * ho * wo
    w = ci * co * k * k
    if direction == "fwd":
        return 2 * macs, itemsize * (x + w + y)
    return 4 * macs, itemsize * (y + x + w + x + w)


def _record_conv(tracer: Tracer, layer, direction: str, x_shape, y_shape, itemsize) -> None:
    b, ci, hi, wi = x_shape
    _, co, ho, wo = y_shape
    flops, nbytes = _conv_work(layer.kind, b, ci, hi, wi, co, ho, wo, layer.kernel,
                               itemsize, direction)
    tracer.count(f"nn.{layer.kind}.flops", flops)
    tracer.count(f"nn.{layer.kind}.bytes", nbytes)
    key = (layer.kind, direction, b, ci, hi, wi, co, ho, wo, layer.kernel, layer.stride)
    entry = tracer.shapes.setdefault(key, [0, flops, nbytes])
    entry[0] += 1


# ---------------------------------------------------------------------------

class Instrumentation:
    """Installs span wrappers around the program's public functions."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: list[tuple] = []

    # -- patching helpers ------------------------------------------------------
    def _wrap(self, fn, name, after=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            tracer.enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def function(self, fn, name, after=None) -> None:
        """Replace ``fn`` wherever a loaded redloco module binds it."""
        wrapper = self._wrap(fn, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("redloco") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def method(self, cls, attr: str, name, after=None) -> None:
        fn = cls.__dict__[attr]
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, name, after))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the span map ------------------------------------------------------------
    def install(self) -> None:
        # by module path: some package attributes shadow their submodules
        (buffers, fusion, losses, networks, protocols, checkpoint, layers, optim,
         stack, autoencoder, switching, noise, render, policy, ppo, rollout, runner,
         supervised, trainer, rewards, robot) = (importlib.import_module(f"redloco.{m}") for m in (
            "estimators.buffers", "estimators.fusion", "estimators.losses",
            "estimators.networks", "harness.protocols", "nn.checkpoint", "nn.layers",
            "nn.optim", "nn.stack", "selector.autoencoder", "selector.switching",
            "sensor.noise", "sensor.render", "training.policy", "training.ppo",
            "training.rollout", "training.runner", "training.supervised",
            "training.trainer", "world.rewards", "world.robot"))

        t = self.tracer

        # world
        for attr, name in (("step", "world.step"), ("snapshot", "world.snapshot"),
                           ("privileged", "world.privileged"),
                           ("observation", "world.observation"),
                           ("reset_episode", "world.reset")):
            self.method(robot.PlanarWorld, attr, name)
        self.function(rewards.compute_reward, "world.reward")

        # sensor
        def rays(args, _result):
            worlds, cam = args[0], args[1]
            t.count("sensor.render.rays", len(worlds) * cam.height * cam.width)
        self.function(render.render_batch, "sensor.render", rays)
        self.function(render.edge_truncate_resize, "sensor.resize")
        for fn in (noise.inject_gaussian, noise.inject_salt_pepper, noise.inject_occlusion):
            self.function(fn, "sensor.noise")

        # estimators
        self.method(networks.OpEstimator, "forward", "estimators.op.fwd")
        self.method(networks.OpEstimator, "backward", "estimators.op.bwd")
        self.method(networks.VpEstimator, "forward", "estimators.vp.fwd")
        self.method(networks.VpEstimator, "backward", "estimators.vp.bwd")
        self.method(networks.HimTargetEncoder, "forward", "estimators.him")
        self.method(networks.HimTargetEncoder, "backward", "estimators.him")
        for cls in (buffers.ProprioBuffer, buffers.DepthBuffer):
            for attr in ("push", "reset"):
                self.method(cls, attr, "estimators.buffers")
        self.method(buffers.ProprioBuffer, "flat", "estimators.buffers")
        self.method(buffers.DepthBuffer, "newest_pair", "estimators.buffers")
        self.function(fusion.fuse_batch, "estimators.fuse")
        self.function(losses.loss_op, "estimators.losses")
        self.function(losses.loss_vp, "estimators.losses")

        # selector: the anomaly autoencoder is the stack ending in a deconv
        def is_ae(s) -> bool:
            return s.descs[-1].kind == "deconv2d"

        def stack_fwd_name(args):
            s = args[0]
            if not is_ae(s):
                return "nn.stack.fwd"
            t.count("selector.ae.pairs", args[1].shape[0])
            return "selector.ae.update" if t.inside("training.supervised") \
                else "selector.ae.score"

        def stack_bwd_name(args):
            return "selector.ae.update" if is_ae(args[0]) else "nn.stack.bwd"

        self.method(stack.LayerStack, "forward", stack_fwd_name)
        self.method(stack.LayerStack, "backward", stack_bwd_name)
        self.function(autoencoder.loss_ad_batch, "selector.ae.score")

        def switched(_args, state):
            t.count("selector.filter.calls")
            t.count("selector.switches", int(state.switched))
        self.function(switching.filter_update, "selector.filter", switched)
        self.function(switching.trace_record, "selector.filter")
        self.function(switching.make_selector, "selector.filter")

        # nn: kernels through the layer dispatch, optimizer, checkpoints
        def fwd_after(args, result):
            layer = args[0]
            if layer.kind in ("conv2d", "deconv2d"):
                x, y = args[2], result[0]
                _record_conv(t, layer, "fwd", x.shape, y.shape, x.itemsize)

        def bwd_after(args, _result):
            layer, rec, gy = args[0], args[2], args[3]
            if layer.kind == "conv2d":
                x_shape = rec[1]
            elif layer.kind == "deconv2d":
                b, h, w, c = rec[0].shape
                x_shape = (b, c, h, w)
            else:
                return
            _record_conv(t, layer, "bwd", x_shape, gy.shape, gy.itemsize)

        self.function(layers.forward,
                      lambda a: f"nn.{NN_GROUPS.get(a[0].kind, 'other')}.fwd", fwd_after)
        self.function(layers.backward,
                      lambda a: f"nn.{NN_GROUPS.get(a[0].kind, 'other')}.bwd", bwd_after)

        def rejected(_args, bad):
            t.count("nn.adam.rejected", bad)
        self.method(optim.Adam, "step", "nn.adam", rejected)
        self.function(optim.clip_grad_norm, "nn.clip_grad")

        def saved(args, _result):
            t.count("nn.checkpoint.bytes", Path(args[0]).stat().st_size)
        self.function(checkpoint.save_checkpoint, "nn.checkpoint.save", saved)
        self.function(checkpoint.load_checkpoint, "nn.checkpoint.load", saved)

        # training
        self.method(trainer.Trainer, "collect", "training.collect")
        self.function(ppo.ppo_update, "training.ppo")
        self.function(supervised.supervised_update, "training.supervised")
        self.method(rollout.RolloutBuffer, "compute_advantages", "training.gae")
        for attr in ("add_step", "add_tick", "flat"):
            self.method(rollout.RolloutBuffer, attr, "training.rollout")
        for attr in ("mean", "act", "evaluate", "backward_logp", "entropy",
                     "entropy_grad_logstd"):
            self.method(policy.GaussianPolicy, attr, "training.policy")
        for attr in ("value", "evaluate", "backward_value"):
            self.method(policy.Critic, attr, "training.critic")
        self.method(runner.VecRunner, "tick_estimators", "training.runner.tick")
        self.method(runner.VecRunner, "step", "training.runner.step")
        for attr in ("policy_obs", "critic_obs", "set_latents"):
            self.method(runner.VecRunner, attr, "training.runner.obs")

        # harness
        self.function(protocols.run_episode, "harness.episode")
        self.function(protocols.calibrate_beta_run, "harness.calibrate")
        self.function(protocols.run_noise_robustness, "harness.noise")
        self.function(protocols.run_gamma_sweep, "harness.gamma")
        self.function(protocols.load_bundle, "harness.load_bundle")


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

MODULES = ("world", "sensor", "estimators", "selector", "nn", "training", "harness")

# metric -> span names whose self time it sums, in ms per operation
SELF_MS = {
    "world.step.ms": ("world.step",),
    "world.reward.ms": ("world.reward",),
    "world.snapshot.ms": ("world.snapshot",),
    "world.privileged.ms": ("world.privileged",),
    "world.observation.ms": ("world.observation",),
    "world.reset.ms": ("world.reset",),
    "sensor.render.ms": ("sensor.render",),
    "sensor.resize.ms": ("sensor.resize",),
    "sensor.noise.ms": ("sensor.noise",),
    "estimators.op.fwd_ms": ("estimators.op.fwd",),
    "estimators.op.bwd_ms": ("estimators.op.bwd",),
    "estimators.vp.fwd_ms": ("estimators.vp.fwd",),
    "estimators.vp.bwd_ms": ("estimators.vp.bwd",),
    "estimators.him.ms": ("estimators.him",),
    "estimators.buffers.ms": ("estimators.buffers",),
    "estimators.fuse.ms": ("estimators.fuse",),
    "estimators.losses.ms": ("estimators.losses",),
    "selector.ae.score_ms": ("selector.ae.score",),
    "selector.ae.update_ms": ("selector.ae.update",),
    "selector.filter.ms": ("selector.filter",),
    **{f"nn.{g}.{d}_ms": (f"nn.{g}.{d}",)
       for g in ("conv2d", "deconv2d", "gru_cell", "linear", "activation")
       for d in ("fwd", "bwd")},
    "nn.stack.ms": ("nn.stack.fwd", "nn.stack.bwd", "nn.other.fwd", "nn.other.bwd"),
    "nn.adam.ms": ("nn.adam", "nn.clip_grad"),
    "nn.checkpoint.save_ms": ("nn.checkpoint.save",),
    "nn.checkpoint.load_ms": ("nn.checkpoint.load",),
    "training.collect.ms": ("training.collect",),
    "training.ppo.ms": ("training.ppo",),
    "training.supervised.ms": ("training.supervised",),
    "training.gae.ms": ("training.gae",),
    "training.policy.ms": ("training.policy",),
    "training.critic.ms": ("training.critic",),
    "training.runner.ms": ("training.runner.tick", "training.runner.step",
                           "training.runner.obs", "training.rollout"),
    "harness.episode.self_ms": ("harness.episode",),
    "harness.calibrate.ms": ("harness.calibrate",),
    "harness.load_bundle.ms": ("harness.load_bundle",),
    "harness.protocols.ms": ("harness.noise", "harness.gamma"),
}
# metric -> counter, per operation
COUNTS = {
    "world.reset.calls": "calls:world.reset",
    "sensor.render.rays": "sensor.render.rays",
    "selector.ae.pairs": "selector.ae.pairs",
    "selector.filter.calls": "selector.filter.calls",
    "selector.switches": "selector.switches",
    "nn.conv2d.flops": "nn.conv2d.flops",
    "nn.conv2d.bytes": "nn.conv2d.bytes",
    "nn.deconv2d.flops": "nn.deconv2d.flops",
    "nn.deconv2d.bytes": "nn.deconv2d.bytes",
    "nn.adam.rejected": "nn.adam.rejected",
    "nn.checkpoint.bytes": "nn.checkpoint.bytes",
    "training.rejected_updates": "training.rejected_updates",
    "training.aborts": "training.aborts",
}
# metric -> span whose inclusive time it gives as a share of traced wall time
INCL_SHARE = {
    "training.collect.share": "training.collect",
    "training.ppo.share": "training.ppo",
    "training.supervised.share": "training.supervised",
}
UNITS = {"flops": "flop", "bytes": "B", "calls": "count", "rays": "count",
         "pairs": "count", "switches": "count", "rejected": "count",
         "rejected_updates": "count", "aborts": "count"}


def layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit."""
    units = {name: "ms" for name in SELF_MS}
    units.update({name: UNITS[name.rsplit(".", 1)[1]] for name in COUNTS})
    units.update({name: "ratio" for name in INCL_SHARE})
    units.update({f"share.{m}": "ratio" for m in MODULES})
    units["estimators.vp.fwd_per_tick"] = "ratio"
    units.update({"trace.op_ms": "ms", "trace.overhead": "ms",
                  "trace.uncovered_share": "ratio"})
    return units


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float,
                  plain_unit_ms: list[float], traced_unit_ms: list[float]) -> dict[str, float]:
    """Per-layer values of a traced run: self times and counts per operation
    (training iteration or protocol set), shares of the traced wall time."""
    ops = max(n_ops, 1)
    traced_s = traced_s or float("inf")   # no traced unit finished: the run failed
    out: dict[str, float] = {}
    for name, spans in SELF_MS.items():
        out[name] = 1e3 * sum(tracer.self_s.get(s, 0.0) for s in spans) / ops
    for name, key in COUNTS.items():
        raw = tracer.calls.get(key[6:], 0) if key.startswith("calls:") \
            else tracer.counts.get(key, 0.0)
        out[name] = raw / ops
    for name, span in INCL_SHARE.items():
        out[name] = tracer.incl_s.get(span, 0.0) / traced_s
    for m in MODULES:
        out[f"share.{m}"] = sum(v for k, v in tracer.self_s.items()
                                if k.split(".", 1)[0] == m) / traced_s
    ticks = tracer.calls.get("training.runner.tick", 0)
    out["estimators.vp.fwd_per_tick"] = (tracer.calls.get("estimators.vp.fwd", 0) / ticks
                                         if ticks else 0.0)
    traced = float(np.median(traced_unit_ms or [0.0]))
    out["trace.op_ms"] = traced
    out["trace.overhead"] = traced - float(np.median(plain_unit_ms or [0.0]))
    out["trace.uncovered_share"] = 1.0 - tracer.covered_s / traced_s
    return out


def span_table(tracer: Tracer, n_ops: int, traced_s: float) -> list[str]:
    """Human-readable per-span lines: calls, self and inclusive ms per
    operation, and their shares of the traced wall time."""
    ops = max(n_ops, 1)
    traced_s = traced_s or float("inf")
    lines = [f"{'span':<28}{'calls/op':>10}{'self ms/op':>12}{'self %':>8}"
             f"{'incl ms/op':>12}{'incl %':>8}"]
    for name in sorted(tracer.self_s, key=lambda k: -tracer.self_s[k]):
        lines.append(f"{name:<28}{tracer.calls[name] / ops:>10.1f}"
                     f"{1e3 * tracer.self_s[name] / ops:>12.2f}"
                     f"{100 * tracer.self_s[name] / traced_s:>8.2f}"
                     f"{1e3 * tracer.incl_s[name] / ops:>12.2f}"
                     f"{100 * tracer.incl_s[name] / traced_s:>8.2f}")
    return lines


def conv_table(tracer: Tracer, n_ops: int) -> list[str]:
    """Computed (not measured) work of each conv/deconv call shape."""
    ops = max(n_ops, 1)
    lines = [f"{'kind':<9}{'dir':<4}{'batch':>6} {'in (C,H,W)':<13}{'out (C,H,W)':<13}"
             f"{'calls/op':>9}{'Mflop/call':>12}{'MB/call':>9}   (computed)"]
    for key in sorted(tracer.shapes):
        kind, direction, b, ci, hi, wi, co, ho, wo, _k, _s = key
        calls, flops, nbytes = tracer.shapes[key]
        lines.append(f"{kind:<9}{direction:<4}{b:>6} {f'{ci},{hi},{wi}':<13}"
                     f"{f'{co},{ho},{wo}':<13}{calls / ops:>9.1f}{flops / 1e6:>12.2f}"
                     f"{nbytes / 1e6:>9.2f}")
    return lines
