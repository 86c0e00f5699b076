"""Supervised updates: estimator BPTT over tick sequences, target-encoder
training, and autoencoder reconstruction on clean depth pairs.

The estimator BPTT replays the forward tapes each tick recorded during
collection (truncated backprop at rollout boundaries); nothing is run
forward again, so the ticks must come from a rollout collected with the
current estimator weights. The hidden-state gradient is cut wherever an
episode reset occurred. The vision-estimator loss only sees records whose
env trained in vision mode (mask 0); the proprio loss sees all valid
records. The autoencoder never trains on deployment-noised or warmup
frames, and weights each pair by its own reconstruction loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PPOConfig
from ..estimators import HimTargetEncoder, OpEstimator, VpEstimator, loss_op, loss_vp
from ..nn import Adam, LayerStack
from .runner import TickData


@dataclass
class SupervisedStats:
    loss_op: float
    loss_vp: float
    loss_ad: float
    n_vp_rows: int
    n_ae_pairs: int
    rejected_updates: int


def _scatter(g_sub: np.ndarray, sel: np.ndarray, full_shape) -> np.ndarray:
    out = np.zeros(full_shape)
    out[sel] = g_sub
    return out


def _subset_output(out, sel):
    from ..estimators.networks import EstimatorOutput
    return EstimatorOutput(out.h[sel], out.v_hat[sel], out.z_o[sel],
                           None if out.h_f_hat is None else out.h_f_hat[sel],
                           None if out.m_t_hat is None else out.m_t_hat[sel],
                           out.gru_hidden[sel])


def supervised_update(op: OpEstimator, vp: VpEstimator, him: HimTargetEncoder,
                      ae: LayerStack | None, op_opt: Adam, vp_opt: Adam,
                      him_opt: Adam, ae_opt: Adam | None, ticks: list[TickData],
                      cfg: PPOConfig, ae_rng: np.random.Generator) -> SupervisedStats:
    if not ticks:
        return SupervisedStats(float("nan"), float("nan"), float("nan"), 0, 0, 0)
    for net in (op, vp, him):
        for p in net.params():
            p.zero_grad()

    t_count = len(ticks)
    w = 1.0 / t_count

    him_out, him_tapes = [], []
    for tk in ticks:
        z_hat, tape = him.forward(tk.next_obs, tk.v_true)
        him_out.append(z_hat)
        him_tapes.append(tape)

    # ---- proprioception estimator over the tick sequence -------------------
    op_loss_sum, op_ticks = 0.0, 0
    op_grads: list[dict | None] = []
    for tk, z_hat in zip(ticks, him_out):
        sel = tk.loss_valid
        if not sel.any():
            op_grads.append(None)
            continue
        out = tk.op_out
        val, g = loss_op(_subset_output(out, sel), tk.v_true[sel], z_hat[sel])
        op_loss_sum += val
        op_ticks += 1
        op_grads.append({
            "head_v": _scatter(w * g["head_v"], sel, out.v_hat.shape),
            "head_z": _scatter(w * g["head_z"], sel, out.z_o.shape),
            "z_hat": _scatter(w * g["z_hat"], sel, z_hat.shape),
        })

    g_hidden = None
    for t in reversed(range(t_count)):
        grads = op_grads[t] or {}
        if "z_hat" in grads:
            him.backward(him_tapes[t], grads["z_hat"])
        g_hidden = op.backward(ticks[t].op_rec, grads, hidden_grad=g_hidden)
        g_hidden = g_hidden * (~ticks[t].resets_before)[:, None]

    # ---- vision estimator, gated to vision-mode records ---------------------
    vp_sel = [tk.loss_valid & (tk.masks == 0) for tk in ticks]
    n_vp_rows = int(sum(s.sum() for s in vp_sel))
    vp_loss_sum, vp_ticks = 0.0, 0
    if n_vp_rows:
        vp_grads: list[dict | None] = []
        for tk, z_hat, sel in zip(ticks, him_out, vp_sel):
            if not sel.any():
                vp_grads.append(None)
                continue
            out = tk.vp_out
            val, g = loss_vp(_subset_output(out, sel), tk.v_true[sel], z_hat[sel],
                             tk.h_f[sel], tk.m_t[sel])
            vp_loss_sum += val
            vp_ticks += 1
            vp_grads.append({
                "head_v": _scatter(w * g["head_v"], sel, out.v_hat.shape),
                "head_z": _scatter(w * g["head_z"], sel, out.z_o.shape),
                "head_hf": _scatter(w * g["head_hf"], sel, out.h_f_hat.shape),
                "head_mt": _scatter(w * g["head_mt"], sel, out.m_t_hat.shape),
                "z_hat": _scatter(w * g["z_hat"], sel, z_hat.shape),
            })
        g_hidden = None
        for t in reversed(range(t_count)):
            grads = vp_grads[t] or {}
            if "z_hat" in grads:
                him.backward(him_tapes[t], grads.pop("z_hat"))
            g_hidden = vp.backward(ticks[t].vp_rec, grads, hidden_grad=g_hidden)
            g_hidden = g_hidden * (~ticks[t].resets_before)[:, None]

    # target-encoder step last: it accumulates from both estimator losses
    rejected = op_opt.step()
    if n_vp_rows:
        rejected += vp_opt.step()
    rejected += him_opt.step()

    # ---- anomaly autoencoder on clean randomize-stage pairs ------------------
    ad_loss = float("nan")
    n_pairs = 0
    if ae is not None and ae_opt is not None:
        clean = [tk.depth_pairs[tk.clean_stage] for tk in ticks if tk.clean_stage.any()]
        if clean:
            pool = np.concatenate(clean, axis=0)
            n_pairs = min(pool.shape[0], cfg.ae_batch)
            for epoch in range(max(1, cfg.ae_epochs)):
                if pool.shape[0] > cfg.ae_batch:
                    idx = ae_rng.choice(pool.shape[0], size=cfg.ae_batch, replace=False)
                    pairs = pool[idx]
                else:
                    pairs = pool
                ae.zero_grads()
                recon, _, tape = ae.forward(pairs)
                diff = recon - pairs
                per = np.mean(diff * diff, axis=(1, 2, 3))
                if epoch == 0:
                    ad_loss = float(per.mean())
                # beta is the largest clean score, so each pair's gradient is
                # weighted by its own loss: this descends the mean squared
                # per-pair loss and presses the tail down, not just the mean
                weight = (per / per.mean())[:, None, None, None]
                ae.backward(tape, (2.0 / diff.size) * weight * diff)
                rejected += ae_opt.step()

    return SupervisedStats(
        op_loss_sum / op_ticks if op_ticks else float("nan"),
        vp_loss_sum / vp_ticks if vp_ticks else float("nan"),
        ad_loss, n_vp_rows, n_pairs, rejected)
