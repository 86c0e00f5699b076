"""Supervised updates: estimator BPTT over tick sequences with
target-encoder training (`supervised_update`), and autoencoder
reconstruction on clean depth pairs (`autoencoder_update`). The two share no
parameter, optimizer or generator and only read the ticks, so the trainer
runs them concurrently.

The estimator BPTT replays the forward tapes each tick recorded during
collection (truncated backprop at rollout boundaries); nothing is run
forward again, so the ticks must come from a rollout collected with the
current estimator weights; a tape recorded under weights that have stepped
since raises ContractError. The hidden-state gradient is cut wherever an
episode reset occurred. The vision-estimator loss only sees records whose
env trained in vision mode (mask 0); the proprio loss sees all valid
records. The autoencoder never trains on deployment-noised or warmup
frames, and weights each pair by its own reconstruction loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimators import (EstimatorOutput, HimTargetEncoder, OpEstimator, VpEstimator,
                          loss_op, loss_vp)
from ..nn import Adam, LayerStack
from .runner import TickData

# Adam learning rates of the three estimators and of the autoencoder
EST_LR = 1e-3
AE_LR = 2e-3
# autoencoder steps per iteration, and the most clean pairs in one step
AE_EPOCHS = 4
AE_BATCH = 256


@dataclass
class SupervisedStats:
    loss_op: float
    loss_vp: float
    n_vp_rows: int
    rejected_updates: int


@dataclass
class AutoencoderStats:
    loss_ad: float
    n_ae_pairs: int
    rejected_updates: int


def _bptt(net, outs, tapes, sels, loss, ticks: list[TickData], him: HimTargetEncoder,
          him_out, him_tapes) -> tuple[float, int]:
    """One estimator's BPTT over the tick sequence: ``loss(rows, tick, sel,
    z_hat)`` on each tick's selected rows, its grads scattered back into the
    full batch with weight 1/ticks, then the stored tapes walked in reverse.
    Returns the loss sum and the number of ticks with selected rows."""
    w = 1.0 / len(ticks)
    loss_sum, n_ticks, tick_grads = 0.0, 0, []
    for tk, out, z_hat, sel in zip(ticks, outs, him_out, sels):
        grads = {}
        if sel.any():
            rows = EstimatorOutput(**{k: None if v is None else v[sel]
                                      for k, v in vars(out).items()})
            val, g = loss(rows, tk, sel, z_hat[sel])
            loss_sum += val
            n_ticks += 1
            for name, g_rows in g.items():
                grads[name] = np.zeros((sel.size,) + g_rows.shape[1:])
                grads[name][sel] = w * g_rows
        tick_grads.append(grads)
    g_hidden = None
    for t in reversed(range(len(ticks))):
        grads = tick_grads[t]
        if "z_hat" in grads:
            him.backward(him_tapes[t], grads.pop("z_hat"))
        g_hidden = net.backward(tapes[t], grads, hidden_grad=g_hidden)
        g_hidden = g_hidden * (~ticks[t].resets_before)[:, None]
    return loss_sum, n_ticks


def supervised_update(op: OpEstimator, vp: VpEstimator, him: HimTargetEncoder,
                      op_opt: Adam, vp_opt: Adam, him_opt: Adam,
                      ticks: list[TickData]) -> SupervisedStats:
    if not ticks:
        return SupervisedStats(float("nan"), float("nan"), 0, 0)
    for net in (op, vp, him):
        for p in net.params():
            p.zero_grad()

    him_out, him_tapes = [], []
    for tk in ticks:
        z_hat, tape = him.forward(tk.next_obs, tk.v_true)
        him_out.append(z_hat)
        him_tapes.append(tape)

    op_loss_sum, op_ticks = _bptt(
        op, [tk.op_out for tk in ticks], [tk.op_rec for tk in ticks],
        [tk.loss_valid for tk in ticks],
        lambda out, tk, sel, z: loss_op(out, tk.v_true[sel], z),
        ticks, him, him_out, him_tapes)

    # the vision estimator only learns from vision-mode records
    vp_sel = [tk.loss_valid & (tk.masks == 0) for tk in ticks]
    n_vp_rows = int(sum(s.sum() for s in vp_sel))
    vp_loss_sum, vp_ticks = 0.0, 0
    if n_vp_rows:
        vp_loss_sum, vp_ticks = _bptt(
            vp, [tk.vp_out for tk in ticks], [tk.vp_rec for tk in ticks], vp_sel,
            lambda out, tk, sel, z: loss_vp(out, tk.v_true[sel], z, tk.h_f[sel],
                                            tk.m_t[sel]),
            ticks, him, him_out, him_tapes)

    # target-encoder step last: it accumulates from both estimator losses
    rejected = op_opt.step()
    if n_vp_rows:
        rejected += vp_opt.step()
    rejected += him_opt.step()
    return SupervisedStats(
        op_loss_sum / op_ticks if op_ticks else float("nan"),
        vp_loss_sum / vp_ticks if vp_ticks else float("nan"),
        n_vp_rows, rejected)


def autoencoder_update(ae: LayerStack, ae_opt: Adam, ticks: list[TickData],
                       ae_rng: np.random.Generator) -> AutoencoderStats:
    """``AE_EPOCHS`` steps of the anomaly autoencoder, each on at most
    ``AE_BATCH`` clean randomize-stage pairs drawn from the ticks."""
    clean = [tk.depth_pairs[tk.clean_stage] for tk in ticks if tk.clean_stage.any()]
    if not clean:
        return AutoencoderStats(float("nan"), 0, 0)
    pool = np.concatenate(clean, axis=0)
    ad_loss, rejected = float("nan"), 0
    for epoch in range(AE_EPOCHS):
        if pool.shape[0] > AE_BATCH:
            idx = ae_rng.choice(pool.shape[0], size=AE_BATCH, replace=False)
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
        ae.backward(tape, (2.0 / diff.size) * weight * diff, need_input_grad=False)
        rejected += ae_opt.step()
    return AutoencoderStats(ad_loss, min(pool.shape[0], AE_BATCH), rejected)
