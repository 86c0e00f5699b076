"""Finite-difference verification of the supervised losses end to end.

The layer suite lives in ``redloco.nn.gradcheck``; this module checks the
full loss pipelines (estimator losses and the autoencoder reconstruction
loss) against central differences over every parameter, at small widths and
float64. The FD side only calls forwards.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..estimators import (HimTargetEncoder, NetConfig, OpEstimator, VpEstimator, loss_op,
                          loss_vp)
from ..nn.gradcheck import fd_grad, rel_err, run_layer_suite
from ..selector.autoencoder import PAIR_FRAMES, SelectorConfig, build_autoencoder

TINY_NET = NetConfig(history_len=2, embed_hidden=4, embed_out=3, cnn_channels=(2, 2, 2),
                     encoder_hidden=4, encoder_out=3, gru_hidden=4, latent=3, z_dim=2,
                     him_hidden=4)
TINY_OBS = 2
TINY_HW = (4, 4)
TINY_PROFILE = 3


def _check_params(objective, nets, eps: float = 1e-5) -> float:
    worst = 0.0
    for net in nets:
        for p in net.params():
            worst = max(worst, rel_err(p.grad, fd_grad(objective, p.values, eps)))
    return worst


def check_estimator_loss(vision: bool, seed: int) -> float:
    """loss_vp through the VP estimator (``vision``) or loss_op through the OP
    estimator, each with the HIM target encoder, from stream [seed, 23] or
    [seed, 11]."""
    rng = np.random.default_rng([seed, 23 if vision else 11])
    est = (VpEstimator(TINY_NET, TINY_OBS, TINY_HW, TINY_PROFILE, rng) if vision
           else OpEstimator(TINY_NET, TINY_OBS, rng))
    him = HimTargetEncoder(TINY_NET, TINY_OBS, rng)
    b = int(rng.integers(1, 3))
    inputs = [rng.standard_normal((b, TINY_NET.history_len * TINY_OBS))]
    if vision:
        inputs.append(rng.uniform(0.1, 2.0, (b, PAIR_FRAMES) + TINY_HW))
    hidden = rng.standard_normal((b, TINY_NET.gru_hidden)) * 0.5
    next_obs = rng.standard_normal((b, TINY_OBS))
    v_true = rng.standard_normal((b, 2))
    loss, labels = loss_op, ()
    if vision:      # h_f, m_t
        loss, labels = loss_vp, (rng.uniform(0, 2, (b, 2)),
                                 rng.uniform(-1, 1, (b, TINY_PROFILE)))

    def objective() -> float:
        z_hat, _ = him.forward(next_obs, v_true)
        out, _ = est.forward(*inputs, hidden)
        val, _ = loss(out, v_true, z_hat, *labels)
        return val

    z_hat, him_tape = him.forward(next_obs, v_true)
    out, rec = est.forward(*inputs, hidden)
    _, grads = loss(out, v_true, z_hat, *labels)
    him.backward(him_tape, grads["z_hat"])
    est.backward(rec, grads)
    return _check_params(objective, (est, him))


def check_ad_loss(seed: int) -> float:
    rng = np.random.default_rng([seed, 37])
    sel = SelectorConfig(ae_channels=(2, 2, 2), ae_bottleneck=4)
    ae = build_autoencoder(sel, *TINY_HW, rng)
    b = int(rng.integers(1, 3))
    frames = rng.uniform(0.1, 2.0, (b, 2) + TINY_HW)

    def objective() -> float:
        recon, _, _ = ae.forward(frames)
        diff = recon - frames
        return float(np.mean(diff * diff))

    recon, _, tape = ae.forward(frames)
    diff = recon - frames
    ae.backward(tape, (2.0 / diff.size) * diff)
    return _check_params(objective, (ae,))


def run_loss_suite(instances: int = 20, seed: int = 0) -> dict[str, float]:
    if instances < 1:
        raise ContractError(f"instances must be at least 1, got {instances}")
    out = {}
    out["loss_op"] = max(check_estimator_loss(False, seed + i) for i in range(instances))
    out["loss_vp"] = max(check_estimator_loss(True, seed + i) for i in range(instances))
    out["loss_ad"] = max(check_ad_loss(seed + i) for i in range(instances))
    return out


def run_full_suite(instances: int = 20, seed: int = 0) -> dict[str, float]:
    """Layer kinds plus the three supervised losses; all must sit under 1e-4.
    Refuses a negative seed, and fewer than one instance."""
    if seed < 0:
        raise ContractError(f"seed must be at least 0, got {seed}")
    results = run_layer_suite(instances, seed)
    results.update(run_loss_suite(instances, seed))
    return results
