"""The two redundant state estimators and their training-time target encoder.

Both estimators share the same spine: embeddings -> encoder fusion -> one
GRU cell -> linear heads. The proprioception-only estimator reads a flat
observation history; the vision one adds a 3-conv embedding of the stacked
depth frames as a second encoder token. The latent-target encoder consumes
next-step observation plus true velocity and is only used while training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import NetConfig
from ..errors import ContractError
from ..nn import (Attention1h, Conv2d, Elu, Flatten, GruCell, LayerStack, Linear,
                  Tanh, conv_shape)


@dataclass
class EstimatorOutput:
    h: np.ndarray                    # (B, latent)
    v_hat: np.ndarray                # (B, 2)
    z_o: np.ndarray                  # (B, z_dim)
    h_f_hat: np.ndarray | None       # (B, 2), vision estimator only
    m_t_hat: np.ndarray | None       # (B, K), vision estimator only
    gru_hidden: np.ndarray           # (B, gru_hidden)


@dataclass
class TickRecord:
    tapes: dict


class FuseEncoder:
    """Compresses embedding tokens to one fused vector.

    ``mlp`` concatenates and runs a two-layer MLP; ``attention`` attends the
    tokens with a learned query (single head) and projects the result. Both
    produce the same output width.
    """

    def __init__(self, cfg: NetConfig, n_tokens: int, rng: np.random.Generator) -> None:
        self.variant = cfg.encoder
        self.n_tokens = n_tokens
        d = cfg.embed_out
        if self.variant == "mlp":
            self.stacks = {"enc": LayerStack(
                [Linear(n_tokens * d, cfg.encoder_hidden), Elu(),
                 Linear(cfg.encoder_hidden, cfg.encoder_out)],
                (n_tokens * d,), rng, cfg.dtype)}
        elif self.variant == "attention":
            self.stacks = {
                "enc_attn": LayerStack([Attention1h(d, d, d)], (n_tokens, d), rng, cfg.dtype),
                "enc_proj": LayerStack([Linear(d, cfg.encoder_out)], (d,), rng, cfg.dtype),
            }
        else:
            raise ContractError(f"unknown encoder variant {cfg.encoder!r}")
        self.token_dim = d

    def encode_fuse(self, tokens: list[np.ndarray]):
        if len(tokens) == 0:
            raise ContractError("encoder needs at least one token")
        if len(tokens) != self.n_tokens:
            raise ContractError(f"expected {self.n_tokens} tokens, got {len(tokens)}")
        if self.variant == "mlp":
            x = np.concatenate(tokens, axis=1)
            y, _, tape = self.stacks["enc"].forward(x)
            return y, ("mlp", tape)
        x = np.stack(tokens, axis=1)
        mid, _, t1 = self.stacks["enc_attn"].forward(x)
        y, _, t2 = self.stacks["enc_proj"].forward(mid)
        return y, ("attention", t1, t2)

    def backward(self, rec, gy: np.ndarray) -> list[np.ndarray]:
        if rec[0] == "mlp":
            gx, _ = self.stacks["enc"].backward(rec[1], gy)
            d = self.token_dim
            return [gx[:, i * d:(i + 1) * d] for i in range(self.n_tokens)]
        gmid, _ = self.stacks["enc_proj"].backward(rec[2], gy)
        gx, _ = self.stacks["enc_attn"].backward(rec[1], gmid)
        return [gx[:, i, :] for i in range(self.n_tokens)]

    def params(self):
        for s in self.stacks.values():
            yield from s.params()


class _EstimatorBase:
    cfg: NetConfig
    stacks: dict[str, LayerStack]
    encoder: FuseEncoder

    def params(self):
        for s in self.stacks.values():
            yield from s.params()

    def zero_hidden(self, batch: int) -> np.ndarray:
        return self.stacks["gru"].zero_hidden(batch)

    def _run_heads(self, h_gru: np.ndarray, tapes: dict) -> dict[str, np.ndarray]:
        out = {}
        for name in self.head_names:
            y, _, t = self.stacks[name].forward(h_gru)
            tapes[name] = t
            out[name] = y
        return out

    def _heads_backward(self, tapes: dict, grads: dict[str, np.ndarray],
                        batch: int) -> np.ndarray:
        g_gru = np.zeros((batch, self.cfg.gru_hidden))
        for name in self.head_names:
            g = grads.get(name)
            if g is None:
                continue
            gx, _ = self.stacks[name].backward(tapes[name], g)
            g_gru += gx
        return g_gru


class OpEstimator(_EstimatorBase):
    """Latent, velocity and target-latent heads from proprioception history."""

    head_names = ("head_h", "head_v", "head_z")

    def __init__(self, cfg: NetConfig, obs_dim: int, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.obs_dim = obs_dim
        flat = cfg.history_len * obs_dim
        self.stacks = {
            "embed": LayerStack([Linear(flat, cfg.embed_hidden), Elu(),
                                 Linear(cfg.embed_hidden, cfg.embed_out), Elu()],
                                (flat,), rng, cfg.dtype),
            "gru": LayerStack([GruCell(cfg.encoder_out, cfg.gru_hidden)],
                              (cfg.encoder_out,), rng, cfg.dtype),
            "head_h": LayerStack([Linear(cfg.gru_hidden, cfg.latent), Tanh()],
                                 (cfg.gru_hidden,), rng, cfg.dtype),
            "head_v": LayerStack([Linear(cfg.gru_hidden, 2)], (cfg.gru_hidden,), rng, cfg.dtype),
            "head_z": LayerStack([Linear(cfg.gru_hidden, cfg.z_dim)],
                                 (cfg.gru_hidden,), rng, cfg.dtype),
        }
        self.encoder = FuseEncoder(cfg, n_tokens=1, rng=rng)
        self.stacks.update(self.encoder.stacks)

    def forward(self, flat_obs: np.ndarray, hidden: np.ndarray
                ) -> tuple[EstimatorOutput, TickRecord]:
        tapes: dict = {}
        emb, _, tapes["embed"] = self.stacks["embed"].forward(flat_obs)
        enc, tapes["enc"] = self.encoder.encode_fuse([emb])
        h_gru, new_hidden, tapes["gru"] = self.stacks["gru"].forward(enc, hidden)
        heads = self._run_heads(h_gru, tapes)
        out = EstimatorOutput(heads["head_h"], heads["head_v"], heads["head_z"],
                              None, None, new_hidden)
        return out, TickRecord(tapes)

    def backward(self, rec: TickRecord, grads: dict[str, np.ndarray],
                 hidden_grad: np.ndarray | None = None) -> np.ndarray:
        """Accumulates parameter grads; returns grad w.r.t. the previous hidden."""
        tapes = rec.tapes
        batch = tapes["gru"].batch
        g_gru_out = self._heads_backward(tapes, grads, batch)
        g_enc, g_hidden_prev = self.stacks["gru"].backward(
            tapes["gru"], g_gru_out, hidden_grad=hidden_grad)
        (g_emb,) = self.encoder.backward(tapes["enc"], g_enc)
        self.stacks["embed"].backward(tapes["embed"], g_emb)
        return g_hidden_prev


class VpEstimator(_EstimatorBase):
    """Adds a depth-frame embedding and terrain-prediction heads."""

    head_names = ("head_h", "head_v", "head_z", "head_hf", "head_mt")

    def __init__(self, cfg: NetConfig, obs_dim: int, depth_hw: tuple[int, int],
                 profile_samples: int, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.depth_hw = depth_hw
        c1, c2, c3 = cfg.cnn_channels
        k, s, p = cfg.cnn_kernel, cfg.cnn_stride, cfg.cnn_pad
        shape = (cfg.depth_frames,) + depth_hw
        s1 = conv_shape(shape, k, s, p, c1)
        s2 = conv_shape(s1, k, s, p, c2)
        s3 = conv_shape(s2, k, s, p, c3)
        cnn_flat = int(np.prod(s3))
        self.cnn_out_shape = s3
        flat = cfg.history_len * obs_dim
        self.stacks = {
            "embed": LayerStack([Linear(flat, cfg.embed_hidden), Elu(),
                                 Linear(cfg.embed_hidden, cfg.embed_out), Elu()],
                                (flat,), rng, cfg.dtype),
            "cnn": LayerStack([Conv2d(cfg.depth_frames, c1, k, s, p), Elu(),
                               Conv2d(c1, c2, k, s, p), Elu(),
                               Conv2d(c2, c3, k, s, p), Elu(),
                               Flatten(), Linear(cnn_flat, cfg.embed_out), Elu()],
                              shape, rng, cfg.dtype),
            "gru": LayerStack([GruCell(cfg.encoder_out, cfg.gru_hidden)],
                              (cfg.encoder_out,), rng, cfg.dtype),
            "head_h": LayerStack([Linear(cfg.gru_hidden, cfg.latent), Tanh()],
                                 (cfg.gru_hidden,), rng, cfg.dtype),
            "head_v": LayerStack([Linear(cfg.gru_hidden, 2)], (cfg.gru_hidden,), rng, cfg.dtype),
            "head_z": LayerStack([Linear(cfg.gru_hidden, cfg.z_dim)],
                                 (cfg.gru_hidden,), rng, cfg.dtype),
            "head_hf": LayerStack([Linear(cfg.gru_hidden, 2)], (cfg.gru_hidden,), rng, cfg.dtype),
            "head_mt": LayerStack([Linear(cfg.gru_hidden, profile_samples)],
                                  (cfg.gru_hidden,), rng, cfg.dtype),
        }
        self.encoder = FuseEncoder(cfg, n_tokens=2, rng=rng)
        self.stacks.update(self.encoder.stacks)

    def forward(self, flat_obs: np.ndarray, depth: np.ndarray, hidden: np.ndarray
                ) -> tuple[EstimatorOutput, TickRecord]:
        tapes: dict = {}
        emb, _, tapes["embed"] = self.stacks["embed"].forward(flat_obs)
        demb, _, tapes["cnn"] = self.stacks["cnn"].forward(depth)
        enc, tapes["enc"] = self.encoder.encode_fuse([emb, demb])
        h_gru, new_hidden, tapes["gru"] = self.stacks["gru"].forward(enc, hidden)
        heads = self._run_heads(h_gru, tapes)
        out = EstimatorOutput(heads["head_h"], heads["head_v"], heads["head_z"],
                              heads["head_hf"], heads["head_mt"], new_hidden)
        return out, TickRecord(tapes)

    def backward(self, rec: TickRecord, grads: dict[str, np.ndarray],
                 hidden_grad: np.ndarray | None = None) -> np.ndarray:
        tapes = rec.tapes
        batch = tapes["gru"].batch
        g_gru_out = self._heads_backward(tapes, grads, batch)
        g_enc, g_hidden_prev = self.stacks["gru"].backward(
            tapes["gru"], g_gru_out, hidden_grad=hidden_grad)
        g_emb, g_demb = self.encoder.backward(tapes["enc"], g_enc)
        self.stacks["embed"].backward(tapes["embed"], g_emb)
        self.stacks["cnn"].backward(tapes["cnn"], g_demb)
        return g_hidden_prev


class HimTargetEncoder:
    """Training-only target for the estimator latent head, fed next-step data."""

    def __init__(self, cfg: NetConfig, obs_dim: int, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.stacks = {"him": LayerStack(
            [Linear(obs_dim + 2, cfg.him_hidden), Elu(),
             Linear(cfg.him_hidden, cfg.z_dim)], (obs_dim + 2,), rng, cfg.dtype)}

    def forward(self, next_obs: np.ndarray, v_true: np.ndarray):
        x = np.concatenate([next_obs, v_true], axis=1)
        z_hat, _, tape = self.stacks["him"].forward(x)
        return z_hat, tape

    def backward(self, tape, g_z_hat: np.ndarray) -> None:
        self.stacks["him"].backward(tape, g_z_hat)

    def params(self):
        yield from self.stacks["him"].params()
