"""The two redundant state estimators and their training-time target encoder.

Both estimators share the same spine: embeddings -> an MLP over their
concatenation -> one GRU cell -> linear heads. The proprioception-only
estimator reads a flat observation history; the vision one adds a 3-conv
embedding of the stacked depth frames as a second token. The latent-target
encoder consumes next-step observation plus true velocity and is only used
while training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import NetConfig
from ..errors import ContractError
from ..nn import Conv2d, Elu, Flatten, GruCell, LayerStack, Linear, Tanh, conv_shape
from ..selector.autoencoder import PAIR_FRAMES


@dataclass
class EstimatorOutput:
    h: np.ndarray                    # (B, latent)
    v_hat: np.ndarray                # (B, 2)
    z_o: np.ndarray                  # (B, z_dim)
    h_f_hat: np.ndarray | None       # (B, 2), vision estimator only
    m_t_hat: np.ndarray | None       # (B, K), vision estimator only
    gru_hidden: np.ndarray           # (B, gru_hidden)


def _fuse_encoder(cfg: NetConfig, n_tokens: int, rng: np.random.Generator) -> LayerStack:
    """Two-layer MLP over the concatenated embedding tokens."""
    width = n_tokens * cfg.embed_out
    return LayerStack([Linear(width, cfg.encoder_hidden), Elu(),
                       Linear(cfg.encoder_hidden, cfg.encoder_out)], (width,), rng)


class _EstimatorBase:
    cfg: NetConfig
    stacks: dict[str, LayerStack]
    head_names: tuple[str, ...]

    def params(self):
        for s in self.stacks.values():
            yield from s.params()

    def zero_hidden(self, batch: int) -> np.ndarray:
        return self.stacks["gru"].zero_hidden(batch)

    def _version(self) -> int:
        """Optimizer steps the weights have taken; ``forward`` stamps it on the
        tapes and ``backward`` refuses tapes stamped with another."""
        return sum(p.step_count for p in self.params())

    def _spine(self, tokens: np.ndarray, hidden: np.ndarray, tapes: dict) -> EstimatorOutput:
        """Encoder MLP -> GRU -> heads over the concatenated embedding tokens."""
        enc, _, tapes["enc"] = self.stacks["enc"].forward(tokens)
        h_gru, new_hidden, tapes["gru"] = self.stacks["gru"].forward(enc, hidden)
        heads = {}
        for name in self.head_names:
            heads[name], _, tapes[name] = self.stacks[name].forward(h_gru)
        return EstimatorOutput(heads["head_h"], heads["head_v"], heads["head_z"],
                               heads.get("head_hf"), heads.get("head_mt"), new_hidden)

    def _spine_backward(self, tapes: dict, grads: dict[str, np.ndarray],
                        hidden_grad: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Heads -> GRU -> encoder; returns the token and previous-hidden grads."""
        if tapes["version"] != self._version():
            raise ContractError("tapes were recorded under weights that have stepped "
                                "since; run the estimator forward again")
        g_gru = np.zeros((tapes["gru"].batch, self.cfg.gru_hidden))
        for name in self.head_names:
            if name in grads:
                g_gru += self.stacks[name].backward(tapes[name], grads[name])[0]
        g_enc, g_hidden_prev = self.stacks["gru"].backward(
            tapes["gru"], g_gru, hidden_grad=hidden_grad)
        g_tokens, _ = self.stacks["enc"].backward(tapes["enc"], g_enc)
        return g_tokens, g_hidden_prev


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
                                (flat,), rng),
            "gru": LayerStack([GruCell(cfg.encoder_out, cfg.gru_hidden)],
                              (cfg.encoder_out,), rng),
            "head_h": LayerStack([Linear(cfg.gru_hidden, cfg.latent), Tanh()],
                                 (cfg.gru_hidden,), rng),
            "head_v": LayerStack([Linear(cfg.gru_hidden, 2)], (cfg.gru_hidden,), rng),
            "head_z": LayerStack([Linear(cfg.gru_hidden, cfg.z_dim)],
                                 (cfg.gru_hidden,), rng),
        }
        # built last: the RNG draws and the checkpoint entry order follow it
        self.stacks["enc"] = _fuse_encoder(cfg, 1, rng)

    def forward(self, flat_obs: np.ndarray, hidden: np.ndarray
                ) -> tuple[EstimatorOutput, dict]:
        tapes: dict = {"version": self._version()}
        emb, _, tapes["embed"] = self.stacks["embed"].forward(flat_obs)
        return self._spine(emb, hidden, tapes), tapes

    def backward(self, tapes: dict, grads: dict[str, np.ndarray],
                 hidden_grad: np.ndarray | None = None) -> np.ndarray:
        """Accumulates parameter grads; returns grad w.r.t. the previous hidden."""
        g_emb, g_hidden_prev = self._spine_backward(tapes, grads, hidden_grad)
        self.stacks["embed"].backward(tapes["embed"], g_emb, need_input_grad=False)
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
        shape = (PAIR_FRAMES,) + depth_hw
        s1 = conv_shape(shape, k, s, p, c1)
        s2 = conv_shape(s1, k, s, p, c2)
        s3 = conv_shape(s2, k, s, p, c3)
        cnn_flat = int(np.prod(s3))
        self.cnn_out_shape = s3
        flat = cfg.history_len * obs_dim
        self.stacks = {
            "embed": LayerStack([Linear(flat, cfg.embed_hidden), Elu(),
                                 Linear(cfg.embed_hidden, cfg.embed_out), Elu()],
                                (flat,), rng),
            "cnn": LayerStack([Conv2d(PAIR_FRAMES, c1, k, s, p), Elu(),
                               Conv2d(c1, c2, k, s, p), Elu(),
                               Conv2d(c2, c3, k, s, p), Elu(),
                               Flatten(), Linear(cnn_flat, cfg.embed_out), Elu()],
                              shape, rng),
            "gru": LayerStack([GruCell(cfg.encoder_out, cfg.gru_hidden)],
                              (cfg.encoder_out,), rng),
            "head_h": LayerStack([Linear(cfg.gru_hidden, cfg.latent), Tanh()],
                                 (cfg.gru_hidden,), rng),
            "head_v": LayerStack([Linear(cfg.gru_hidden, 2)], (cfg.gru_hidden,), rng),
            "head_z": LayerStack([Linear(cfg.gru_hidden, cfg.z_dim)],
                                 (cfg.gru_hidden,), rng),
            "head_hf": LayerStack([Linear(cfg.gru_hidden, 2)], (cfg.gru_hidden,), rng),
            "head_mt": LayerStack([Linear(cfg.gru_hidden, profile_samples)],
                                  (cfg.gru_hidden,), rng),
        }
        self.stacks["enc"] = _fuse_encoder(cfg, 2, rng)

    def forward(self, flat_obs: np.ndarray, depth: np.ndarray, hidden: np.ndarray
                ) -> tuple[EstimatorOutput, dict]:
        tapes: dict = {"version": self._version()}
        emb, _, tapes["embed"] = self.stacks["embed"].forward(flat_obs)
        demb, _, tapes["cnn"] = self.stacks["cnn"].forward(depth)
        return self._spine(np.concatenate([emb, demb], axis=1), hidden, tapes), tapes

    def backward(self, tapes: dict, grads: dict[str, np.ndarray],
                 hidden_grad: np.ndarray | None = None) -> np.ndarray:
        g_tokens, g_hidden_prev = self._spine_backward(tapes, grads, hidden_grad)
        d = self.cfg.embed_out
        self.stacks["embed"].backward(tapes["embed"], g_tokens[:, :d], need_input_grad=False)
        self.stacks["cnn"].backward(tapes["cnn"], g_tokens[:, d:], need_input_grad=False)
        return g_hidden_prev


class HimTargetEncoder:
    """Training-only target for the estimator latent head, fed next-step data."""

    def __init__(self, cfg: NetConfig, obs_dim: int, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.stacks = {"him": LayerStack(
            [Linear(obs_dim + 2, cfg.him_hidden), Elu(),
             Linear(cfg.him_hidden, cfg.z_dim)], (obs_dim + 2,), rng)}

    def forward(self, next_obs: np.ndarray, v_true: np.ndarray):
        x = np.concatenate([next_obs, v_true], axis=1)
        z_hat, _, tape = self.stacks["him"].forward(x)
        return z_hat, tape

    def backward(self, tape, g_z_hat: np.ndarray) -> None:
        self.stacks["him"].backward(tape, g_z_hat, need_input_grad=False)

    def params(self):
        yield from self.stacks["him"].params()
