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

from ..errors import ContractError
from ..nn import Conv2d, Elu, Flatten, GruCell, LayerStack, Linear, Tanh, conv_shape
from ..selector.autoencoder import PAIR_FRAMES

# every conv of the depth embedding halves the frame: 3x3 kernels, stride 2,
# padding 1
CNN_KERNEL, CNN_STRIDE, CNN_PAD = 3, 2, 1


@dataclass(frozen=True)
class NetConfig:
    """The layer widths of the estimators and the target encoder."""
    history_len: int = 10        # proprioception buffer length
    embed_hidden: int = 64
    embed_out: int = 32
    cnn_channels: tuple[int, int, int] = (8, 16, 32)
    encoder_hidden: int = 64
    encoder_out: int = 32
    gru_hidden: int = 64
    latent: int = 32
    z_dim: int = 16
    him_hidden: int = 32


# the architecture every run builds; the gradcheck builds a tiny one
NET = NetConfig()


@dataclass
class EstimatorOutput:
    h: np.ndarray                    # (B, latent)
    v_hat: np.ndarray                # (B, 2)
    z_o: np.ndarray                  # (B, z_dim)
    h_f_hat: np.ndarray | None       # (B, 2), vision estimator only
    m_t_hat: np.ndarray | None       # (B, K), vision estimator only
    gru_hidden: np.ndarray           # (B, gru_hidden)


class _EstimatorBase:
    """The shared spine. The stacks are built in one fixed order, which fixes
    the RNG draws and the checkpoint entry order: the observation ``embed``,
    the extra token stacks, ``gru``, the three shared heads, the extra heads,
    then the ``enc`` MLP over the concatenated tokens."""

    def __init__(self, cfg: NetConfig, obs_dim: int, rng: np.random.Generator,
                 tokens=(), extra_heads=()) -> None:
        """``tokens``: (name, layers, input shape) per extra embedding, each
        ending in ``cfg.embed_out`` features; ``extra_heads``: (name, width)
        per extra linear head."""
        self.cfg = cfg
        g = cfg.gru_hidden
        flat = cfg.history_len * obs_dim
        self.stacks = {"embed": LayerStack([Linear(flat, cfg.embed_hidden), Elu(),
                                            Linear(cfg.embed_hidden, cfg.embed_out), Elu()],
                                           (flat,), rng)}
        for name, layers, shape in tokens:
            self.stacks[name] = LayerStack(layers, shape, rng)
        self.token_names = tuple(self.stacks)
        self.stacks["gru"] = LayerStack([GruCell(cfg.encoder_out, g)], (cfg.encoder_out,), rng)
        heads = [("head_h", [Linear(g, cfg.latent), Tanh()]), ("head_v", [Linear(g, 2)]),
                 ("head_z", [Linear(g, cfg.z_dim)])]
        heads += [(name, [Linear(g, width)]) for name, width in extra_heads]
        for name, layers in heads:
            self.stacks[name] = LayerStack(layers, (g,), rng)
        self.head_names = tuple(name for name, _ in heads)
        width = len(self.token_names) * cfg.embed_out
        self.stacks["enc"] = LayerStack([Linear(width, cfg.encoder_hidden), Elu(),
                                         Linear(cfg.encoder_hidden, cfg.encoder_out)],
                                        (width,), rng)

    def params(self):
        for s in self.stacks.values():
            yield from s.params()

    def zero_hidden(self, batch: int) -> np.ndarray:
        return self.stacks["gru"].zero_hidden(batch)

    def _version(self) -> int:
        """Optimizer steps the weights have taken; ``forward`` stamps it on the
        tapes and ``backward`` refuses tapes stamped with another."""
        return sum(p.step_count for p in self.params())

    def _forward(self, inputs, hidden: np.ndarray) -> tuple[EstimatorOutput, dict]:
        """Embeddings (one input per token) -> encoder MLP -> GRU -> heads."""
        tapes: dict = {"version": self._version()}
        embs = []
        for name, x in zip(self.token_names, inputs):
            emb, _, tapes[name] = self.stacks[name].forward(x)
            embs.append(emb)
        enc, _, tapes["enc"] = self.stacks["enc"].forward(np.concatenate(embs, axis=1))
        h_gru, new_hidden, tapes["gru"] = self.stacks["gru"].forward(enc, hidden)
        heads = {}
        for name in self.head_names:
            heads[name], _, tapes[name] = self.stacks[name].forward(h_gru)
        return EstimatorOutput(heads["head_h"], heads["head_v"], heads["head_z"],
                               heads.get("head_hf"), heads.get("head_mt"), new_hidden), tapes

    def _backward(self, tapes: dict, grads: dict[str, np.ndarray],
                  hidden_grad: np.ndarray | None) -> np.ndarray:
        """Heads -> GRU -> encoder -> embeddings; accumulates parameter grads
        and returns the grad w.r.t. the previous hidden."""
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
        d = self.cfg.embed_out
        for i, name in enumerate(self.token_names):
            self.stacks[name].backward(tapes[name], g_tokens[:, i * d:(i + 1) * d],
                                       need_input_grad=False)
        return g_hidden_prev


class OpEstimator(_EstimatorBase):
    """Latent, velocity and target-latent heads from proprioception history."""

    # forward and backward are defined per class, not inherited: the tracer in
    # bench/spans.py wraps them through each class's own __dict__
    def forward(self, flat_obs: np.ndarray, hidden: np.ndarray
                ) -> tuple[EstimatorOutput, dict]:
        return self._forward((flat_obs,), hidden)

    def backward(self, tapes: dict, grads: dict[str, np.ndarray],
                 hidden_grad: np.ndarray | None = None) -> np.ndarray:
        return self._backward(tapes, grads, hidden_grad)


class VpEstimator(_EstimatorBase):
    """Adds a depth-frame embedding and terrain-prediction heads."""

    def __init__(self, cfg: NetConfig, obs_dim: int, depth_hw: tuple[int, int],
                 profile_samples: int, rng: np.random.Generator) -> None:
        c1, c2, c3 = cfg.cnn_channels
        k, s, p = CNN_KERNEL, CNN_STRIDE, CNN_PAD
        shape = (PAIR_FRAMES,) + depth_hw
        self.cnn_out_shape = conv_shape(conv_shape(conv_shape(shape, k, s, p, c1),
                                                   k, s, p, c2), k, s, p, c3)
        cnn = [Conv2d(PAIR_FRAMES, c1, k, s, p), Elu(), Conv2d(c1, c2, k, s, p), Elu(),
               Conv2d(c2, c3, k, s, p), Elu(),
               Flatten(), Linear(int(np.prod(self.cnn_out_shape)), cfg.embed_out), Elu()]
        super().__init__(cfg, obs_dim, rng, tokens=[("cnn", cnn, shape)],
                         extra_heads=[("head_hf", 2), ("head_mt", profile_samples)])

    def forward(self, flat_obs: np.ndarray, depth: np.ndarray, hidden: np.ndarray
                ) -> tuple[EstimatorOutput, dict]:
        return self._forward((flat_obs, depth), hidden)

    def backward(self, tapes: dict, grads: dict[str, np.ndarray],
                 hidden_grad: np.ndarray | None = None) -> np.ndarray:
        return self._backward(tapes, grads, hidden_grad)


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
