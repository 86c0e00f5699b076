"""Central finite-difference verification of every layer kernel.

The FD side only ever calls ``forward``; the analytic side only ``backward``.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from ..errors import ContractError
from . import layers as L
from .stack import LayerStack


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Max componentwise |a - b| / max(floor, |a| + |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.abs(a) + np.abs(b))
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0


def fd_grad(f: Callable[[], float], arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar ``f`` w.r.t. ``arr`` (perturbed in place)."""
    g = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f()
        flat[i] = keep - eps
        dn = f()
        flat[i] = keep
        gflat[i] = (up - dn) / (2.0 * eps)
    return g


def check_stack(stack: LayerStack, rng: np.random.Generator, eps: float = 1e-5) -> float:
    """FD-check input, hidden, and parameter grads of one stack; returns max rel err."""
    batch = int(rng.integers(1, 4))
    x = rng.standard_normal((batch,) + stack.input_shape)
    hidden = rng.standard_normal((batch, stack.gru_hidden_size)) if stack.has_gru else None
    r_out = rng.standard_normal((batch,) + stack.output_shape)
    r_hid = rng.standard_normal((batch, stack.gru_hidden_size)) if stack.has_gru else None

    def objective() -> float:
        y, h_new, _ = stack.forward(x, hidden)
        val = float(np.sum(y * r_out))
        if stack.has_gru:
            val += float(np.sum(h_new * r_hid))
        return val

    stack.zero_grads()
    y, h_new, tape = stack.forward(x, hidden)
    gx, gh = stack.backward(tape, r_out, hidden_grad=r_hid)

    worst = rel_err(gx, fd_grad(objective, x, eps))
    if stack.has_gru:
        worst = max(worst, rel_err(gh, fd_grad(objective, hidden, eps)))
    for p in stack.params():
        worst = max(worst, rel_err(p.grad, fd_grad(objective, p.values, eps)))
    return worst


def _instance(kind: str, rng: np.random.Generator) -> LayerStack:
    ri = lambda lo, hi: int(rng.integers(lo, hi + 1))
    if kind == "linear":
        n_in = ri(1, 6)
        return LayerStack([L.Linear(n_in, ri(1, 6))], (n_in,), rng)
    if kind in ("elu", "tanh"):
        n = ri(1, 8)
        return LayerStack([L.Elu() if kind == "elu" else L.Tanh()], (n,), rng)
    if kind == "conv2d":
        c, h, w = ri(1, 2), ri(4, 7), ri(4, 7)
        k = ri(2, 3)
        return LayerStack([L.Conv2d(c, ri(1, 3), k, ri(1, 2), ri(0, 1))], (c, h, w), rng)
    if kind == "deconv2d":
        c, h, w = ri(1, 2), ri(2, 4), ri(2, 4)
        s = ri(1, 2)
        op = (ri(0, s - 1), ri(0, s - 1))
        return LayerStack([L.Deconv2d(c, ri(1, 3), ri(2, 3), s, ri(0, 1), op)], (c, h, w), rng)
    if kind == "gru_cell":
        n_in = ri(2, 5)
        return LayerStack([L.GruCell(n_in, ri(2, 5))], (n_in,), rng)
    if kind == "flatten":
        c, h, w = ri(1, 2), ri(2, 4), ri(2, 4)
        return LayerStack([L.Flatten()], (c, h, w), rng)
    if kind == "reshape":
        a, b = ri(1, 3), ri(2, 4)
        return LayerStack([L.Reshape((b, a))], (a * b,), rng)
    raise ValueError(kind)


LAYER_KINDS = ("linear", "elu", "tanh", "conv2d", "deconv2d", "gru_cell", "flatten",
               "reshape")


def run_layer_suite(instances: int = 20, seed: int = 0) -> dict[str, float]:
    """Max FD relative error per layer kind over random small instances.
    Each kind draws from its own stream, keyed by a stable hash of its name."""
    if instances < 1:
        raise ContractError(f"instances must be at least 1, got {instances}")
    out: dict[str, float] = {}
    for kind in LAYER_KINDS:
        rng = np.random.default_rng([seed, zlib.crc32(kind.encode())])
        out[kind] = max(check_stack(_instance(kind, rng), rng) for _ in range(instances))
    return out
