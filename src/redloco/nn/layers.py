"""Dense layer kernels with hand-derived reverse-mode gradients.

Every kernel is a pure function of (params, inputs); the forward returns a
record with exactly the arrays the matching backward needs. Backwards
accumulate into ``TensorParam.grad`` (additive; the optimizer zeroes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ContractError


# ---------------------------------------------------------------------------
# layer descriptors

@dataclass(frozen=True)
class Linear:
    n_in: int
    n_out: int
    kind: str = field(default="linear", init=False)


@dataclass(frozen=True)
class Elu:
    """ELU with alpha 1; the backward's min(y, 0) + 1 depends on it."""
    kind: str = field(default="elu", init=False)


@dataclass(frozen=True)
class Tanh:
    kind: str = field(default="tanh", init=False)


@dataclass(frozen=True)
class Conv2d:
    c_in: int
    c_out: int
    kernel: int
    stride: int
    pad: int
    kind: str = field(default="conv2d", init=False)


@dataclass(frozen=True)
class Deconv2d:
    c_in: int
    c_out: int
    kernel: int
    stride: int
    pad: int
    out_pad: tuple[int, int] = (0, 0)
    kind: str = field(default="deconv2d", init=False)


@dataclass(frozen=True)
class GruCell:
    n_in: int
    n_hidden: int
    kind: str = field(default="gru_cell", init=False)


@dataclass(frozen=True)
class Flatten:
    kind: str = field(default="flatten", init=False)


@dataclass(frozen=True)
class Reshape:
    shape: tuple[int, ...]
    kind: str = field(default="reshape", init=False)


LayerDesc = Linear | Elu | Tanh | Conv2d | Deconv2d | GruCell | Flatten | Reshape


# ---------------------------------------------------------------------------
# shape arithmetic

def conv_shape(input_shape: tuple[int, ...], kernel: int, stride: int, padding: int,
               out_channels: int | None = None) -> tuple[int, ...]:
    """Output shape of a direct 2D convolution over (C, H, W)."""
    if len(input_shape) != 3:
        raise ContractError(f"conv_shape expects (C, H, W), got {input_shape}")
    c, h, w = input_shape
    if min(c, h, w, kernel, stride) < 1 or padding < 0:
        raise ContractError(f"non-positive conv geometry: {input_shape} k={kernel} s={stride} p={padding}")
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    if ho < 1 or wo < 1:
        raise ContractError(f"conv output collapses: {input_shape} k={kernel} s={stride} p={padding} -> ({ho},{wo})")
    return (out_channels if out_channels is not None else c, ho, wo)


def deconv_shape(input_shape: tuple[int, ...], kernel: int, stride: int, padding: int,
                 out_pad: tuple[int, int] = (0, 0), out_channels: int | None = None) -> tuple[int, ...]:
    """Output shape of a transposed convolution; inverts :func:`conv_shape`."""
    if len(input_shape) != 3:
        raise ContractError(f"deconv_shape expects (C, H, W), got {input_shape}")
    c, h, w = input_shape
    ho = (h - 1) * stride - 2 * padding + kernel + out_pad[0]
    wo = (w - 1) * stride - 2 * padding + kernel + out_pad[1]
    if ho < 1 or wo < 1:
        raise ContractError(f"deconv output collapses: {input_shape} -> ({ho},{wo})")
    return (out_channels if out_channels is not None else c, ho, wo)


def mirror_out_pad(conv_in: tuple[int, int], kernel: int, stride: int, padding: int) -> tuple[int, int]:
    """Output padding that makes a deconv exactly undo a conv of this geometry."""
    h, w = conv_in
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    oph = h - ((ho - 1) * stride - 2 * padding + kernel)
    opw = w - ((wo - 1) * stride - 2 * padding + kernel)
    if oph < 0 or opw < 0:
        raise ContractError(f"conv geometry k={kernel} s={stride} p={padding} not mirrorable for {conv_in}")
    return (oph, opw)


def infer_shape(layer: LayerDesc, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    k = layer.kind
    if k == "linear":
        if in_shape != (layer.n_in,):
            raise ContractError(f"linear expects ({layer.n_in},), got {in_shape}")
        return (layer.n_out,)
    if k in ("elu", "tanh"):
        return in_shape
    if k == "conv2d":
        if len(in_shape) != 3 or in_shape[0] != layer.c_in:
            raise ContractError(f"conv2d expects ({layer.c_in}, H, W), got {in_shape}")
        return conv_shape(in_shape, layer.kernel, layer.stride, layer.pad, layer.c_out)
    if k == "deconv2d":
        if len(in_shape) != 3 or in_shape[0] != layer.c_in:
            raise ContractError(f"deconv2d expects ({layer.c_in}, H, W), got {in_shape}")
        return deconv_shape(in_shape, layer.kernel, layer.stride, layer.pad, layer.out_pad, layer.c_out)
    if k == "gru_cell":
        if in_shape != (layer.n_in,):
            raise ContractError(f"gru_cell expects ({layer.n_in},), got {in_shape}")
        return (layer.n_hidden,)
    if k == "flatten":
        return (int(np.prod(in_shape)),)
    if k == "reshape":
        if int(np.prod(in_shape)) != int(np.prod(layer.shape)):
            raise ContractError(f"reshape {in_shape} -> {layer.shape} changes element count")
        return tuple(layer.shape)
    raise ContractError(f"unknown layer kind {k!r}")


# ---------------------------------------------------------------------------
# initialization: fan-in-scaled uniform weights, zero biases

def init_params(layer: LayerDesc, rng: np.random.Generator) -> dict[str, np.ndarray]:
    def uni(fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
        lim = float(np.sqrt(1.0 / max(fan_in, 1)))
        return rng.uniform(-lim, lim, size=shape)

    k = layer.kind
    if k == "linear":
        return {"W": uni(layer.n_in, (layer.n_in, layer.n_out)),
                "b": np.zeros(layer.n_out)}
    if k == "conv2d":
        fan = layer.c_in * layer.kernel * layer.kernel
        return {"W": uni(fan, (layer.c_out, layer.c_in, layer.kernel, layer.kernel)),
                "b": np.zeros(layer.c_out)}
    if k == "deconv2d":
        fan = layer.c_in * layer.kernel * layer.kernel
        return {"W": uni(fan, (layer.c_in, layer.c_out, layer.kernel, layer.kernel)),
                "b": np.zeros(layer.c_out)}
    if k == "gru_cell":
        ni, nh = layer.n_in, layer.n_hidden
        out: dict[str, np.ndarray] = {}
        for gate in ("z", "r", "n"):
            out[f"W{gate}"] = uni(ni, (ni, nh))
            out[f"U{gate}"] = uni(nh, (nh, nh))
            out[f"b{gate}"] = np.zeros(nh)
        return out
    return {}


# ---------------------------------------------------------------------------
# elementwise helpers

def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


# ---------------------------------------------------------------------------
# forward/backward kernels; `P` maps param name -> TensorParam

def forward(layer: LayerDesc, P: dict[str, Any], x: np.ndarray,
            hidden: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None, Any]:
    k = layer.kind
    if k == "linear":
        y = x @ P["W"].values + P["b"].values
        return y, None, x
    if k == "elu":
        # expm1(min(x, 0)) + max(x, 0): one term is always +0.0, so this is
        # bit for bit the two-branch form, with no select and no mask
        y = np.minimum(x, 0.0)
        np.expm1(y, out=y)
        y += np.maximum(x, 0.0)
        return y, None, y
    if k == "tanh":
        y = np.tanh(x)
        return y, None, y
    if k == "conv2d":
        y, rec = _conv2d_fwd(x, P["W"].values, P["b"].values, layer)
        return y, None, rec
    if k == "deconv2d":
        y, rec = _deconv2d_fwd(x, P["W"].values, P["b"].values, layer)
        return y, None, rec
    if k == "gru_cell":
        if hidden is None:
            raise ContractError("gru_cell forward requires a hidden state")
        return _gru_fwd(x, hidden, P)
    if k == "flatten":
        y = x.reshape(x.shape[0], -1)
        return y, None, x.shape
    if k == "reshape":
        y = x.reshape((x.shape[0],) + tuple(layer.shape))
        return y, None, x.shape
    raise ContractError(f"unknown layer kind {k!r}")


def backward(layer: LayerDesc, P: dict[str, Any], rec: Any, gy: np.ndarray,
             need_input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Returns (grad wrt input, grad wrt previous hidden or None). Without
    ``need_input_grad`` the linear and conv2d layers skip the input grad and
    return None for it."""
    k = layer.kind
    if k == "linear":
        x = rec
        P["W"].grad += x.T @ gy
        P["b"].grad += gy.sum(0)
        return (gy @ P["W"].values.T if need_input_grad else None), None
    if k == "elu":
        # dy/dx is 1 where y > 0 and y + 1 elsewhere, i.e. min(y, 0) + 1
        d = np.minimum(rec, 0.0)
        d += 1.0
        d *= gy
        return d, None
    if k == "tanh":
        y = rec
        return gy * (1.0 - y * y), None
    if k == "conv2d":
        return _conv2d_bwd(gy, rec, P, layer, need_input_grad), None
    if k == "deconv2d":
        return _deconv2d_bwd(gy, rec, P, layer), None
    if k == "gru_cell":
        return _gru_bwd(gy, rec, P)
    if k == "flatten":
        return gy.reshape(rec), None
    if k == "reshape":
        return gy.reshape(rec), None
    raise ContractError(f"unknown layer kind {k!r}")


# --- conv2d and deconv2d ---
# Channels-last internally, in stride-phase layout. An image zero-padded by p
# is stored as one (s, s, B, hq, wq, C) array: padded cell (r, c) sits at
# phase (r % s, c % s), row r // s, column c // s. Tap (di, dj) then reads
# the block ph[di % s, dj % s, :, di//s : di//s+ho, dj//s : dj//s+wo, :],
# whose rows are contiguous runs of wo * C values, and scatter-adds into a
# phase array land on the same runs.
# A transposed conv's forward is a conv's input-grad pass and its input grad
# a conv forward, so two tap loops serve both layers. The gather loop phases
# an image, copies each tap's block into one window buffer and accumulates
# window @ w_t[di, dj] into a sum that starts at the bias (conv forward) or
# at zero (deconv input grad); the weight grad (window.T @ flat).T comes from
# the same copy (conv and deconv backward). The scatter loop scatter-adds
# flat @ w_t[di, dj] into a zeroed phase array (conv input grad, deconv
# forward), so cells no tap reaches come back as 0. Every buffer is allocated
# once per call and nothing is kept between calls, so a record never shares
# memory with a later call. Taps accumulate in (di, dj) order, which gives
# the bits of the plain per-tap loop with contiguous windows
# (tests/test_conv_kernels.py).
# A record keeps only the input itself (the deconv's as a channels-last
# view), which the caller or the previous layer's record holds anyway; the
# backward builds the phases or the contiguous copy again. So the input must
# not be written in place while its tape is live.

@functools.lru_cache(maxsize=64)
def _phase_spans(h: int, w: int, s: int, p: int):
    """Phase rows/columns ``hq, wq`` of an (h, w) image padded by p, and for
    each phase that holds image cells the index of those cells in the phase
    array and the matching (B, C, rows, cols) index into the image."""
    def axis(n):
        spans = []
        for a in range(s):
            i0 = max(0, -(-(p - a) // s))     # first phase row at or past the pad
            r0 = a + s * i0 - p
            if r0 < n:
                spans.append((a, slice(i0, i0 + len(range(r0, n, s))), slice(r0, None, s)))
        return spans
    pairs = tuple(((a, b, slice(None), rows, cols), (slice(None), slice(None), rs, cs))
                  for a, rows, rs in axis(h) for b, cols, cs in axis(w))
    return -(-(h + 2 * p) // s), -(-(w + 2 * p) // s), pairs


@functools.lru_cache(maxsize=64)
def _taps(k: int, s: int, ho: int, wo: int):
    """(di, dj, index of tap (di, dj)'s (B, ho, wo, C) block in a phase array)."""
    return tuple((di, dj, (di % s, dj % s, slice(None), slice(di // s, di // s + ho),
                           slice(dj // s, dj // s + wo)))
                 for di in range(k) for dj in range(k))


def _to_phases(x, s, p):
    """(B, C, H, W) -> its zero padding by p, as (s, s, B, hq, wq, C) phases."""
    B, C, H, Wd = x.shape
    hq, wq, pairs = _phase_spans(H, Wd, s, p)
    ph = np.zeros((s, s, B, hq, wq, C), dtype=x.dtype)
    for dst, src in pairs:
        ph[dst] = x[src].transpose(0, 2, 3, 1)
    return ph


def _from_phases(ph, shape, s, p):
    """The (B, C, H, W) image inside the padding of a phase array."""
    out = np.empty(shape, dtype=ph.dtype)
    for src, dst in _phase_spans(shape[2], shape[3], s, p)[2]:
        out[dst] = ph[src].transpose(0, 3, 1, 2)
    return out


def _gather(x, L, ho, wo, W=None, start=0.0, flat=None, grad=None):
    """Gather loop over the (ho, wo) tap blocks of x (B, C, H, W) padded by
    L.pad. With weights W, returns start + sum of window @ w_t[di, dj] as
    (B, O, ho, wo); with ``flat`` (B * ho * wo, F), adds (window.T @ flat).T
    into grad[:, :, di, dj]."""
    ph = _to_phases(x, L.stride, L.pad)
    B, C = x.shape[:2]
    win = np.empty((B, ho, wo, C), dtype=x.dtype)
    xs = win.reshape(-1, C)
    if flat is not None:
        gw = np.empty((C, flat.shape[1]), dtype=x.dtype)
    if W is not None:
        w_t = np.ascontiguousarray(W.transpose(2, 3, 1, 0))      # (k, k, C, O)
        prod = np.empty((B * ho * wo, w_t.shape[3]), dtype=x.dtype)
        acc = np.empty_like(prod)
        acc[...] = start
    for di, dj, tap in _taps(L.kernel, L.stride, ho, wo):
        win[...] = ph[tap]
        if flat is not None:
            np.matmul(xs.T, flat, out=gw)
            grad[:, :, di, dj] += gw.T
        if W is not None:
            np.matmul(xs, w_t[di, dj], out=prod)
            acc += prod
    if W is None:
        return None
    out = prod.reshape(B, -1, ho, wo)             # the product buffer is free now
    out[...] = acc.reshape(B, ho, wo, -1).transpose(0, 3, 1, 2)
    return out


def _scatter(x_t, W, L, size):
    """Scatter loop: flat @ w_t[di, dj] for the channels-last x_t (B, h, w, F)
    scatter-added at the (h, w) tap blocks of a zeroed phase array, returned
    as the (B, O) + size image inside its padding by L.pad."""
    B, h, w, F = x_t.shape
    s = L.stride
    flat = x_t.reshape(-1, F)
    w_t = np.ascontiguousarray(W.transpose(2, 3, 0, 1))          # (k, k, F, O)
    O = w_t.shape[3]
    hq, wq, _ = _phase_spans(*size, s, L.pad)
    ph = np.zeros((s, s, B, hq, wq, O), dtype=x_t.dtype)
    prod = np.empty((B, h, w, O), dtype=x_t.dtype)
    for di, dj, tap in _taps(L.kernel, s, h, w):
        np.matmul(flat, w_t[di, dj], out=prod.reshape(-1, O))
        ph[tap] += prod
    return _from_phases(ph, (B, O) + size, s, L.pad)


def _conv2d_fwd(x, W, b, L: Conv2d):
    _, ho, wo = conv_shape(x.shape[1:], L.kernel, L.stride, L.pad, L.c_out)
    return _gather(x, L, ho, wo, W, b), (x, x.shape)


def _conv2d_bwd(gy, rec, P, L: Conv2d, need_input_grad: bool = True):
    x, xshape = rec
    gy_t = np.ascontiguousarray(gy.transpose(0, 2, 3, 1))
    gy_flat = gy_t.reshape(-1, L.c_out)
    P["b"].grad += gy_flat.sum(0)
    _gather(x, L, gy.shape[2], gy.shape[3], flat=gy_flat, grad=P["W"].grad)
    return _scatter(gy_t, P["W"].values, L, xshape[2:]) if need_input_grad else None


def _deconv2d_fwd(x, W, b, L: Deconv2d):
    _, ho, wo = deconv_shape(x.shape[1:], L.kernel, L.stride, L.pad, L.out_pad, L.c_out)
    out = _scatter(np.ascontiguousarray(x.transpose(0, 2, 3, 1)), W, L, (ho, wo))
    out += b[:, None, None]
    return out, (x.transpose(0, 2, 3, 1),)


def _deconv2d_bwd(gy, rec, P, L: Deconv2d):
    x_t = np.ascontiguousarray(rec[0])
    _, H, Wd, C = x_t.shape
    P["b"].grad += gy.sum((0, 2, 3))
    return _gather(gy, L, H, Wd, P["W"].values, flat=x_t.reshape(-1, C), grad=P["W"].grad)


# --- gru cell ---
# z = sig(x Wz + h Uz + bz); r = sig(x Wr + h Ur + br)
# n = tanh(x Wn + r * (h Un) + bn); h' = (1 - z) * n + z * h

def _gru_fwd(x, h, P):
    z = _sigmoid(x @ P["Wz"].values + h @ P["Uz"].values + P["bz"].values)
    r = _sigmoid(x @ P["Wr"].values + h @ P["Ur"].values + P["br"].values)
    hU = h @ P["Un"].values
    n = np.tanh(x @ P["Wn"].values + r * hU + P["bn"].values)
    h_new = (1.0 - z) * n + z * h
    return h_new, h_new, (x, h, z, r, n, hU)


def _gru_bwd(gy, rec, P):
    x, h, z, r, n, hU = rec
    gn = gy * (1.0 - z)
    gz = gy * (h - n)
    gh = gy * z
    gan = gn * (1.0 - n * n)
    P["Wn"].grad += x.T @ gan
    P["bn"].grad += gan.sum(0)
    gx = gan @ P["Wn"].values.T
    gr = gan * hU
    ghU = gan * r
    P["Un"].grad += h.T @ ghU
    gh = gh + ghU @ P["Un"].values.T
    gar = gr * r * (1.0 - r)
    P["Wr"].grad += x.T @ gar
    P["Ur"].grad += h.T @ gar
    P["br"].grad += gar.sum(0)
    gx += gar @ P["Wr"].values.T
    gh += gar @ P["Ur"].values.T
    gaz = gz * z * (1.0 - z)
    P["Wz"].grad += x.T @ gaz
    P["Uz"].grad += h.T @ gaz
    P["bz"].grad += gaz.sum(0)
    gx += gaz @ P["Wz"].values.T
    gh += gaz @ P["Uz"].values.T
    return gx, gh
