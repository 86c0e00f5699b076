"""Conv/deconv kernels against a per-tap reference loop, bit for bit.

The reference is the earlier form of the kernels: each tap multiplies a
strided 4-D window by a strided weight view. The kernels under test lay the
same taps out contiguously and run them through two shared loops: a gather
loop (conv forward, both weight grads, deconv input grad) and a scatter loop
(conv input grad, deconv forward). Both must give identical outputs and
gradients, so that training under a fixed seed is unchanged by the layout
and by which loop serves which pass. Identity
holds at the shapes the networks run (the desk chain and the paper-shape
layers); for some other channel counts the BLAS library picks inner kernels
that sum in another order, and the last bits may differ. At every small
geometry the kernels must also give the bits of the padded-array glue they
replaced, with each tap window made contiguous.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from redloco.errors import ContractError
from redloco.nn import (Conv2d, Deconv2d, Elu, LayerStack, TensorParam, conv_shape,
                        deconv_shape, mirror_out_pad)
from redloco.nn import layers


def ref_conv2d_fwd(x, W, b, L):
    B, C, H, Wd = x.shape
    _, ho, wo = conv_shape((C, H, Wd), L.kernel, L.stride, L.pad, L.c_out)
    p, s = L.pad, L.stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    xp_t = np.ascontiguousarray(xp.transpose(0, 2, 3, 1))
    w_t = W.transpose(2, 3, 1, 0)
    y_t = np.empty((B, ho, wo, L.c_out), dtype=x.dtype)
    y_t[...] = b
    for di in range(L.kernel):
        for dj in range(L.kernel):
            xs = xp_t[:, di:di + s * ho:s, dj:dj + s * wo:s, :]
            y_t += xs @ w_t[di, dj]
    return np.ascontiguousarray(y_t.transpose(0, 3, 1, 2)), (xp_t, x.shape)


def ref_conv2d_bwd(gy, rec, P, L):
    xp_t, xshape = rec
    B, C, H, Wd = xshape
    ho, wo = gy.shape[2], gy.shape[3]
    p, s = L.pad, L.stride
    w_t = P["W"].values.transpose(2, 3, 1, 0)
    gy_t = np.ascontiguousarray(gy.transpose(0, 2, 3, 1))
    gy_flat = gy_t.reshape(-1, L.c_out)
    P["b"].grad += gy_flat.sum(0)
    gxp_t = np.zeros_like(xp_t)
    for di in range(L.kernel):
        for dj in range(L.kernel):
            xs = xp_t[:, di:di + s * ho:s, dj:dj + s * wo:s, :]
            P["W"].grad[:, :, di, dj] += (xs.reshape(-1, C).T @ gy_flat).T
            gxp_t[:, di:di + s * ho:s, dj:dj + s * wo:s, :] += gy_t @ w_t[di, dj].T
    gx_t = gxp_t[:, p:p + H, p:p + Wd, :] if p else gxp_t
    return np.ascontiguousarray(gx_t.transpose(0, 3, 1, 2))


def ref_deconv2d_fwd(x, W, b, L):
    B, C, H, Wd = x.shape
    s, p = L.stride, L.pad
    x_t = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    w_t = W.transpose(2, 3, 0, 1)
    full_t = np.zeros((B, (H - 1) * s + L.kernel + L.out_pad[0],
                       (Wd - 1) * s + L.kernel + L.out_pad[1], L.c_out), dtype=x.dtype)
    for di in range(L.kernel):
        for dj in range(L.kernel):
            full_t[:, di:di + s * H:s, dj:dj + s * Wd:s, :] += x_t @ w_t[di, dj]
    ho = full_t.shape[1] - 2 * p
    wo = full_t.shape[2] - 2 * p
    y_t = full_t[:, p:p + ho, p:p + wo, :] + b
    return np.ascontiguousarray(y_t.transpose(0, 3, 1, 2)), (x_t, full_t.shape)


def ref_deconv2d_bwd(gy, rec, P, L):
    x_t, full_shape = rec
    B, H, Wd, C = x_t.shape
    s, p = L.stride, L.pad
    w_t = P["W"].values.transpose(2, 3, 0, 1)
    gy_t = gy.transpose(0, 2, 3, 1)
    P["b"].grad += gy.sum((0, 2, 3))
    gfull_t = np.zeros(full_shape, dtype=gy.dtype)
    gfull_t[:, p:p + gy.shape[2], p:p + gy.shape[3], :] = gy_t
    gx_t = np.zeros_like(x_t)
    x_flat = x_t.reshape(-1, C)
    for di in range(L.kernel):
        for dj in range(L.kernel):
            gslice = gfull_t[:, di:di + s * H:s, dj:dj + s * Wd:s, :]
            P["W"].grad[:, :, di, dj] += x_flat.T @ gslice.reshape(-1, L.c_out)
            gx_t += gslice @ w_t[di, dj].T
    return np.ascontiguousarray(gx_t.transpose(0, 3, 1, 2))


REFERENCE = {"conv2d": (ref_conv2d_fwd, ref_conv2d_bwd),
             "deconv2d": (ref_deconv2d_fwd, ref_deconv2d_bwd)}


def _mirror(c_in, c_out, out_hw):
    """The deconv c_in -> c_out that restores the size out_hw a k3 s2 p1 conv
    reduced, and the input shape it reads."""
    layer = Deconv2d(c_in, c_out, 3, 2, 1, mirror_out_pad(out_hw, 3, 2, 1))
    return layer, (c_in,) + conv_shape((c_out,) + out_hw, 3, 2, 1)[1:]


DESK = [(Conv2d(2, 8, 3, 2, 1), (2, 12, 16)),
        (Conv2d(8, 16, 3, 2, 1), (8, 6, 8)),
        (Conv2d(16, 32, 3, 2, 1), (16, 3, 4)),
        _mirror(32, 16, (3, 4)),
        _mirror(16, 8, (6, 8)),
        _mirror(8, 2, (12, 16))]
PAPER = [(Conv2d(2, 8, 3, 2, 1), (2, 48, 64))]
CASES = [pytest.param(layer, shape, id=f"{layer.kind}-{layer.c_in}to{layer.c_out}"
                      f"@{shape[1]}x{shape[2]}") for layer, shape in DESK + PAPER]


def _params(layer, rng):
    if layer.kind == "conv2d":
        wshape = (layer.c_out, layer.c_in, layer.kernel, layer.kernel)
    else:
        wshape = (layer.c_in, layer.c_out, layer.kernel, layer.kernel)
    return {"W": TensorParam("W", rng.standard_normal(wshape)),
            "b": TensorParam("b", rng.standard_normal(layer.c_out))}


@pytest.mark.parametrize("batch", [1, 8, 24, 256])
@pytest.mark.parametrize("layer, in_shape", CASES)
def test_kernel_is_bit_identical_to_per_tap_reference(layer, in_shape, batch):
    rng = np.random.default_rng(batch)
    P = _params(layer, rng)
    P_ref = {k: TensorParam(k, v.values.copy()) for k, v in P.items()}
    x = rng.standard_normal((batch,) + in_shape)
    ref_fwd, ref_bwd = REFERENCE[layer.kind]

    y, _, rec = layers.forward(layer, P, x)
    y_ref, rec_ref = ref_fwd(x, P_ref["W"].values, P_ref["b"].values, layer)
    assert np.array_equal(y, y_ref)

    gy = rng.standard_normal(y.shape)
    gx, _ = layers.backward(layer, P, rec, gy)
    gx_ref = ref_bwd(gy, rec_ref, P_ref, layer)
    assert gx.shape == x.shape
    assert np.array_equal(gx, gx_ref)
    assert np.array_equal(P["W"].grad, P_ref["W"].grad)
    assert np.array_equal(P["b"].grad, P_ref["b"].grad)


@pytest.mark.parametrize("layer, in_shape", CASES)
def test_record_keeps_the_input_layout_the_traced_bench_reads(layer, in_shape):
    # bench/spans.py reads the conv input shape from rec[1] and the deconv
    # input from rec[0] as (B, H, W, C)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2,) + in_shape)
    _, _, rec = layers.forward(layer, _params(layer, rng), x)
    if layer.kind == "conv2d":
        assert rec[1] == x.shape
    else:
        assert np.array_equal(rec[0], x.transpose(0, 2, 3, 1))


@pytest.mark.parametrize("layer, in_shape", CASES)
def test_record_holds_the_input_itself_not_a_copy(layer, in_shape):
    # the caller already holds the input, so a tape that copied it would hold
    # it twice
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2,) + in_shape)
    _, _, rec = layers.forward(layer, _params(layer, rng), x)
    assert np.shares_memory(rec[0], x)


# --- any geometry, against the padded-NHWC glue with contiguous windows ---
# The glue the phase layout replaced: pad into one (B, H, W, C) array and copy
# each strided tap window out of it. Each window is made contiguous
# explicitly; a plain reshape returns a strided view for some geometries, and
# BLAS then sums in another order.

def glue_conv2d(x, gy, W, b, L):
    B, C, H, Wd = x.shape
    ho, wo = gy.shape[2], gy.shape[3]
    p, s = L.pad, L.stride
    xp_t = np.zeros((B, H + 2 * p, Wd + 2 * p, C))
    xp_t[:, p:p + H, p:p + Wd, :] = x.transpose(0, 2, 3, 1)
    w_fwd = np.ascontiguousarray(W.transpose(2, 3, 1, 0))
    w_bwd = np.ascontiguousarray(W.transpose(2, 3, 0, 1))
    gy_flat = np.ascontiguousarray(gy.transpose(0, 2, 3, 1)).reshape(-1, L.c_out)
    y = np.empty((B * ho * wo, L.c_out))
    y[...] = b
    gW = np.zeros_like(W)
    gxp_t = np.zeros_like(xp_t)
    for di in range(L.kernel):
        for dj in range(L.kernel):
            win = (slice(None), slice(di, di + s * ho, s), slice(dj, dj + s * wo, s))
            xs = np.ascontiguousarray(xp_t[win]).reshape(-1, C)
            y += xs @ w_fwd[di, dj]
            gW[:, :, di, dj] += (xs.T @ gy_flat).T
            gxp_t[win] += (gy_flat @ w_bwd[di, dj]).reshape(B, ho, wo, C)
    gx = np.ascontiguousarray(gxp_t[:, p:p + H, p:p + Wd, :].transpose(0, 3, 1, 2))
    return (np.ascontiguousarray(y.reshape(B, ho, wo, -1).transpose(0, 3, 1, 2)),
            gx, gW, gy_flat.sum(0))


def glue_deconv2d(x, gy, W, b, L):
    B, C, H, Wd = x.shape
    ho, wo = gy.shape[2], gy.shape[3]
    p, s = L.pad, L.stride
    x_flat = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, C)
    w_fwd = np.ascontiguousarray(W.transpose(2, 3, 0, 1))
    w_bwd = np.ascontiguousarray(W.transpose(2, 3, 1, 0))
    full_t = np.zeros((B, ho + 2 * p, wo + 2 * p, L.c_out))
    gfull_t = np.zeros_like(full_t)
    gfull_t[:, p:p + ho, p:p + wo, :] = gy.transpose(0, 2, 3, 1)
    gW = np.zeros_like(W)
    gx = np.zeros((B * H * Wd, C))
    for di in range(L.kernel):
        for dj in range(L.kernel):
            win = (slice(None), slice(di, di + s * H, s), slice(dj, dj + s * Wd, s))
            full_t[win] += (x_flat @ w_fwd[di, dj]).reshape(B, H, Wd, L.c_out)
            gs = np.ascontiguousarray(gfull_t[win]).reshape(-1, L.c_out)
            gW[:, :, di, dj] += x_flat.T @ gs
            gx += gs @ w_bwd[di, dj]
    y = np.ascontiguousarray(full_t[:, p:p + ho, p:p + wo, :].transpose(0, 3, 1, 2))
    y += b[:, None, None]
    return (y, np.ascontiguousarray(gx.reshape(B, H, Wd, C).transpose(0, 3, 1, 2)),
            gW, gy.sum((0, 2, 3)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), deconv=st.booleans(), kernel=st.integers(1, 3),
       stride=st.integers(1, 3), pad=st.integers(0, 2),
       h=st.sampled_from([1, 3, 5, 7, 9]), w=st.sampled_from([1, 3, 5, 7, 9]),
       batch=st.integers(1, 5), c_in=st.integers(1, 4), c_out=st.integers(1, 4),
       need_input_grad=st.booleans(), seed=st.integers(0, 2**16))
def test_any_geometry_gives_the_bits_of_the_contiguous_window_glue(
        data, deconv, kernel, stride, pad, h, w, batch, c_in, c_out, need_input_grad, seed):
    if deconv:
        out_pad = (data.draw(st.integers(0, stride - 1)), data.draw(st.integers(0, stride - 1)))
        layer = Deconv2d(c_in, c_out, kernel, stride, pad, out_pad)
        shape_of = lambda: deconv_shape((c_in, h, w), kernel, stride, pad, out_pad, c_out)
    else:
        layer = Conv2d(c_in, c_out, kernel, stride, pad)
        shape_of = lambda: conv_shape((c_in, h, w), kernel, stride, pad, c_out)
    try:
        out_shape = shape_of()
    except ContractError:
        assume(False)
    rng = np.random.default_rng(seed)
    P = _params(layer, rng)
    x = rng.standard_normal((batch, c_in, h, w))
    gy = rng.standard_normal((batch,) + out_shape)
    if deconv:
        need_input_grad = True        # the deconv always returns its input grad
        ref = glue_deconv2d(x, gy, P["W"].values, P["b"].values, layer)
    else:
        ref = glue_conv2d(x, gy, P["W"].values, P["b"].values, layer)

    y, _, rec = layers.forward(layer, P, x)
    gx, _ = layers.backward(layer, P, rec, gy, need_input_grad)
    assert np.array_equal(y, ref[0])
    if need_input_grad:
        assert gx.shape == x.shape
        assert np.array_equal(gx, ref[1])
    else:
        assert gx is None
    assert np.array_equal(P["W"].grad, ref[2])
    assert np.array_equal(P["b"].grad, ref[3])


def test_tapes_replayed_in_reverse_give_the_grads_of_interleaved_calls():
    # estimator ticks keep conv/deconv tapes that the BPTT replays later, so a
    # record must share no memory with a later call of the same layers
    in_shape = (2, 7, 9)
    net = LayerStack([Conv2d(2, 4, 3, 2, 1), Elu(),
                      Deconv2d(4, 2, 3, 2, 1, mirror_out_pad(in_shape[1:], 3, 2, 1))],
                     in_shape, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    xs = [rng.standard_normal((3,) + in_shape) for _ in range(3)]
    gys = [rng.standard_normal((3,) + in_shape) for _ in range(3)]

    def grads(tape, gy):
        net.zero_grads()
        gx, _ = net.backward(tape, gy)
        return [gx] + [p.grad.copy() for p in net.params()]

    interleaved = [grads(net.forward(x)[2], gy) for x, gy in zip(xs, gys)]
    tapes = [net.forward(x)[2] for x in xs]
    replayed = {i: grads(tapes[i], gys[i]) for i in reversed(range(3))}
    for i in range(3):
        for a, b in zip(replayed[i], interleaved[i]):
            assert np.array_equal(a, b)
