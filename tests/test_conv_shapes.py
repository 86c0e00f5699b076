"""Shape-arithmetic golden values for the conv/deconv geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redloco.config import SelectorConfig
from redloco.errors import ContractError
from redloco.nn import conv_shape, deconv_shape, mirror_out_pad
from redloco.selector import build_autoencoder


def test_full_frame_halves_under_kernel4_stride2_pad1():
    assert conv_shape((2, 48, 64), 4, 2, 1, out_channels=8) == (8, 24, 32)


def test_kernel1_stride1_pad0_preserves_shape():
    assert conv_shape((3, 7, 9), 1, 1, 0) == (3, 7, 9)


def test_desk_frame_chain_through_three_stride2_layers():
    # pinned chain for the 12x16 vision embedding: spatial ends at (2, 2)
    s = conv_shape((2, 12, 16), 3, 2, 1, 8)
    assert s == (8, 6, 8)
    s = conv_shape(s, 3, 2, 1, 16)
    assert s == (16, 3, 4)
    s = conv_shape(s, 3, 2, 1, 32)
    assert s == (32, 2, 2)


def test_paper_frame_chain_through_three_stride2_layers():
    s = (2, 48, 64)
    for c in (8, 16, 32):
        s = conv_shape(s, 3, 2, 1, c)
    assert s == (32, 6, 8)


def test_collapsing_output_is_a_contract_error():
    with pytest.raises(ContractError):
        conv_shape((1, 2, 2), 5, 2, 0)


@given(st.integers(2, 16), st.integers(2, 16), st.integers(2, 4),
       st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_mirrored_deconv_inverts_conv(h, w, k, s, p):
    try:
        _, ho, wo = conv_shape((1, h, w), k, s, p)
    except ContractError:
        return
    if (h + 2 * p - k) < 0 or (w + 2 * p - k) < 0:
        return
    try:
        op = mirror_out_pad((h, w), k, s, p)
    except ContractError:
        return
    assert deconv_shape((1, ho, wo), k, s, p, op) == (1, h, w)


@pytest.mark.parametrize("hw", [(12, 16), (48, 64)])
def test_autoencoder_reconstruction_shape_matches_input(hw):
    ae = build_autoencoder(SelectorConfig(), *hw, np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(0.1, 2.0, (2, 2) + hw)
    y, _, _ = ae.forward(x)
    assert y.shape == x.shape


def test_autoencoder_bottleneck_is_narrower_than_input():
    cfg = SelectorConfig()
    assert cfg.ae_bottleneck < 2 * 12 * 16
    assert cfg.ae_bottleneck < 2 * 48 * 64
    with pytest.raises(ContractError):
        build_autoencoder(SelectorConfig(ae_bottleneck=2 * 4 * 4),
                          4, 4, np.random.default_rng(0))
