"""Layer-kernel semantics: hand-derived cases, tape discipline, contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from redloco.errors import ContractError
from redloco.nn import Conv2d, Elu, Flatten, GruCell, LayerStack, Linear, Tanh
from redloco.nn import layers


def make_stack(descs, shape, seed=0):
    return LayerStack(descs, shape, np.random.default_rng(seed))


class TestForwardSemantics:
    def test_linear_identity_weights_zero_bias_passes_input_through(self):
        s = make_stack([Linear(4, 4)], (4,))
        p = s.layer_params[0]
        p["W"].values[...] = np.eye(4)
        p["b"].values[...] = 0.0
        x = np.random.default_rng(1).standard_normal((3, 4))
        y, _, _ = s.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_zero_initialized_gru_maps_zero_input_and_hidden_to_zero(self):
        # gates sit at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0
        s = make_stack([GruCell(3, 5)], (3,))
        for p in s.params():
            p.values[...] = 0.0
        y, h_new, _ = s.forward(np.zeros((2, 3)), np.zeros((2, 5)))
        np.testing.assert_array_equal(y, np.zeros((2, 5)))
        np.testing.assert_array_equal(h_new, np.zeros((2, 5)))

    def test_forward_is_referentially_transparent(self):
        s = make_stack([Linear(4, 6), Elu(), GruCell(6, 5), Linear(5, 2)], (4,), seed=9)
        x = np.random.default_rng(10).standard_normal((3, 4))
        h = np.random.default_rng(11).standard_normal((3, 5))
        y1, h1, _ = s.forward(x, h)
        y2, h2, _ = s.forward(x, h)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(h1, h2)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gru_hidden_stays_inside_unit_ball_from_zero_init(self, seed):
        rng = np.random.default_rng(seed)
        s = LayerStack([GruCell(3, 4)], (3,), rng)
        h = np.zeros((2, 4))
        for _ in range(20):
            x = rng.standard_normal((2, 3)) * 3.0
            _, h, _ = s.forward(x, h)
        assert np.abs(h).max() <= 1.0 + 1e-12


class TestBackwardSemantics:
    def test_zero_output_grad_accumulates_nothing(self):
        s = make_stack([Linear(3, 4), Tanh(), GruCell(4, 5)], (3,), seed=12)
        x = np.random.default_rng(13).standard_normal((2, 3))
        h = np.zeros((2, 5))
        _, _, tape = s.forward(x, h)
        gx, gh = s.backward(tape, np.zeros((2, 5)))
        np.testing.assert_array_equal(gx, np.zeros_like(x))
        np.testing.assert_array_equal(gh, np.zeros_like(h))
        for p in s.params():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_single_linear_layer_grads_match_hand_differentiation(self):
        s = make_stack([Linear(3, 2)], (3,), seed=14)
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7]])
        _, _, tape = s.forward(x)
        s.backward(tape, g)
        p = s.layer_params[0]
        np.testing.assert_allclose(p["b"].grad, g[0], atol=1e-15)
        np.testing.assert_allclose(p["W"].grad, np.outer(x[0], g[0]), atol=1e-15)

    def test_backward_called_twice_doubles_grads(self):
        s = make_stack([Linear(3, 3), Elu(), Linear(3, 2)], (3,), seed=15)
        x = np.random.default_rng(16).standard_normal((4, 3))
        g = np.random.default_rng(17).standard_normal((4, 2))
        _, _, tape = s.forward(x)
        s.backward(tape, g)
        once = [p.grad.copy() for p in s.params()]
        s.backward(tape, g)
        for p, g1 in zip(s.params(), once):
            np.testing.assert_allclose(p.grad, 2.0 * g1, rtol=1e-12)

    def test_forward_backward_leave_parameter_values_untouched(self):
        s = make_stack([Linear(3, 4), Tanh(), GruCell(4, 4), Linear(4, 2)], (3,), seed=18)
        before = [p.values.copy() for p in s.params()]
        x = np.random.default_rng(19).standard_normal((2, 3))
        _, _, tape = s.forward(x, np.zeros((2, 4)))
        s.backward(tape, np.random.default_rng(20).standard_normal((2, 2)))
        for p, b in zip(s.params(), before):
            np.testing.assert_array_equal(p.values, b)


    @pytest.mark.parametrize("descs,shape", [
        ([Conv2d(2, 3, 3, 2, 1), Elu(), Flatten(), Linear(3 * 3 * 4, 2)], (2, 6, 8)),
        ([Linear(3, 4), Elu(), Linear(4, 2)], (3,)),
    ], ids=["conv_first", "linear_first"])
    def test_skipping_the_input_grad_leaves_parameter_grads_bit_identical(self, descs,
                                                                          shape):
        s = make_stack(descs, shape, seed=21)
        x = np.random.default_rng(22).standard_normal((5,) + shape)
        g = np.random.default_rng(23).standard_normal((5, 2))
        _, _, tape = s.forward(x)
        gx, _ = s.backward(tape, g)
        assert gx.shape == x.shape
        full = [p.grad.copy() for p in s.params()]
        s.zero_grads()
        gx, _ = s.backward(tape, g, need_input_grad=False)
        assert gx is None
        for p, want in zip(s.params(), full):
            assert p.grad.tobytes() == want.tobytes()


def reference_elu_fwd(x):
    """The two-branch ELU (alpha 1). The kernel in `layers` must return the
    same bits, signed zeros included."""
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def reference_elu_bwd(x, y, gy):
    return gy * np.where(x > 0, 1.0, y + 1.0)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
               800.0, -800.0, 1.0, -1.0, 37.0, -37.0]


def elu_operands():
    values = st.one_of(st.sampled_from(EDGE_VALUES),
                       st.floats(-800.0, 800.0, allow_nan=False, allow_subnormal=True))
    shapes = st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 9)),
                       st.tuples(st.integers(1, 3), st.integers(1, 3),
                                 st.integers(1, 4), st.integers(1, 4)))
    return shapes.flatmap(lambda shape: st.tuples(arrays(np.float64, shape, elements=values),
                                                  arrays(np.float64, shape, elements=values)))


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestEluKernel:
    @settings(max_examples=300, deadline=None)
    @given(elu_operands())
    @example((np.array([[-0.0, 0.0]]), np.array([[1.0, -0.0]])))   # -0.0 -> +0.0
    def test_forward_and_backward_return_the_bits_of_the_two_branch_form(self, operands):
        x, gy = operands
        y, _, rec = layers.forward(Elu(), {}, x)
        want_y = reference_elu_fwd(x)
        assert same_bits(y, want_y)
        gx, _ = layers.backward(Elu(), {}, rec, gy)
        assert same_bits(gx, reference_elu_bwd(x, want_y, gy))


class TestContracts:
    def test_shape_mismatch_reports_both_shapes(self):
        s = make_stack([Linear(3, 2)], (3,))
        with pytest.raises(ContractError, match=r"\(4,\).*\(3,\)"):
            s.forward(np.zeros((1, 4)))

    def test_non_finite_input_rejected(self):
        s = make_stack([Linear(3, 2)], (3,))
        x = np.zeros((1, 3))
        x[0, 0] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            s.forward(x)

    def test_hidden_required_iff_stack_has_gru(self):
        gru = make_stack([GruCell(3, 4)], (3,))
        plain = make_stack([Linear(3, 2)], (3,))
        with pytest.raises(ContractError):
            gru.forward(np.zeros((1, 3)))
        with pytest.raises(ContractError):
            plain.forward(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_tape_from_another_stack_is_rejected(self):
        a = make_stack([Linear(3, 2)], (3,), seed=1)
        b = make_stack([Linear(3, 2)], (3,), seed=2)
        _, _, tape = a.forward(np.zeros((1, 3)))
        with pytest.raises(ContractError, match="different stack"):
            b.backward(tape, np.zeros((1, 2)))

    def test_mismatched_output_grad_shape_rejected(self):
        s = make_stack([Linear(3, 2)], (3,))
        _, _, tape = s.forward(np.zeros((2, 3)))
        with pytest.raises(ContractError):
            s.backward(tape, np.zeros((2, 3)))

    def test_two_gru_cells_rejected(self):
        with pytest.raises(ContractError, match="one gru_cell"):
            make_stack([GruCell(3, 3), GruCell(3, 3)], (3,))
