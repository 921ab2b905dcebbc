"""Unit tests for the recurrent layers (LSTM, LastTimestep)."""

import numpy as np
import pytest

from repro.nn import LSTM, LastTimestep


def numeric_gradient(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = f()
        x[idx] = original - eps
        minus = f()
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestLSTMCommon:
    def test_output_shape(self):
        layer = LSTM(3, 5, name="r")
        out = layer.forward(np.ones((2, 7, 3)))
        assert out.shape == (2, 7, 5)

    def test_rejects_wrong_input_dim(self):
        layer = LSTM(3, 5, name="r")
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 7, 4)))

    def test_n_units_is_hidden_dim(self):
        assert LSTM(3, 5, name="r").n_units == 5

    def test_gate_zeroes_hidden_units(self):
        layer = LSTM(3, 4, name="r")
        gate = np.array([1.0, 0.0, 1.0, 0.0])
        layer.set_unit_gate(gate)
        out = layer.forward(np.random.default_rng(0).standard_normal((2, 5, 3)))
        assert np.all(out[:, :, 1] == 0.0)
        assert np.all(out[:, :, 3] == 0.0)

    def test_backward_returns_input_shaped_gradient(self):
        layer = LSTM(3, 4, name="r")
        x = np.random.default_rng(0).standard_normal((2, 5, 3))
        out = layer.forward(x)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_unit_weight_magnitude_positive(self):
        layer = LSTM(3, 4, name="r")
        magnitude = layer.unit_weight_magnitude()
        assert magnitude.shape == (4,)
        assert np.all(magnitude >= 0)

    def test_flops_scale_with_sequence_length(self):
        layer = LSTM(3, 4, name="r")
        short, _ = layer.flops_per_example((5, 3))
        long, _ = layer.flops_per_example((10, 3))
        assert long == 2 * short


class TestLSTMGradients:
    def test_wx_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        layer = LSTM(2, 3, name="l", rng=rng)
        x = rng.standard_normal((2, 3, 2))
        target = rng.standard_normal((2, 3, 3))

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(out - target)
        numeric = numeric_gradient(loss, layer.params["Wx"])
        np.testing.assert_allclose(layer.grads["Wx"], numeric, atol=1e-5)

    def test_wh_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        layer = LSTM(2, 2, name="l", rng=rng)
        x = rng.standard_normal((1, 4, 2))
        target = rng.standard_normal((1, 4, 2))

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(out - target)
        numeric = numeric_gradient(loss, layer.params["Wh"])
        np.testing.assert_allclose(layer.grads["Wh"], numeric, atol=1e-5)

    def test_b_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        layer = LSTM(2, 3, name="l", rng=rng)
        x = rng.standard_normal((2, 3, 2))
        target = rng.standard_normal((2, 3, 3))

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(out - target)
        numeric = numeric_gradient(loss, layer.params["b"])
        np.testing.assert_allclose(layer.grads["b"], numeric, atol=1e-5)

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        layer = LSTM(2, 3, name="l", rng=rng)
        x = rng.standard_normal((2, 3, 2))
        target = rng.standard_normal((2, 3, 3))

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        grad_x = layer.backward(out - target)
        np.testing.assert_allclose(grad_x, numeric_gradient(loss, x),
                                   atol=1e-5)

    def test_forget_bias_initialized_to_one(self):
        layer = LSTM(2, 3, name="l")
        np.testing.assert_allclose(layer.params["b"][3:6], 1.0)

    def test_expand_unit_mask_blocks(self):
        layer = LSTM(2, 3, name="l")
        masks = layer.expand_unit_mask(np.array([1.0, 0.0, 1.0]))
        # columns of the pruned unit are zero in every one of the 4 gate blocks
        for block in range(4):
            assert np.all(masks["Wx"][:, block * 3 + 1] == 0)
            assert np.all(masks["b"][block * 3 + 1] == 0)
        # the recurrent row of the pruned unit is zero as well
        assert np.all(masks["Wh"][1] == 0)


class TestLastTimestep:
    def test_selects_final_step(self):
        layer = LastTimestep(name="last")
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out, x[:, -1])

    def test_backward_scatters_to_final_step(self):
        layer = LastTimestep(name="last")
        x = np.zeros((2, 3, 4))
        layer.forward(x)
        grad = layer.backward(np.ones((2, 4)))
        assert grad.shape == x.shape
        assert np.all(grad[:, -1] == 1.0)
        assert np.all(grad[:, :-1] == 0.0)
