"""Tests for activation layers, the embedding layer and the loss functions."""

import numpy as np
import pytest

from repro.nn import (Embedding, Flatten, ReLU, Sigmoid, Tanh, accuracy, sigmoid,
                      softmax, softmax_cross_entropy)


class TestActivations:
    def test_relu_clips_negatives(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_backward_masks_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 3.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    def test_tanh_range(self):
        layer = Tanh()
        out = layer.forward(np.array([[-100.0, 0.0, 100.0]]))
        assert np.all(np.abs(out) <= 1.0)

    def test_tanh_gradient(self):
        layer = Tanh()
        out = layer.forward(np.array([[0.5]]))
        grad = layer.backward(np.array([[1.0]]))
        np.testing.assert_allclose(grad, 1.0 - out ** 2)

    def test_sigmoid_layer_matches_function(self):
        layer = Sigmoid()
        x = np.array([[-2.0, 0.0, 2.0]])
        np.testing.assert_allclose(layer.forward(x), sigmoid(x))

    def test_sigmoid_stable_for_large_inputs(self):
        values = sigmoid(np.array([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(1.0)

    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).standard_normal((5, 7)))
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(5))

    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestEmbedding:
    def test_lookup_shape(self):
        layer = Embedding(10, 4, name="e")
        out = layer.forward(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_rejects_float_inputs(self):
        layer = Embedding(10, 4, name="e")
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 2)))

    def test_rejects_out_of_range_tokens(self):
        layer = Embedding(5, 4, name="e")
        with pytest.raises(ValueError):
            layer.forward(np.array([[6]]))

    def test_backward_accumulates_per_token(self):
        layer = Embedding(5, 2, name="e")
        layer.zero_grad()
        layer.forward(np.array([[0, 0, 1]]))
        layer.backward(np.ones((1, 3, 2)))
        np.testing.assert_allclose(layer.grads["W"][0], [2.0, 2.0])
        np.testing.assert_allclose(layer.grads["W"][1], [1.0, 1.0])
        np.testing.assert_allclose(layer.grads["W"][2], [0.0, 0.0])


class TestLosses:
    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss < 1e-4
        assert grad.shape == logits.shape

    def test_cross_entropy_uniform_prediction(self):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(5), rel=1e-6)

    def test_cross_entropy_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 3])
        loss, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(3):
            for j in range(4):
                plus = logits.copy()
                plus[i, j] += eps
                minus = logits.copy()
                minus[i, j] -= eps
                numeric[i, j] = (softmax_cross_entropy(plus, labels)[0]
                                 - softmax_cross_entropy(minus, labels)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_cross_entropy_sequence_logits(self):
        logits = np.zeros((2, 3, 4))
        labels = np.zeros((2, 3), dtype=int)
        loss, grad = softmax_cross_entropy(logits, labels)
        assert grad.shape == logits.shape
        assert loss == pytest.approx(np.log(4), rel=1e-6)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)
