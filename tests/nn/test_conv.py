"""Unit tests for Conv2d and the pooling layers."""

import numpy as np
import pytest

from repro.nn import AvgPool2d, Conv2d, MaxPool2d, Sequential
from repro.nn.batched import BatchedConv2d


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


class TestConvForward:
    def test_output_shape_with_padding(self):
        conv = Conv2d(2, 3, 3, padding=1, name="c")
        out = conv.forward(np.ones((4, 2, 8, 8)))
        assert out.shape == (4, 3, 8, 8)

    def test_output_shape_with_stride(self):
        conv = Conv2d(1, 2, 3, stride=2, name="c")
        out = conv.forward(np.ones((1, 1, 7, 7)))
        assert out.shape == (1, 2, 3, 3)

    def test_matches_manual_convolution(self):
        conv = Conv2d(1, 1, 2, name="c")
        conv.params["W"] = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
        conv.params["b"] = np.zeros(1)
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv.forward(x)
        # manual valid convolution (cross-correlation) at position (0, 0)
        expected00 = np.sum(x[0, 0, :2, :2] * conv.params["W"][0, 0])
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx(expected00)

    def test_rejects_wrong_channel_count(self):
        conv = Conv2d(2, 3, 3, name="c")
        with pytest.raises(ValueError):
            conv.forward(np.ones((1, 1, 8, 8)))


class TestKernelLargerThanInput:
    """A kernel that does not fit the padded input is refused by name."""

    MESSAGE = r"wide: input spatial size \(1, 3\) with padding 1 is smaller than the kernel 5"

    def test_forward(self):
        conv = Conv2d(3, 2, 5, padding=1, name="wide")
        with pytest.raises(ValueError, match=self.MESSAGE):
            conv.forward(np.ones((2, 3, 1, 3)))

    def test_batched_forward(self):
        batched = BatchedConv2d(Conv2d(3, 2, 5, padding=1, name="wide"), 2)
        with pytest.raises(ValueError, match=self.MESSAGE):
            batched.forward(np.ones((2, 4, 3, 1, 3)))

    def test_flops_per_example(self):
        conv = Conv2d(3, 2, 5, padding=1, name="wide")
        with pytest.raises(ValueError, match=self.MESSAGE):
            conv.flops_per_example((3, 1, 3))

    def test_padding_that_makes_it_fit_is_accepted(self):
        conv = Conv2d(3, 2, 5, padding=2, name="wide")
        assert conv.forward(np.ones((2, 3, 1, 3))).shape == (2, 2, 1, 3)
        assert conv.flops_per_example((3, 1, 3))[1] == (2, 1, 3)


class TestConvBackward:
    def test_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(1, 2, 3, padding=1, name="c", rng=rng)
        x = rng.standard_normal((2, 1, 5, 5))
        target = rng.standard_normal((2, 2, 5, 5))

        def loss():
            return 0.5 * float(np.sum((conv.forward(x) - target) ** 2))

        conv.zero_grad()
        out = conv.forward(x)
        conv.backward(out - target)
        numeric = numeric_gradient(loss, conv.params["W"])
        np.testing.assert_allclose(conv.grads["W"], numeric, atol=1e-4)

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(1, 1, 3, name="c", rng=rng)
        x = rng.standard_normal((1, 1, 5, 5))
        target = rng.standard_normal((1, 1, 3, 3))

        def loss():
            return 0.5 * float(np.sum((conv.forward(x) - target) ** 2))

        conv.zero_grad()
        out = conv.forward(x)
        grad_in = conv.backward(out - target)
        numeric = numeric_gradient(loss, x)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-4)


class TestConvUnits:
    def test_n_units_is_out_channels(self):
        assert Conv2d(1, 6, 3, name="c").n_units == 6

    def test_gate_zeroes_channels(self):
        conv = Conv2d(1, 3, 3, padding=1, name="c")
        conv.set_unit_gate(np.array([1.0, 0.0, 1.0]))
        out = conv.forward(np.ones((1, 1, 4, 4)))
        assert np.all(out[:, 1] == 0.0)

    def test_expand_unit_mask(self):
        conv = Conv2d(2, 3, 3, name="c")
        masks = conv.expand_unit_mask(np.array([0.0, 1.0, 0.0]))
        assert masks["W"].shape == conv.params["W"].shape
        assert np.all(masks["W"][0] == 0) and np.all(masks["W"][1] == 1)
        np.testing.assert_array_equal(masks["b"], [0, 1, 0])

    def test_flops_scale_with_spatial_size(self):
        conv = Conv2d(1, 4, 3, padding=1, name="c")
        small, _ = conv.flops_per_example((1, 8, 8))
        large, _ = conv.flops_per_example((1, 16, 16))
        assert large == 4 * small


class TestPooling:
    def test_maxpool_reduces_spatial_dims(self):
        pool = MaxPool2d(2, name="p")
        out = pool.forward(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_gradient_to_max(self):
        pool = MaxPool2d(2, name="p")
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4
        assert grad[0, 0, 1, 1] == 1.0  # position of max 5

    def test_maxpool_requires_divisible_dims(self):
        pool = MaxPool2d(3, name="p")
        with pytest.raises(ValueError):
            pool.forward(np.ones((1, 1, 4, 4)))

    def test_avgpool_values(self):
        pool = AvgPool2d(2, name="p")
        x = np.ones((1, 2, 4, 4))
        out = pool.forward(x)
        np.testing.assert_allclose(out, np.ones((1, 2, 2, 2)))

    def test_avgpool_backward_distributes_gradient(self):
        pool = AvgPool2d(2, name="p")
        pool.forward(np.ones((1, 1, 2, 2)))
        grad = pool.backward(np.array([[[[4.0]]]]))
        np.testing.assert_allclose(grad, np.ones((1, 1, 2, 2)))

    def test_pool_flops_and_shape(self):
        pool = MaxPool2d(2, name="p")
        flops, shape = pool.flops_per_example((3, 8, 8))
        assert flops == 0
        assert shape == (3, 4, 4)


@pytest.mark.parametrize("pool_type", [MaxPool2d, AvgPool2d])
class TestBadPoolingInput:
    """A shape the pool cannot tile is refused by name at the boundary."""

    def test_indivisible_spatial_dims_fail_the_shape_pass(self, pool_type):
        pool = pool_type(2, name="p")
        with pytest.raises(ValueError,
                           match=r"p: spatial dims \(7, 7\) must be divisible by 2"):
            pool.flops_per_example((3, 7, 7))

    def test_non_3d_example_shape_fails_the_shape_pass(self, pool_type):
        pool = pool_type(2, name="p")
        with pytest.raises(ValueError,
                           match=r"p: expected input shape \(C, H, W\), got \(8, 8\)"):
            pool.flops_per_example((8, 8))

    def test_non_4d_input_fails_forward(self, pool_type):
        pool = pool_type(2, name="p")
        with pytest.raises(ValueError,
                           match=r"p: expected input \(N, C, H, W\), got \(3, 4, 4\)"):
            pool.forward(np.ones((3, 4, 4)))

    def test_model_with_untileable_pool_fails_its_shape_pass(self, pool_type):
        model = Sequential([Conv2d(1, 2, 3, padding=1, name="c"),
                            pool_type(2, name="p")], input_shape=(1, 7, 7))
        with pytest.raises(ValueError, match="p: spatial dims"):
            model.flops_per_example()
