"""Tests for the flat-arena SGD step and the parameter-dictionary helpers."""

import numpy as np
import pytest

from repro.nn import Arena, BatchedSGD
from repro.nn import params as P


def _arena(*rows):
    """A one-key arena holding one ``(C, n)`` block, a client per row."""
    return Arena.of({"w": np.array(rows, dtype=np.float64)})


class TestBatchedSGD:
    def test_basic_step(self):
        weights = _arena([1.0, 2.0])
        BatchedSGD(weights, 0.1).step(_arena([1.0, 1.0]))
        np.testing.assert_allclose(weights["w"], [[0.9, 1.9]])

    def test_momentum_accumulates(self):
        weights = _arena([0.0])
        opt = BatchedSGD(weights, 0.1, momentum=0.9)
        opt.step(_arena([1.0]))
        opt.step(_arena([1.0]))
        # second step uses velocity 0.9 * 1 + 1 = 1.9
        np.testing.assert_allclose(weights["w"], [[-0.1 - 0.19]])

    def test_clip_norm_limits_each_client_on_its_own(self):
        weights = _arena([0.0, 0.0], [0.0, 0.0])
        BatchedSGD(weights, 1.0, clip_norm=1.0).step(
            _arena([3.0, 4.0], [0.3, 0.4]))
        np.testing.assert_allclose(np.linalg.norm(weights["w"][0]), 1.0,
                                   rtol=1e-6)
        np.testing.assert_array_equal(weights["w"][1], [-0.3, -0.4])

    def test_clip_norm_spans_every_key(self):
        weights = Arena.of({"a": np.zeros((1, 1)), "b": np.zeros((1, 1))})
        BatchedSGD(weights, 1.0, clip_norm=1.0).step(
            Arena.of({"a": np.array([[3.0]]), "b": np.array([[4.0]])}))
        # the norm is over both keys together (5), not each on its own
        np.testing.assert_allclose(weights["a"], [[-0.6]])
        np.testing.assert_allclose(weights["b"], [[-0.8]])

    def test_clip_norm_leaves_small_gradients_unscaled(self):
        clipped, plain = _arena([1.0, 2.0]), _arena([1.0, 2.0])
        BatchedSGD(clipped, 0.1, clip_norm=10.0).step(_arena([0.1, 0.2]))
        BatchedSGD(plain, 0.1).step(_arena([0.1, 0.2]))
        np.testing.assert_array_equal(clipped["w"], plain["w"])

    def test_per_client_learning_rates(self):
        weights = _arena([1.0, 1.0], [1.0, 1.0])
        BatchedSGD(weights, np.array([0.1, 0.5])).step(
            _arena([1.0, 2.0], [1.0, 2.0]))
        np.testing.assert_allclose(weights["w"], [[0.9, 0.8], [0.5, 0.0]])

    @pytest.mark.parametrize("lr,kwargs", [
        (0.0, {}), (-1.0, {}),
        (np.array([0.1, 0.0]), {}), (np.array([[0.1, 0.1]]), {}),
        (0.1, {"momentum": 1.0}), (0.1, {"momentum": -0.1}),
        (0.1, {"clip_norm": 0.0}), (0.1, {"clip_norm": -1.0}),
    ], ids=["zero-lr", "negative-lr", "non-positive-client-lr",
            "2-d-client-lr", "momentum-one", "negative-momentum",
            "zero-clip", "negative-clip"])
    def test_invalid_arguments(self, lr, kwargs):
        with pytest.raises(ValueError):
            BatchedSGD(_arena([0.0], [0.0]), lr, **kwargs)


class TestParamHelpers:
    def setup_method(self):
        self.a = {"x": np.array([1.0, 2.0]), "y": np.array([[3.0]])}
        self.b = {"x": np.array([0.5, 0.5]), "y": np.array([[1.0]])}

    def test_copy_is_deep(self):
        copied = P.copy_params(self.a)
        copied["x"][0] = 99.0
        assert self.a["x"][0] == 1.0

    def test_add_subtract_roundtrip(self):
        total = P.add(self.a, self.b)
        back = P.subtract(total, self.b)
        np.testing.assert_allclose(back["x"], self.a["x"])
        np.testing.assert_allclose(back["y"], self.a["y"])

    def test_scale(self):
        scaled = P.scale(self.a, 2.0)
        np.testing.assert_allclose(scaled["x"], [2.0, 4.0])

    def test_multiply(self):
        product = P.multiply(self.a, self.b)
        np.testing.assert_allclose(product["x"], [0.5, 1.0])

    def test_weighted_average_normalizes_weights(self):
        avg = P.weighted_average([self.a, self.b], [2.0, 2.0])
        np.testing.assert_allclose(avg["x"], [0.75, 1.25])

    def test_weighted_average_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            P.weighted_average([self.a], [0.0])
        with pytest.raises(ValueError):
            P.weighted_average([], [])
        with pytest.raises(ValueError):
            P.weighted_average([self.a, self.b], [1.0])

    def test_mismatched_keys_raise(self):
        with pytest.raises(KeyError):
            P.add(self.a, {"x": np.zeros(2)})

    def test_norms_and_counts(self):
        assert P.num_parameters(self.a) == 3
        assert P.l2_norm({"x": np.array([3.0, 4.0])}) == pytest.approx(5.0)
        assert P.l2_distance(self.a, self.a) == pytest.approx(0.0)
        assert P.count_nonzero({"x": np.array([0.0, 1.0, 2.0])}) == 2

    def test_flatten_sorted_by_key(self):
        flat = P.flatten({"b": np.array([2.0]), "a": np.array([1.0])})
        np.testing.assert_allclose(flat, [1.0, 2.0])

    def test_zeros_like(self):
        zeros = P.zeros_like(self.a)
        assert all(np.all(v == 0) for v in zeros.values())

    def test_add_inplace_mutates_left(self):
        left = P.copy_params(self.a)
        out = P.add_(left, self.b)
        assert out is left
        np.testing.assert_array_equal(left["x"], P.add(self.a, self.b)["x"])

    def test_scale_inplace_mutates(self):
        params = P.copy_params(self.a)
        out = P.scale_(params, 2.0)
        assert out is params
        np.testing.assert_array_equal(params["x"], [2.0, 4.0])


def _legacy_weighted_average(param_dicts, weights):
    """The pre-optimization implementation, kept verbatim as the oracle."""
    param_list = list(param_dicts)
    weight_list = [float(w) for w in weights]
    total = sum(weight_list)
    result = P.zeros_like(param_list[0])
    for params, weight in zip(param_list, weight_list):
        for key in result:
            result[key] += params[key] * (weight / total)
    return result


class TestWeightedAverageBitIdentity:
    """The in-place single-pass rewrite must keep every float64 bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_matches_legacy_bitwise(self, seed, count):
        rng = np.random.default_rng(seed)
        dicts = [{
            "w": rng.standard_normal((13, 7)) * 10.0 ** rng.integers(-6, 6),
            "b": rng.standard_normal(5),
            "scalar": rng.standard_normal(()),
        } for _ in range(count)]
        weights = rng.uniform(0.01, 100.0, size=count)
        expected = _legacy_weighted_average(dicts, weights)
        got = P.weighted_average(dicts, weights)
        for key in expected:
            # bit-for-bit, not allclose: the golden-history fixtures depend
            # on aggregation being exactly reproducible
            np.testing.assert_array_equal(got[key], expected[key])

    def test_accepts_a_generator_single_pass(self):
        dicts = [{"w": np.full(3, float(i))} for i in range(4)]
        weights = [1.0, 2.0, 3.0, 4.0]
        expected = _legacy_weighted_average(dicts, weights)
        got = P.weighted_average(iter(dicts), weights)
        np.testing.assert_array_equal(got["w"], expected["w"])

    def test_length_mismatch_detected_when_streaming(self):
        dicts = ({"w": np.ones(2)} for _ in range(3))
        with pytest.raises(ValueError, match="equal length"):
            P.weighted_average(dicts, [1.0, 1.0])

    def test_does_not_mutate_inputs(self):
        dicts = [{"w": np.ones(4)}, {"w": np.full(4, 2.0)}]
        P.weighted_average(dicts, [1.0, 3.0])
        np.testing.assert_array_equal(dicts[0]["w"], np.ones(4))
        np.testing.assert_array_equal(dicts[1]["w"], np.full(4, 2.0))
