"""The data-movement kernels of ``repro.nn.conv`` against their predecessors.

``_im2col`` and ``MaxPool2d`` were rewritten for speed (a zeroed buffer
instead of ``np.pad``; ``k * k`` strided views instead of a window copy plus
``argmax`` / ``max`` / ``put_along_axis``).  The rewrites move data and never
compute, so the old implementations — kept here verbatim as reference
functions — must be reproduced bit for bit: equal values AND equal sign bits,
over exact ties (post-ReLU zeros), ``+-inf``, ``-0.0`` and NaN.

One documented exception: the old pooling forward returned
``np.max(windows)``, whose result for a window whose maximum is a tie between
``+0.0`` and ``-0.0`` depends on numpy's SIMD dispatch (it did not agree with
its own ``np.argmax``).  The new forward returns the element ``np.argmax``
selects.  The two are ``==`` everywhere and differ in the sign of zero only
on such windows — a difference the next affine layer erases — so sign bits
are compared wherever the reference is well defined, and the new output is
additionally pinned to ``windows[argmax]`` bit for bit.

Also here: ``backward(grad, input_grad=False)`` accumulates exactly the
gradients the default call does, on ``Sequential`` and ``BatchedModel``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_cnn, build_mlp
from repro.nn import (BatchedModel, MaxPool2d, softmax_cross_entropy,
                      stack_param_dicts)
from repro.nn.conv import _im2col
from repro.sparsity import gates_from_pattern, random_pattern

SPECIALS = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 2.0,
                     np.inf, -np.inf, np.nan])


# ------------------------------------------------- reference (old) kernels
def _reference_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h = (ph - kernel) // stride + 1
    out_w = (pw - kernel) // stride + 1
    strides = x.strides
    shape = (n, c, out_h, out_w, kernel, kernel)
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=shape,
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride,
                 strides[2], strides[3]),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel * kernel)
    return np.ascontiguousarray(cols), out_h, out_w


def _reference_windows(x, k):
    n, c, h, w = x.shape
    reshaped = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
    return reshaped.reshape(n, c, h // k, w // k, k * k)


def _reference_pool_forward(x, k):
    windows = _reference_windows(x, k)
    return np.max(windows, axis=-1), np.argmax(windows, axis=-1)


def _reference_pool_backward(argmax, grad_out, x_shape, k):
    n, c, h, w = x_shape
    grad_windows = np.zeros((n, c, h // k, w // k, k * k), dtype=np.float64)
    np.put_along_axis(grad_windows, argmax[..., None],
                      grad_out[..., None], axis=-1)
    grad_x = grad_windows.reshape(n, c, h // k, w // k, k, k)
    grad_x = grad_x.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return grad_x


# ----------------------------------------------------------------- helpers
def _assert_same_bits(actual, expected):
    """Equal shape, dtype and every bit — values, sign of zero, NaN."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))
    assert np.ascontiguousarray(actual).tobytes() == \
        np.ascontiguousarray(expected).tobytes()


def _awkward_array(shape, seed, *, special_share=0.5):
    """Normal noise with a share of ties, signed zeros, infinities and NaN."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=shape)
    special = rng.choice(SPECIALS, size=shape)
    return np.where(rng.random(shape) < special_share, special, noise)


def _post_relu(shape, seed):
    """What a pooling layer really sees: ``x * (x > 0)`` leaves ``-0.0`` for
    every negative input, and gated-off channels are zeros of either sign."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    x[:, 0] *= 0.0          # a gated-off channel: +-0.0 by the sign of x
    return x * (x > 0)


# ----------------------------------------------------------------- im2col
class TestIm2col:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 3),
           extra_h=st.integers(0, 5), extra_w=st.integers(0, 5),
           kernel=st.sampled_from([2, 3]), stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**16))
    def test_matches_padded_reference_bit_for_bit(self, n, c, extra_h, extra_w,
                                                  kernel, stride, padding, seed):
        x = _awkward_array((n, c, kernel + extra_h, kernel + extra_w), seed)
        cols, out_h, out_w = _im2col(x, kernel, stride, padding)
        ref_cols, ref_h, ref_w = _reference_im2col(x, kernel, stride, padding)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert cols.flags.c_contiguous
        _assert_same_bits(cols, ref_cols)

    def test_padding_border_is_positive_zero(self):
        x = np.full((1, 1, 2, 2), -0.0)
        cols, _, _ = _im2col(x, 3, 1, 1)
        # each of the 4 patches holds the 4 real pixels (-0.0) and 5 padding
        # slots, which must be +0.0 exactly as np.pad wrote them
        assert np.signbit(cols).sum(axis=1).tolist() == [4, 4, 4, 4]
        _assert_same_bits(cols, _reference_im2col(x, 3, 1, 1)[0])


# ---------------------------------------------------------------- max-pool
def _check_pool(x, k, grad_seed):
    layer = MaxPool2d(k)
    out = layer.forward(x, train=True)
    ref_out, ref_argmax = _reference_pool_forward(x, k)
    windows = _reference_windows(x, k)

    # the winner is np.argmax's (first maximum in row-major window order,
    # first NaN if any) and the output is that very element
    assert np.array_equal(layer._index, ref_argmax)
    selected = np.take_along_axis(windows, ref_argmax[..., None], axis=-1)[..., 0]
    _assert_same_bits(out, selected)

    # against np.max: equal everywhere; same sign bit wherever np.max is
    # well defined, i.e. unless the maximal elements are zeros of both signs
    assert np.array_equal(out, ref_out, equal_nan=True)
    is_max = windows == ref_out[..., None]
    negative = np.signbit(windows)
    mixed_zero_tie = ((ref_out == 0.0) & np.any(is_max & negative, axis=-1)
                      & np.any(is_max & ~negative, axis=-1))
    assert np.array_equal(np.signbit(out)[~mixed_zero_tie],
                          np.signbit(ref_out)[~mixed_zero_tie])

    # an evaluation forward returns the same bits
    _assert_same_bits(MaxPool2d(k).forward(x, train=False), out)

    grad_out = _awkward_array(out.shape, grad_seed, special_share=0.3)
    grad_x = layer.backward(grad_out)
    _assert_same_bits(grad_x, _reference_pool_backward(
        ref_argmax, grad_out, x.shape, k))
    return mixed_zero_tie


class TestMaxPool:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 3),
           tiles_h=st.integers(1, 4), tiles_w=st.integers(1, 4),
           k=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**16),
           special_share=st.sampled_from([0.0, 0.3, 0.9]))
    def test_matches_window_reference(self, n, c, tiles_h, tiles_w, k, seed,
                                      special_share):
        x = _awkward_array((n, c, k * tiles_h, k * tiles_w), seed,
                           special_share=special_share)
        _check_pool(x, k, seed + 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_post_relu_ties(self, k):
        x = _post_relu((4, 3, 6 * k, 6 * k), seed=k)
        # zeros of both signs tie for the maximum in some windows: the one
        # case where np.max's sign is SIMD-dependent (see module docstring)
        assert _check_pool(x, k, grad_seed=7).any()

    def test_all_nan_and_all_equal_windows(self):
        for fill in (np.nan, 0.0, -0.0, np.inf, -np.inf, 3.0):
            x = np.full((1, 2, 4, 4), fill)
            _check_pool(x, 2, grad_seed=1)

    def test_unselected_gradient_slots_are_positive_zero(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        layer = MaxPool2d(2)
        layer.forward(x)
        grad_x = layer.backward(np.full((1, 1, 2, 2), -5.0))
        assert np.count_nonzero(grad_x) == 4
        assert not np.signbit(grad_x[grad_x == 0.0]).any()

    def test_eval_forward_leaves_nothing_for_backward(self):
        layer = MaxPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        layer.forward(x, train=True)
        layer.forward(x[:, :, ::-1], train=False)
        # the evaluation pass replaced the training scratch: backward must
        # refuse instead of scattering through a stale index
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones((1, 1, 2, 2)))


# ------------------------------------------ backward without input gradient
def _accumulated(model):
    return model.get_gradients(), model.gate_gradients()


def _assert_same_accumulation(first, second):
    for got, want in zip(first, second):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])


@pytest.mark.parametrize("builder", [
    lambda: build_mlp(6, [5, 4], 3, seed=1),
    lambda: build_cnn(1, 8, 4, seed=1),
], ids=["mlp", "cnn"])
class TestBackwardWithoutInputGradient:
    def test_sequential(self, builder):
        model = builder()
        pattern = random_pattern(model, 0.5, rng=np.random.default_rng(0))
        model.set_unit_gates(gates_from_pattern(pattern))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5,) + tuple(model.input_shape))
        y = rng.integers(0, 3, size=5)
        runs = []
        for input_grad in (True, False):
            model.zero_grad()
            _, grad = softmax_cross_entropy(model.forward(x, train=True), y)
            grad_x = model.backward(grad, input_grad=input_grad)
            assert (grad_x is not None) == input_grad
            runs.append(_accumulated(model))
        assert any(np.any(g) for g in runs[0][1].values())
        _assert_same_accumulation(*runs)

    @pytest.mark.parametrize("counts", [None, (4, 2, 3)], ids=["full", "ragged"])
    def test_batched(self, builder, counts):
        model = builder()
        cohort, width = 3, 4
        rng = np.random.default_rng(2)
        base = model.get_parameters()
        params = [{key: value + 0.01 * rng.normal(size=value.shape)
                   for key, value in base.items()} for _ in range(cohort)]
        patterns = [random_pattern(model, ratio, rng=np.random.default_rng(i))
                    for i, ratio in enumerate((0.5, 0.75, 1.0))]
        batched = BatchedModel(model, cohort)
        batched.set_parameters(stack_param_dicts(params))
        batched.set_unit_gates({
            group.layer_name: np.stack(
                [gates_from_pattern(pattern)[group.layer_name]
                 for pattern in patterns])
            for group in model.unit_groups})
        real = counts or (width,) * cohort
        if counts is not None:
            batched.set_batch_counts(counts)
        x = np.zeros((cohort, width) + tuple(model.input_shape))
        y = np.zeros((cohort, width), dtype=np.int64)
        for i, count in enumerate(real):
            x[i, :count] = rng.normal(size=(count,) + tuple(model.input_shape))
            y[i, :count] = rng.integers(0, 3, size=count)
        runs = []
        for input_grad in (True, False):
            batched.zero_grad()
            logits = batched.forward(x, train=True)
            grad = np.zeros_like(logits)
            for i, count in enumerate(real):
                _, grad[i, :count] = softmax_cross_entropy(
                    logits[i, :count], y[i, :count])
            grad_x = batched.backward(grad, input_grad=input_grad)
            assert (grad_x is not None) == input_grad
            runs.append(_accumulated(batched))
        assert any(np.any(g) for g in runs[0][1].values())
        _assert_same_accumulation(*runs)
