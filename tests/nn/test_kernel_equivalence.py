"""The data-movement kernels of ``repro.nn.conv`` against their predecessors.

``_im2col``, ``_col2im`` and ``MaxPool2d`` were rewritten for speed (a
zeroed buffer instead of ``np.pad`` and a gather through a cached index
instead of a strided transpose copy; a channels-last tap accumulator instead
of NCHW tap adds; ``k * k`` strided views instead of a window copy plus
``argmax`` / ``max`` / ``put_along_axis``, then one window gather, a select
on bit patterns and an inverse gather instead of the strided views).  The
rewrites move data and never compute (the fold still adds each pixel's taps
in the same order), so the old implementations — kept here verbatim as
reference functions — must be reproduced bit for bit: equal values AND equal
sign bits, over exact ties (post-ReLU zeros), ``+-inf``, ``-0.0`` and NaN.

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

And the FedLPS local update before its per-client bookkeeping moved onto the
client axis: the old per-client body of ``learnable_sparse_training_cohort``,
the old ``learnable_sparse_training`` step, ``cohort_grad_norms`` / clipping,
the cohort losses, ``smoothed_targets`` and the gate-gradient normalisation,
all verbatim, against which every ``SparseTrainingResult`` field of the
vectorised code is compared byte for byte.  The oracles own every step they
take: the dictionary optimizers (``_ReferenceSGD``, ``_ReferenceBatchedSGD``)
and the ``Q`` update (``_reference_regularization_gradient``,
``_reference_combine_unit_gradients``, ``_reference_apply_gradient``) are
copies of the code as it stood, so a rewrite of ``src`` cannot move its own
oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.importance import (ImportanceIndicator,
                                   initialize_importance, smoothed_targets)
from repro.core.sparse_training import (SparseTrainingResult,
                                        _normalize_gate_gradients,
                                        learnable_sparse_training_cohort)
from repro.data.dataset import Dataset
from repro.federated import (LocalUpdateResult, client_batch_schedule,
                             train_cohort_batched)
from repro.models import build_cnn, build_lstm_lm, build_vgg_style
from repro.nn import (Arena, BatchedModel, BatchedSGD, MaxPool2d, accuracy,
                      accuracy_cohort, cohort_squared_norms, sigmoid, softmax,
                      softmax_cross_entropy, softmax_cross_entropy_cohort,
                      stack_param_dicts)
from repro.nn.batched import BatchedConv2d, CohortOfOne, cohort_program
from repro.nn.conv import _col2im, _im2col, _pool_index, _unfold_index
from repro.nn.params import copy_params, multiply, subtract
from repro.sparsity import (build_parameter_mask, gates_from_pattern,
                            random_pattern)

from mlp import build_mlp

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


def _reference_col2im(cols, x_shape, kernel, stride, padding, out_h, out_w):
    n, c, h, w = x_shape
    ph, pw = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, ph, pw), dtype=np.float64)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kernel):
        for j in range(kernel):
            x_padded[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                cols[:, :, :, :, i, j]
    if padding > 0:
        return x_padded[:, :, padding:padding + h, padding:padding + w]
    return x_padded


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


def _reference_strided_pool_forward(x, k, train):
    """The strided-view ``MaxPool2d`` loop that replaced the window copy."""
    out = x[:, :, ::k, ::k]
    index = np.zeros(out.shape, dtype=np.intp) if train else None
    has_nan = x.size > 0 and np.isnan(x.min())
    for position in range(1, k * k):
        candidate = x[:, :, position // k::k, position % k::k]
        better = candidate > out
        if has_nan:
            better |= np.isnan(candidate) & ~np.isnan(out)
        out = np.where(better, candidate, out)
        if train:
            index = np.where(better, position, index)
    return out, index


def _reference_strided_pool_backward(index, grad_out, x_shape, k):
    grad_x = np.empty(x_shape, dtype=np.float64)
    for position in range(k * k):
        grad_x[:, :, position // k::k, position % k::k] = np.where(
            index == position, grad_out, 0.0)
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
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 3), c=st.integers(1, 3),
           extra_h=st.integers(0, 5), extra_w=st.integers(0, 5),
           kernel=st.sampled_from([1, 2, 3, 5]), stride=st.sampled_from([1, 2, 3]),
           padding=st.sampled_from([0, 1, 2]), channels_last=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_matches_padded_reference_bit_for_bit(self, n, c, extra_h, extra_w,
                                                  kernel, stride, padding,
                                                  channels_last, seed):
        h, w = kernel + extra_h, kernel + extra_w
        if channels_last:
            # what a conv -> ReLU -> MaxPool output is: NHWC memory, NCHW view
            x = _awkward_array((n, h, w, c), seed).transpose(0, 3, 1, 2)
        else:
            x = _awkward_array((n, c, h, w), seed)
        cols, out_h, out_w = _im2col(x, kernel, stride, padding)
        ref_cols, ref_h, ref_w = _reference_im2col(x, kernel, stride, padding)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert cols.flags.c_contiguous and cols.flags.writeable
        _assert_same_bits(cols, ref_cols)
        index = _unfold_index(c, h + 2 * padding, w + 2 * padding, kernel, stride)
        assert not index.flags.writeable
        assert not np.shares_memory(cols, x)
        assert not np.shares_memory(cols, index)

    def test_padding_border_is_positive_zero(self):
        x = np.full((1, 1, 2, 2), -0.0)
        cols, _, _ = _im2col(x, 3, 1, 1)
        # each of the 4 patches holds the 4 real pixels (-0.0) and 5 padding
        # slots, which must be +0.0 exactly as np.pad wrote them
        assert np.signbit(cols).sum(axis=1).tolist() == [4, 4, 4, 4]
        _assert_same_bits(cols, _reference_im2col(x, 3, 1, 1)[0])


# ----------------------------------------------------------------- col2im
class TestCol2im:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 3), c=st.integers(1, 3),
           extra_h=st.integers(0, 5), extra_w=st.integers(0, 5),
           kernel=st.sampled_from([1, 2, 3, 5]), stride=st.sampled_from([1, 2, 3]),
           padding=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**16))
    # -inf + inf, then a positive NaN, in one pixel: the NaN sign the
    # channels-last loop alone would flip
    @example(n=3, c=2, extra_h=4, extra_w=4, kernel=5, stride=2, padding=0,
             seed=1931)
    def test_matches_tap_loop_reference_bit_for_bit(self, n, c, extra_h, extra_w,
                                                    kernel, stride, padding, seed):
        h, w = kernel + extra_h, kernel + extra_w
        out_h = (h + 2 * padding - kernel) // stride + 1
        out_w = (w + 2 * padding - kernel) // stride + 1
        # overlapping taps sum several columns into one pixel: the order of
        # those adds (and the +0.0 they start from) decides the bits
        cols = _awkward_array((n * out_h * out_w, c * kernel * kernel), seed)
        args = ((n, c, h, w), kernel, stride, padding, out_h, out_w)
        with np.errstate(invalid="ignore"):     # inf + -inf is NaN on both
            folded = _col2im(cols, *args)
            expected = _reference_col2im(cols, *args)
        _assert_same_bits(folded, expected)
        assert folded.strides == expected.strides
        assert not np.shares_memory(folded, cols)


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

    # the strided-view loop picked the same element, tied zeros included
    strided_out, strided_index = _reference_strided_pool_forward(x, k, True)
    _assert_same_bits(out, strided_out)
    assert np.array_equal(layer._index, strided_index)

    # an evaluation forward returns the same bits
    _assert_same_bits(MaxPool2d(k).forward(x, train=False), out)

    grad_out = _awkward_array(out.shape, grad_seed, special_share=0.3)
    grad_x = layer.backward(grad_out)
    _assert_same_bits(grad_x, _reference_pool_backward(
        ref_argmax, grad_out, x.shape, k))
    _assert_same_bits(grad_x, _reference_strided_pool_backward(
        strided_index, grad_out, x.shape, k))
    # ReLU's backward multiplies into this layout, and the conv gate
    # gradient reduces that product: a fresh C-contiguous NCHW array
    assert grad_x.flags.c_contiguous
    assert not np.shares_memory(grad_x, grad_out)
    # both cached indices are shared by every layer of this shape
    for channels_last in (False, True):
        for cached in _pool_index(*x.shape[1:], k, channels_last):
            assert not cached.flags.writeable
            assert not np.shares_memory(cached, grad_x)
    return mixed_zero_tie


class TestMaxPool:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 3), c=st.integers(1, 3),
           tiles_h=st.integers(1, 4), tiles_w=st.integers(1, 4),
           k=st.sampled_from([1, 2, 3, 4]), channels_last=st.booleans(),
           seed=st.integers(0, 2**16),
           special_share=st.sampled_from([0.0, 0.3, 0.9]))
    def test_matches_window_reference(self, n, c, tiles_h, tiles_w, k,
                                      channels_last, seed, special_share):
        h, w = k * tiles_h, k * tiles_w
        if channels_last:
            # what a conv -> ReLU output is: NHWC memory, NCHW view
            x = _awkward_array((n, h, w, c), seed,
                               special_share=special_share).transpose(0, 3, 1, 2)
        else:
            x = _awkward_array((n, c, h, w), seed, special_share=special_share)
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
def _reference_get_gradients(model):
    """A copy of the accumulated gradients, as the ``get_gradients`` method
    ``Sequential`` and ``BatchedModel`` used to have returned them."""
    return {key: np.array(value, copy=True)
            for key, value in model.live_gradients().items()}


def _accumulated(model):
    # a program's gate gradients are its live arena: copy before the rerun
    return _reference_get_gradients(model), {
        name: np.array(value) for name, value in model.gate_gradients().items()}


def _assert_same_accumulation(first, second):
    for got, want in zip(first, second):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])


@pytest.mark.parametrize("builder", [
    lambda: build_mlp(6, [5, 4], 3, seed=1),
    lambda: build_cnn(1, 8, 4, seed=1),
    lambda: build_vgg_style(3, 8, 4, blocks=(3, 4, 5), hidden_dim=6, seed=1),
], ids=["mlp", "cnn", "vgg"])
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


# ------------------------------- FedLPS local update: the per-client oracle
def _reference_smoothed_targets(magnitudes):
    targets = {}
    for name, magnitude in magnitudes.items():
        std = float(np.std(magnitude))
        if std < 1e-12:
            centered = np.zeros_like(magnitude)
        else:
            centered = (magnitude - float(np.mean(magnitude))) / std
        targets[name] = sigmoid(centered)
    return targets


def _reference_normalize_gate_gradients(gate_grads):
    normalized = {}
    for name, grad in gate_grads.items():
        grad = np.asarray(grad, dtype=np.float64)
        peak = float(np.max(np.abs(grad)))
        normalized[name] = grad / peak if peak > 0 else grad
    return normalized


def _reference_regularization_loss(importance, targets, importance_lambda):
    total = 0.0
    for name, values in importance.scores.items():
        total += float(np.sum((values - targets[name]) ** 2))
    return importance_lambda * total


def _reference_unit_magnitudes(batched, index):
    magnitudes = {}
    for group in batched.unit_groups:
        layer = batched.layer_by_name(group.layer_name)
        axis = (1, 2, 3) if isinstance(layer, BatchedConv2d) else 0
        magnitudes[group.layer_name] = (
            np.sum(np.abs(layer.params["W"][index]), axis=axis)
            + np.abs(layer.params["b"][index]))
    return magnitudes


def _reference_cohort_grad_norms(grads):
    first = next(iter(grads.values()))
    cohort = first.shape[0]
    totals = [0.0] * cohort
    for grad in grads.values():
        squared = (grad ** 2).reshape(cohort, -1)
        for index in range(cohort):
            totals[index] += float(np.sum(squared[index]))
    return np.sqrt(np.asarray(totals))


def _reference_clip_gradients_cohort(grads, max_norm):
    norms = _reference_cohort_grad_norms(grads)
    scales = None
    for index, norm in enumerate(norms):
        norm = float(norm)
        if norm <= max_norm or norm == 0.0:
            continue
        if scales is None:
            scales = np.ones(len(norms), dtype=np.float64)
        scales[index] = max_norm / norm
    if scales is None:
        return grads
    return {key: grad * scales.reshape((len(norms),) + (1,) * (grad.ndim - 1))
            for key, grad in grads.items()}


def _reference_global_grad_norm(grads):
    """``nn.optim.global_grad_norm`` as it stood."""
    total = 0.0
    for grad in grads.values():
        total += float(np.sum(grad ** 2))
    return float(np.sqrt(total))


def _reference_clip_gradients(grads, max_norm):
    """``nn.optim.clip_gradients`` as it stood."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = _reference_global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return {key: grad * scale for key, grad in grads.items()}


class _ReferenceSGD:
    """``nn.optim.SGD`` as it stood: a per-key dictionary step."""

    _clip = staticmethod(_reference_clip_gradients)

    def __init__(self, lr, *, momentum=0.0, weight_decay=0.0,
                 clip_norm=None):
        if np.any(np.asarray(lr) <= 0):
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self._velocity = {}

    def _scaled(self, update):
        return self.lr * update

    def step(self, params, grads):
        if self.clip_norm is not None:
            grads = self._clip(grads, self.clip_norm)
        for key, param in params.items():
            grad = grads.get(key)
            if grad is None:
                continue
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param
            if self.momentum > 0.0:
                velocity = self._velocity.get(key)
                if velocity is None:
                    velocity = np.zeros_like(param)
                velocity = self.momentum * velocity + grad
                self._velocity[key] = velocity
                update = velocity
            else:
                update = grad
            param -= self._scaled(update)


class _ReferenceBatchedSGD(_ReferenceSGD):
    """``nn.optim.BatchedSGD`` as it stood: the dictionary step with a
    per-client ``(C,)`` learning rate broadcast along the client axis and
    per-client clipping (through the old per-client norm loop)."""

    _clip = staticmethod(_reference_clip_gradients_cohort)

    def __init__(self, lr, *, momentum=0.0, weight_decay=0.0,
                 clip_norm=None):
        if isinstance(lr, np.ndarray):
            lr = np.asarray(lr, dtype=np.float64)
            if lr.ndim != 1 or np.any(lr <= 0):
                raise ValueError("per-client learning rates must be a "
                                 "positive 1-D vector")
        super().__init__(lr, momentum=momentum, weight_decay=weight_decay,
                         clip_norm=clip_norm)

    def _scaled(self, update):
        if isinstance(self.lr, np.ndarray):
            return self.lr.reshape(
                (update.shape[0],) + (1,) * (update.ndim - 1)) * update
        return self.lr * update


def _reference_regularization_gradient(importance, targets, importance_lambda):
    """``ImportanceIndicator.regularization_gradient`` as it stood."""
    return {name: 2.0 * importance_lambda * (values - targets[name])
            for name, values in importance.scores.items()}


def _reference_apply_gradient(importance, gradients, learning_rate):
    """``ImportanceIndicator.apply_gradient`` as it stood."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    for name, values in importance.scores.items():
        grad = gradients.get(name)
        if grad is None:
            continue
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != values.shape:
            raise ValueError(
                f"gradient for {name!r} has shape {grad.shape}, "
                f"expected {values.shape}")
        importance.scores[name] = values - learning_rate * grad


def _reference_combine_unit_gradients(task_gate_grads, regularizer_grads):
    """``core.importance.combine_unit_gradients`` as it stood."""
    return {name: np.asarray(grad, dtype=np.float64)
            + np.asarray(regularizer_grads[name], dtype=np.float64)
            for name, grad in task_gate_grads.items()}


def _reference_softmax_cross_entropy_cohort(logits, labels, counts):
    cohort, batch, _ = logits.shape
    probs = softmax(logits, axis=-1)
    eps = 1e-12
    client_index = np.arange(cohort)[:, None]
    row_index = np.arange(batch)[None, :]
    logs = np.log(probs[client_index, row_index, labels] + eps)
    losses = np.empty(cohort, dtype=np.float64)
    for i in range(cohort):
        losses[i] = -np.mean(logs[i, :counts[i]])
    grad = probs.copy()
    grad[client_index, row_index, labels] -= 1.0
    grad /= counts.astype(np.float64)[:, None, None]
    for i in range(cohort):
        grad[i, counts[i]:] = 0.0
    return losses, grad


def _reference_accuracy_cohort(logits, labels, counts):
    hits = np.argmax(logits, axis=-1) == labels
    return np.array([float(np.mean(hits[i, :counts[i]]))
                     for i in range(len(counts))])


def _reference_iterate_batches(dataset, batch_size, iterations, *, rng):
    """``federated.local.iterate_batches`` as it stood."""
    if iterations <= 0:
        return
    indices = rng.permutation(len(dataset))
    cursor = 0
    for _ in range(iterations):
        if cursor + batch_size > len(indices):
            indices = rng.permutation(len(dataset))
            cursor = 0
        batch = indices[cursor:cursor + batch_size]
        cursor += batch_size
        yield dataset.x[batch], dataset.y[batch]


def _reference_proximal_loss(params, reference, mu):
    """``core.losses.proximal_loss`` as it stood."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    total = 0.0
    for key in params:
        diff = params[key] - reference[key]
        total += float(np.sum(diff ** 2))
    return mu * total


def _reference_proximal_gradient(params, reference, mu):
    """``core.losses.proximal_gradient`` as it stood."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return {key: 2.0 * mu * (params[key] - reference[key]) for key in params}


def _reference_add_gradients(base, extra):
    """``core.losses.add_gradients`` as it stood."""
    return {key: base[key] + extra[key] for key in base}


def _reference_train_locally(model, start_params, dataset, *, iterations,
                             batch_size, learning_rate, momentum=0.0,
                             clip_norm=None, prox_mu=0.0, prox_center=None,
                             param_mask=None, pattern=None,
                             trainable_keys=None, rng=None):
    """``train_locally`` as it stood while it owned a loop: the sequential
    ``SGD``, ``softmax_cross_entropy`` / ``accuracy`` on the client's own
    2-D logits, python-list metric ledgers."""
    rng = rng or np.random.default_rng(0)
    params = copy_params(start_params)
    if param_mask is not None:
        params = multiply(params, param_mask)
    model.set_parameters(params)
    if pattern is not None:
        model.set_unit_gates(gates_from_pattern(pattern))
    center = None
    if prox_mu > 0.0:
        center = copy_params(prox_center if prox_center is not None else start_params)

    optimizer = _ReferenceSGD(learning_rate, momentum=momentum,
                              clip_norm=clip_norm)
    allowed = set(trainable_keys) if trainable_keys is not None else None
    frozen_zeros = {}
    if allowed is not None:
        frozen_zeros = {key: np.zeros_like(value)
                        for key, value in model.get_parameters().items()
                        if key not in allowed}
    losses = []
    accuracies = []
    examples = 0
    for batch_x, batch_y in _reference_iterate_batches(
            dataset, batch_size, iterations, rng=rng):
        model.zero_grad()
        logits = model.forward(batch_x, train=True)
        loss, grad = softmax_cross_entropy(logits, batch_y)
        accuracies.append(accuracy(logits, batch_y))
        model.backward(grad, input_grad=False)
        grads = _reference_get_gradients(model)
        current = model.get_parameters()
        if prox_mu > 0.0 and center is not None:
            for key, value in grads.items():
                value += (current[key] - center[key]) * (2.0 * prox_mu)
            loss += prox_mu * float(
                sum(np.sum((current[key] - center[key]) ** 2) for key in current))
        if param_mask is not None:
            grads = {key: grads[key] * param_mask[key] for key in grads}
        if allowed is not None:
            grads = {key: (value if key in allowed else frozen_zeros[key])
                     for key, value in grads.items()}
        losses.append(loss)
        examples += len(batch_y)
        optimizer.step(model.live_parameters(), grads)
    model.set_unit_gates(None)
    final_params = model.get_parameters()
    if param_mask is not None:
        final_params = multiply(final_params, param_mask)
    return LocalUpdateResult(
        params=final_params,
        train_accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
        train_loss=float(np.mean(losses)) if losses else 0.0,
        examples_seen=examples,
    )


def _reference_sparse_training(model, global_params, importance, dataset, *,
                               sparse_ratio, iterations, batch_size,
                               learning_rate, momentum=0.0, clip_norm=None,
                               prox_mu=1.0, importance_lambda=1.0,
                               importance_learning_rate=None,
                               refresh_pattern_each_iteration=False, rng=None):
    """``learnable_sparse_training`` as it stood: parameters and gates
    re-installed, gradients and parameters snapshotted, every step."""
    importance = importance.copy()
    q_lr = importance_learning_rate if importance_learning_rate is not None \
        else learning_rate
    params = copy_params(global_params)
    global_reference = copy_params(global_params)
    optimizer = _ReferenceSGD(learning_rate, momentum=momentum,
                              clip_norm=clip_norm)
    losses = []
    accuracies = []
    examples = 0
    pattern = importance.pattern(model, sparse_ratio)
    param_mask = build_parameter_mask(model, pattern)
    for batch_x, batch_y in _reference_iterate_batches(
            dataset, batch_size, iterations, rng=rng):
        if refresh_pattern_each_iteration:
            pattern = importance.pattern(model, sparse_ratio)
            param_mask = build_parameter_mask(model, pattern)

        model.set_parameters(params)
        model.set_unit_gates(gates_from_pattern(pattern))
        model.zero_grad()
        logits = model.forward(batch_x, train=True)
        task_loss, grad = softmax_cross_entropy(logits, batch_y)
        accuracies.append(accuracy(logits, batch_y))
        model.backward(grad, input_grad=False)

        grads = _reference_get_gradients(model)
        gate_grads = _reference_normalize_gate_gradients(model.gate_gradients())
        prox_grads = _reference_proximal_gradient(
            params, global_reference, prox_mu)
        grads = _reference_add_gradients(grads, prox_grads)
        grads = {key: grads[key] * param_mask[key] for key in grads}
        live = {}
        for layer in model.layers:
            for key in layer.params:
                live[f"{layer.name}.{key}"] = layer.params[key]
        optimizer.step(live, grads)
        params = model.get_parameters()

        targets = _reference_smoothed_targets(model.unit_weight_magnitudes())
        reg_grads = _reference_regularization_gradient(
            importance, targets, importance_lambda)
        q_grads = _reference_combine_unit_gradients(gate_grads, reg_grads)
        _reference_apply_gradient(importance, q_grads, q_lr)

        losses.append(task_loss
                      + _reference_proximal_loss(
                          params, global_reference, prox_mu)
                      + _reference_regularization_loss(
                          importance, targets, importance_lambda))
        examples += len(batch_y)
    model.set_unit_gates(None)

    final_pattern = (importance.pattern(model, sparse_ratio)
                     if refresh_pattern_each_iteration else pattern)
    final_mask = build_parameter_mask(model, final_pattern)
    personalized = multiply(params, final_mask)
    residual = multiply(subtract(global_reference, params), final_mask)
    return SparseTrainingResult(
        personalized_params=personalized, residual=residual,
        pattern=final_pattern, importance=importance, sparse_ratio=sparse_ratio,
        train_accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
        train_loss=float(np.mean(losses)) if losses else 0.0,
        examples_seen=examples)


def _reference_sparse_training_cohort(model, global_params, importances,
                                      datasets, *, sparse_ratios, iterations,
                                      batch_size, learning_rate, momentum=0.0,
                                      clip_norm=None, prox_mu=1.0,
                                      importance_lambda=1.0,
                                      importance_learning_rate=None,
                                      refresh_pattern_each_iteration=False,
                                      rngs=None):
    """``learnable_sparse_training_cohort`` as it stood: the batched tensor
    program plus a ``for index in range(cohort)`` body per step."""
    cohort = len(datasets)
    importances = [importance.copy() for importance in importances]
    q_lr = importance_learning_rate if importance_learning_rate is not None \
        else learning_rate

    global_reference = copy_params(global_params)
    reference_b = {key: np.asarray(value, dtype=np.float64)[None]
                   for key, value in global_reference.items()}
    batched = BatchedModel(model, cohort)
    batched.set_parameters(
        {key: np.repeat(np.asarray(value, dtype=np.float64)[None],
                        cohort, axis=0)
         for key, value in global_params.items()})
    # the old optimizer clipped through the old per-client norm loop
    optimizer = _ReferenceBatchedSGD(learning_rate, momentum=momentum)

    patterns = [importances[i].pattern(model, sparse_ratios[i])
                for i in range(cohort)]
    param_masks = [build_parameter_mask(model, pattern)
                   for pattern in patterns]
    stacked_masks = stack_param_dicts(param_masks)

    def _stack_gates(pattern_list):
        gate_dicts = [gates_from_pattern(pattern) for pattern in pattern_list]
        return {group.layer_name:
                np.stack([gates[group.layer_name] for gates in gate_dicts])
                for group in model.unit_groups}

    batched.set_unit_gates(_stack_gates(patterns))

    schedules = [client_batch_schedule(len(datasets[i]), batch_size,
                                       iterations, rng=rngs[i])
                 for i in range(cohort)]
    counts = np.array([len(schedule[0]) if schedule else 0
                       for schedule in schedules], dtype=np.int64)
    steps = len(schedules[0]) if schedules else 0
    width = int(counts.max()) if steps else 0
    if np.any(counts != width):
        batched.set_batch_counts(counts)

    losses = [[] for _ in range(cohort)]
    accuracies = [[] for _ in range(cohort)]
    examples = [0] * cohort
    x_pad = None
    y_pad = None
    if steps:
        sample_shape = datasets[0].x.shape[1:]
        x_pad = np.zeros((cohort, width) + tuple(sample_shape),
                         dtype=np.float64)
        y_pad = np.zeros((cohort, width), dtype=np.int64)

    factor = 2.0 * prox_mu
    for step in range(steps):
        if refresh_pattern_each_iteration:
            patterns = [importances[i].pattern(model, sparse_ratios[i])
                        for i in range(cohort)]
            param_masks = [build_parameter_mask(model, pattern)
                           for pattern in patterns]
            stacked_masks = stack_param_dicts(param_masks)
            batched.set_unit_gates(_stack_gates(patterns))
        for index in range(cohort):
            batch = schedules[index][step]
            x_pad[index, :counts[index]] = datasets[index].x[batch]
            y_pad[index, :counts[index]] = datasets[index].y[batch]
        batched.zero_grad()
        logits = batched.forward(x_pad, train=True)
        task_losses, grad = _reference_softmax_cross_entropy_cohort(
            logits, y_pad, counts)
        step_accuracies = _reference_accuracy_cohort(logits, y_pad, counts)
        batched.backward(grad, input_grad=False)

        grads = _reference_get_gradients(batched)
        stacked_gate_grads = batched.gate_gradients()
        current = batched.get_parameters()
        grads = {key: grads[key] + factor * (current[key] - reference_b[key])
                 for key in grads}
        grads = {key: grads[key] * stacked_masks[key] for key in grads}
        if clip_norm is not None:
            grads = _reference_clip_gradients_cohort(grads, clip_norm)
        optimizer.step(batched.live_parameters(), grads)
        post = batched.get_parameters()

        for index in range(cohort):
            gate_grads = _reference_normalize_gate_gradients(
                {name: values[index]
                 for name, values in stacked_gate_grads.items()})
            targets = _reference_smoothed_targets(
                _reference_unit_magnitudes(batched, index))
            reg_grads = _reference_regularization_gradient(
                importances[index], targets, importance_lambda)
            q_grads = _reference_combine_unit_gradients(gate_grads, reg_grads)
            _reference_apply_gradient(importances[index], q_grads, q_lr)

            prox_total = 0.0
            for key in post:
                diff = post[key][index] - global_reference[key]
                prox_total += float(np.sum(diff ** 2))
            losses[index].append(
                float(task_losses[index]) + prox_mu * prox_total
                + _reference_regularization_loss(
                    importances[index], targets, importance_lambda))
            accuracies[index].append(float(step_accuracies[index]))
            examples[index] += int(counts[index])

    batched.set_unit_gates(None)
    final_stacked = batched.get_parameters()
    results = []
    for index in range(cohort):
        params = {key: np.array(value[index], copy=True)
                  for key, value in final_stacked.items()}
        final_pattern = (importances[index].pattern(model, sparse_ratios[index])
                         if refresh_pattern_each_iteration
                         else patterns[index])
        final_mask = build_parameter_mask(model, final_pattern)
        personalized = multiply(params, final_mask)
        residual = multiply(subtract(global_reference, params), final_mask)
        results.append(SparseTrainingResult(
            personalized_params=personalized, residual=residual,
            pattern=final_pattern, importance=importances[index],
            sparse_ratio=sparse_ratios[index],
            train_accuracy=(float(np.mean(accuracies[index]))
                            if accuracies[index] else 0.0),
            train_loss=(float(np.mean(losses[index]))
                        if losses[index] else 0.0),
            examples_seen=examples[index]))
    return results


def _assert_same_result(got, want):
    """Every ``SparseTrainingResult`` field, byte for byte."""
    for field in ("personalized_params", "residual", "pattern"):
        assert getattr(got, field).keys() == getattr(want, field).keys()
        for key, value in getattr(want, field).items():
            _assert_same_bits(getattr(got, field)[key], value)
    assert got.importance.scores.keys() == want.importance.scores.keys()
    for name, values in want.importance.scores.items():
        _assert_same_bits(got.importance.scores[name], values)
    for field in ("train_loss", "train_accuracy", "sparse_ratio"):
        _assert_same_bits(np.float64(getattr(got, field)),
                          np.float64(getattr(want, field)))
        assert type(getattr(got, field)) is type(getattr(want, field))
    assert got.examples_seen == want.examples_seen
    assert type(got.examples_seen) is int


_COHORT_SIZES = {
    "c1": [20], "c3": [20, 20, 20], "c3-ragged": [20, 7, 13],
    "c16": [12] * 16, "c16-ragged": [3 + (5 * i) % 11 for i in range(16)],
}


@pytest.mark.parametrize("optimizer", [
    {}, dict(momentum=0.9, clip_norm=0.3)], ids=["plain", "momentum-clip"])
@pytest.mark.parametrize("refresh", [False, True], ids=["held", "refresh"])
@pytest.mark.parametrize("sizes", list(_COHORT_SIZES.values()),
                         ids=list(_COHORT_SIZES))
@pytest.mark.parametrize("builder", [
    lambda: build_mlp(6, [5, 4], 3, seed=1),
    lambda: build_cnn(1, 8, 3, channels=(3, 4), hidden_dim=6, seed=1),
], ids=["mlp", "cnn"])
def test_sparse_training_matches_the_per_client_oracle(builder, sizes, refresh,
                                                       optimizer):
    model = builder()
    cohort = len(sizes)
    rng = np.random.default_rng(5)
    datasets = [Dataset(rng.normal(size=(n,) + tuple(model.input_shape)),
                        rng.integers(0, 3, size=n)) for n in sizes]
    start = model.get_parameters()
    importances = [initialize_importance(model, seed=1000 + i)
                   for i in range(cohort)]
    ratios = [(0.5, 0.75, 1.0)[i % 3] for i in range(cohort)]
    common = dict(iterations=4, batch_size=8, learning_rate=0.1, prox_mu=0.3,
                  importance_lambda=0.7, importance_learning_rate=0.05,
                  refresh_pattern_each_iteration=refresh, **optimizer)

    def rngs():
        return [np.random.default_rng(100 + i) for i in range(cohort)]

    oracle = _reference_sparse_training_cohort(
        model, start, importances, datasets, sparse_ratios=ratios,
        rngs=rngs(), **common)
    old_loop = [_reference_sparse_training(
        model, start, importances[i], datasets[i], sparse_ratio=ratios[i],
        rng=rngs()[i], **common) for i in range(cohort)]
    before = copy_params(importances[0].scores)
    new_cohort = learnable_sparse_training_cohort(
        model, start, importances, datasets, sparse_ratios=ratios,
        rngs=rngs(), **common)
    new_loop = [learnable_sparse_training_cohort(
        model, start, [importances[i]], [datasets[i]],
        sparse_ratios=[ratios[i]], rngs=[rngs()[i]], **common)[0]
        for i in range(cohort)]
    for want, *others in zip(oracle, old_loop, new_cohort, new_loop):
        assert np.any(want.residual["head.W"])
        for got in others:
            _assert_same_result(got, want)
    # the caller's indicators are inputs, and no two results share memory
    for name, values in before.items():
        _assert_same_bits(importances[0].scores[name], values)
    arrays = [value for result in new_cohort for value in (
        *result.personalized_params.values(), *result.residual.values(),
        *result.importance.scores.values())]
    assert all(value.base is None for value in arrays)


def test_sparse_training_without_iterations_returns_the_masked_start():
    model = build_mlp(6, [5, 4], 3, seed=1)
    datasets = [Dataset(np.zeros((4, 6)), np.zeros(4, dtype=np.int64))] * 2
    importances = [initialize_importance(model, seed=i) for i in range(2)]
    kwargs = dict(iterations=0, batch_size=8, learning_rate=0.1)
    oracle = _reference_sparse_training_cohort(
        model, model.get_parameters(), importances, datasets,
        sparse_ratios=[0.5, 1.0], rngs=[np.random.default_rng(i) for i in range(2)],
        **kwargs)
    got = learnable_sparse_training_cohort(
        model, model.get_parameters(), importances, datasets,
        sparse_ratios=[0.5, 1.0], rngs=[np.random.default_rng(i) for i in range(2)],
        **kwargs)
    for new, want in zip(got, oracle):
        _assert_same_result(new, want)
        assert new.examples_seen == 0 and new.train_loss == 0.0


def _assert_same_update(got, want):
    """Every ``LocalUpdateResult`` field, byte for byte."""
    assert got.params.keys() == want.params.keys()
    for key, value in want.params.items():
        _assert_same_bits(got.params[key], value)
    for field in ("train_loss", "train_accuracy"):
        _assert_same_bits(np.float64(getattr(got, field)),
                          np.float64(getattr(want, field)))
        assert type(getattr(got, field)) is type(getattr(want, field))
    assert got.examples_seen == want.examples_seen
    assert type(got.examples_seen) is int


def _assert_same_model_state(got, want):
    """The shared ``context.model`` contract of the loop path: the trained
    parameters, byte for byte, and no gate left installed."""
    got_params, want_params = got.get_parameters(), want.get_parameters()
    assert got_params.keys() == want_params.keys()
    for key, value in want_params.items():
        _assert_same_bits(got_params[key], value)
    for layer in got.layers:
        assert getattr(layer, "unit_gate", None) is None


def _lstm():
    return build_lstm_lm(11, embed_dim=4, hidden_dim=5, num_layers=2,
                         seq_len=4, seed=1)


def _vgg():
    return build_vgg_style(3, 8, 3, blocks=(3, 4, 5), hidden_dim=6, seed=1)


def _client_data(model, n, seed):
    """A shard in the model's own input dtype: integer token windows for a
    model that starts with an embedding, float features otherwise."""
    rng = np.random.default_rng(seed)
    if model.layers[0].name == "embedding":
        vocab = model.layers[0].params["W"].shape[0]
        return Dataset(rng.integers(0, vocab, size=(n,) + tuple(model.input_shape)),
                       rng.integers(0, vocab, size=n))
    return Dataset(rng.normal(size=(n,) + tuple(model.input_shape)),
                   rng.integers(0, 3, size=n))


def _shifted(params, seed=11):
    rng = np.random.default_rng(seed)
    return {key: value + 0.05 * rng.normal(size=value.shape)
            for key, value in params.items()}


def _heterofl_style(model):
    """What the HeteroFL family passes: a unit pattern installed as forward
    gates plus the parameter mask built from it."""
    pattern = random_pattern(model, 0.5, rng=np.random.default_rng(4))
    return dict(pattern=pattern,
                param_mask=build_parameter_mask(model, pattern))


_LOCAL_CASES = {
    "plain": lambda model: {},
    "param-mask": lambda model: dict(param_mask=build_parameter_mask(
        model, random_pattern(model, 0.5, rng=np.random.default_rng(3)))),
    "pattern": lambda model: dict(pattern=random_pattern(
        model, 0.5, rng=np.random.default_rng(4))),
    "gated-submodel": _heterofl_style,
    "prox": lambda model: dict(prox_mu=0.3),
    # the default center is the UNMASKED start, the first step the masked one
    "masked-prox": lambda model: dict(prox_mu=0.3, **_heterofl_style(model)),
    "prox-center": lambda model: dict(
        prox_mu=0.3, prox_center=_shifted(model.get_parameters())),
    "momentum-clip": lambda model: dict(momentum=0.9, clip_norm=0.3),
    "trainable-keys": lambda model: dict(
        trainable_keys=["head.W", "head.b"], prox_mu=0.1, momentum=0.5),
    "no-iterations": lambda model: dict(iterations=0, pattern=random_pattern(
        model, 0.5, rng=np.random.default_rng(4))),
    "small-shard": lambda model: dict(n_examples=5, momentum=0.9,
                                      clip_norm=0.3, prox_mu=0.2),
}


def _cohort_kwargs(kwargs, cohort):
    """``_reference_train_locally``'s keywords as the cohort entry's: the
    per-client ``pattern`` / ``param_mask`` repeated ``cohort`` times."""
    per_client = {"pattern": "patterns", "param_mask": "param_masks"}
    return {per_client.get(key, key):
            [value] * cohort if key in per_client else value
            for key, value in kwargs.items()}


@pytest.mark.parametrize("case", list(_LOCAL_CASES.values()),
                         ids=list(_LOCAL_CASES))
@pytest.mark.parametrize("builder", [
    lambda: build_mlp(6, [5, 4], 3, seed=1),
    lambda: build_cnn(1, 8, 3, channels=(3, 4), hidden_dim=6, seed=1),
    _lstm, _vgg,
], ids=["mlp", "cnn", "lstm-tokens", "vgg"])
def test_cohort_of_one_matches_reference_train_locally(builder, case):
    """One client runs the cohort entry over a ``CohortOfOne``; the loop
    ``train_locally`` used to own must be reproduced byte for byte — result
    and model.  The LSTM (integer token input) and the gated sub-model
    have no batched kernels: the adapter is their only path.  The VGG
    stack is the CIFAR backbone: three conv-relu-pool blocks on RGB."""
    # two instances: each path trains its own model in place
    new_model, old_model = builder(), builder()
    kwargs = dict(iterations=5, batch_size=8, learning_rate=0.1)
    kwargs.update(case(new_model))
    dataset = _client_data(new_model, kwargs.pop("n_examples", 20), seed=5)
    start = _shifted(new_model.get_parameters(), seed=12)
    start_before = copy_params(start)

    want = _reference_train_locally(old_model, start, dataset,
                                    rng=np.random.default_rng(100), **kwargs)
    got = train_cohort_batched(new_model, [start], [dataset],
                               rngs=[np.random.default_rng(100)],
                               **_cohort_kwargs(kwargs, 1))[0]
    _assert_same_update(got, want)
    _assert_same_model_state(new_model, old_model)
    if kwargs["iterations"]:
        assert any(np.any(got.params[key] != start[key]) for key in start)
    # inputs are inputs, and the result does not alias the live model
    for key, value in start_before.items():
        _assert_same_bits(start[key], value)
    live = new_model.live_parameters()
    assert not any(np.shares_memory(got.params[key], live[key]) for key in live)


@pytest.mark.parametrize("case", ["plain", "gated-submodel", "small-shard"])
def test_cohort_of_float_models_matches_reference_train_locally(case):
    """The stacked layout against the same oracle: ``BatchedModel`` rows and
    the ``CohortOfOne`` are one body, so both reproduce the old loop."""
    model = build_mlp(6, [5, 4], 3, seed=1)
    kwargs = dict(iterations=5, batch_size=8, learning_rate=0.1)
    kwargs.update(_LOCAL_CASES[case](model))
    sizes = [kwargs.pop("n_examples", 20), 20, 13]
    datasets = [_client_data(model, n, seed=5 + i) for i, n in enumerate(sizes)]
    start = _shifted(model.get_parameters(), seed=12)
    template_before = model.get_parameters()
    got = train_cohort_batched(
        model, [start] * 3, datasets,
        rngs=[np.random.default_rng(100 + i) for i in range(3)],
        **_cohort_kwargs(kwargs, 3))
    # the cohort path leaves the template untouched
    for key, value in template_before.items():
        _assert_same_bits(model.get_parameters()[key], value)
    for index, dataset in enumerate(datasets):
        want = _reference_train_locally(
            build_mlp(6, [5, 4], 3, seed=1), start, dataset,
            rng=np.random.default_rng(100 + index), **kwargs)
        _assert_same_update(got[index], want)


@pytest.mark.parametrize("cohort", [1, 3])
def test_one_entry_trains_one_client_in_place_and_a_cohort_on_a_template(
        cohort):
    """Each family's one entry picks its program by cohort size: one client
    trains ``model`` itself through a ``CohortOfOne`` (left holding the
    trained parameters, as the loop left it), a cohort of three runs on a
    ``BatchedModel`` and leaves the template untouched.  Every client
    stays byte-equal to the per-client oracle either way."""
    program = cohort_program(build_mlp(6, [5, 4], 3, seed=1), cohort)
    assert type(program) is (CohortOfOne if cohort == 1 else BatchedModel)
    model, old_model = (build_mlp(6, [5, 4], 3, seed=1) for _ in range(2))
    template_before = model.get_parameters()
    kwargs = dict(iterations=5, batch_size=8, learning_rate=0.1,
                  **_heterofl_style(model))
    datasets = [_client_data(model, n, seed=5 + i)
                for i, n in enumerate([20, 13, 20][:cohort])]
    start = _shifted(model.get_parameters(), seed=12)
    got = train_cohort_batched(
        model, [start] * cohort, datasets,
        rngs=[np.random.default_rng(100 + i) for i in range(cohort)],
        **_cohort_kwargs(kwargs, cohort))
    for index, dataset in enumerate(datasets):
        want = _reference_train_locally(
            old_model, start, dataset,
            rng=np.random.default_rng(100 + index), **kwargs)
        _assert_same_update(got[index], want)
    if cohort == 1:
        _assert_same_model_state(model, old_model)
    else:
        for key, value in template_before.items():
            _assert_same_bits(model.get_parameters()[key], value)

    sparse_model, old_sparse_model = (build_mlp(6, [5, 4], 3, seed=1)
                                      for _ in range(2))
    sparse_before = sparse_model.get_parameters()
    importances = [initialize_importance(sparse_model, seed=1000 + i)
                   for i in range(cohort)]
    ratios = [0.5, 0.75, 1.0][:cohort]
    common = dict(iterations=4, batch_size=8, learning_rate=0.1, prox_mu=0.3)
    results = learnable_sparse_training_cohort(
        sparse_model, start, importances, datasets, sparse_ratios=ratios,
        rngs=[np.random.default_rng(100 + i) for i in range(cohort)],
        **common)
    for index, dataset in enumerate(datasets):
        want = _reference_sparse_training(
            old_sparse_model, start, importances[index], dataset,
            sparse_ratio=ratios[index],
            rng=np.random.default_rng(100 + index), **common)
        _assert_same_result(results[index], want)
    if cohort == 1:
        _assert_same_model_state(sparse_model, old_sparse_model)
    else:
        for key, value in sparse_before.items():
            _assert_same_bits(sparse_model.get_parameters()[key], value)


@pytest.mark.parametrize("refresh", [False, True], ids=["held", "refresh"])
def test_sparse_training_on_the_lstm_matches_the_per_client_oracle(refresh):
    """The FedLPS family on a model only the adapter can run: integer token
    input through Embedding and two gated LSTM layers."""
    new_model, old_model = _lstm(), _lstm()
    dataset = _client_data(new_model, 20, seed=5)
    start = new_model.get_parameters()
    importance = initialize_importance(new_model, seed=1000)
    common = dict(sparse_ratio=0.5, iterations=4, batch_size=8,
                  learning_rate=0.1, momentum=0.9, clip_norm=0.3, prox_mu=0.3,
                  importance_lambda=0.7, importance_learning_rate=0.05,
                  refresh_pattern_each_iteration=refresh)
    want = _reference_sparse_training(
        old_model, start, importance, dataset,
        rng=np.random.default_rng(100), **common)
    ratio = common.pop("sparse_ratio")
    got = learnable_sparse_training_cohort(
        new_model, start, [importance], [dataset], sparse_ratios=[ratio],
        rngs=[np.random.default_rng(100)], **common)[0]
    assert np.any(want.residual["head.W"])
    _assert_same_result(got, want)
    _assert_same_model_state(new_model, old_model)


class TestCohortOfOne:
    """The C = 1 adapter moves no data: the ``Sequential`` sees the loop's
    own shapes, and everything handed out is a view of its live arrays."""

    @staticmethod
    def _trained_step(model):
        program = CohortOfOne(model)
        x = np.random.default_rng(0).normal(size=(1, 5) + tuple(model.input_shape))
        program.zero_grad()
        logits = program.forward(x, train=True)
        program.backward(np.ones_like(logits), input_grad=False)
        return program, x, logits

    def test_layers_see_the_clients_own_batch(self, monkeypatch):
        model = build_cnn(1, 8, 3, channels=(3, 4), hidden_dim=6, seed=1)
        seen = []
        forward, backward = model.forward, model.backward
        monkeypatch.setattr(model, "forward", lambda x, **kw: (
            seen.append(("forward", x.shape)), forward(x, **kw))[1])
        monkeypatch.setattr(model, "backward", lambda grad, **kw: (
            seen.append(("backward", grad.shape, kw)), backward(grad, **kw))[1])
        program, x, logits = self._trained_step(model)
        assert seen == [("forward", (5, 1, 8, 8)),
                        ("backward", (5, 3), {"input_grad": False})]
        assert logits.shape == (1, 5, 3)
        _assert_same_bits(logits[0], forward(x[0], train=True))
        grad_in = program.backward(np.ones_like(logits))
        assert grad_in.shape == x.shape

    def test_every_array_is_a_leading_axis_view_of_the_live_one(self):
        model = build_mlp(6, [5, 4], 3, seed=1)
        program, _, _ = self._trained_step(model)
        model.set_unit_gates({name: np.ones(group_units) for name, group_units in
                              ((g.layer_name, g.n_units) for g in model.unit_groups)})
        for stacked, live in ((program.live_parameters(), model.live_parameters()),
                              (program.live_gradients(), model.live_gradients())):
            assert stacked.keys() == live.keys()
            for key, value in live.items():
                assert stacked[key].shape == (1,) + value.shape
                assert np.shares_memory(stacked[key], value)
        for stacked, single in (
                (program.gate_gradients(), model.gate_gradients()),
                (program.unit_weight_magnitudes(), model.unit_weight_magnitudes())):
            for name, value in single.items():
                _assert_same_bits(stacked[name], value[None])

    def test_an_in_place_step_on_the_view_moves_the_layers_parameter(self):
        model = build_mlp(6, [5, 4], 3, seed=1)
        program, _, _ = self._trained_step(model)
        before = model.get_parameters()
        grads = {key: np.array(value) for key, value in
                 program.live_gradients().items()}
        BatchedSGD(program.live_parameters(), 0.1).step(
            program.live_gradients())
        for key, value in model.live_parameters().items():
            _assert_same_bits(value, before[key] - 0.1 * grads[key][0])
        assert np.any(model.live_parameters()["head.W"] != before["head.W"])

    def test_zero_grad_keeps_every_array_bound(self):
        model = build_mlp(6, [5, 4], 3, seed=1)
        program, _, _ = self._trained_step(model)
        held = program.live_gradients()
        layer_grads = model.live_gradients()
        gate_grads = {name: model.layer_by_name(name).unit_gate_grad
                      for name in program.gate_gradients()}
        assert np.any(held["head.W"])
        program.zero_grad()
        assert program.live_gradients() is held
        for key, value in model.live_gradients().items():
            assert value is layer_grads[key]
            assert np.shares_memory(held[key], value)
            assert not np.any(held[key])
        for name, value in gate_grads.items():
            assert model.layer_by_name(name).unit_gate_grad is value
            assert not np.any(value)

    def test_set_parameters_and_gates_unwrap_the_client_axis(self):
        model = build_mlp(6, [5, 4], 3, seed=1)
        program = CohortOfOne(model)
        target = _shifted(model.get_parameters())
        program.set_parameters({key: value[None] for key, value in target.items()})
        for key, value in model.get_parameters().items():
            _assert_same_bits(value, target[key])
        pattern = random_pattern(model, 0.5, rng=np.random.default_rng(4))
        program.set_unit_gates({name: gate[None] for name, gate in
                                gates_from_pattern(pattern).items()})
        for name, gate in gates_from_pattern(pattern).items():
            assert model.layer_by_name(name).unit_gate.shape == gate.shape
            assert np.array_equal(model.layer_by_name(name).unit_gate, gate)
        program.set_unit_gates(None)
        assert all(model.layer_by_name(name).unit_gate is None for name in pattern)
        program.set_batch_counts(np.array([3]))   # nothing to install at C = 1


class TestCohortClipping:
    @staticmethod
    def _grads(norm_scales, seed=0):
        rng = np.random.default_rng(seed)
        cohort = len(norm_scales)
        scale = np.asarray(norm_scales, dtype=np.float64)
        return {"conv.W": rng.normal(size=(cohort, 3, 2, 3, 3))
                * scale[:, None, None, None, None],
                "fc.W": rng.normal(size=(cohort, 37, 5)) * scale[:, None, None],
                "fc.b": rng.normal(size=(cohort, 5)) * scale[:, None]}

    @pytest.mark.parametrize("scales", [
        [1.0], [1e-3, 1.0, 1e3], [0.0, 1.0, 0.0], [1e-3, 1e-4],
        [np.nan, 1.0, 1e-3], [np.inf, 1e-3, 1.0], [1e200, 1e-200, 1.0],
        [10.0 ** (i - 8) for i in range(16)],
    ], ids=["c1", "mixed", "zero-norms", "none-clip", "nan", "inf",
            "overflow-underflow", "c16"])
    def test_norms_and_clipping_match_the_per_client_loop(self, scales):
        grads = self._grads(scales)
        arena = Arena.of(grads)
        optimizer = BatchedSGD(arena.like(), 1.0, clip_norm=0.5)
        with np.errstate(all="ignore"):
            _assert_same_bits(np.sqrt(cohort_squared_norms(arena, arena.like())),
                              _reference_cohort_grad_norms(grads))
            # the step leaves lr * (clipped gradient) in its gradient
            # arena, and x * 1.0 is a bitwise identity
            optimizer.step(arena)
            want = _reference_clip_gradients_cohort(grads, 0.5)
        for key in want:
            _assert_same_bits(arena[key], want[key])

    def test_rejects_a_non_positive_bound(self):
        with pytest.raises(ValueError, match="max_norm must be positive"):
            BatchedSGD(Arena.of(self._grads([1.0])), 0.1, clip_norm=0.0)


class TestCohortLosses:
    @pytest.mark.parametrize("counts", [
        (5, 5, 5), (5, 2, 4), (1, 1, 1), (3,)],
        ids=["uniform", "ragged", "single-row", "c1"])
    def test_match_the_per_client_slices(self, counts):
        rng = np.random.default_rng(3)
        width = max(counts)
        logits = _awkward_array((len(counts), width, 4), 9, special_share=0.1)
        labels = rng.integers(0, 4, size=(len(counts), width))
        counts = np.asarray(counts, dtype=np.int64)
        with np.errstate(all="ignore"):
            got = softmax_cross_entropy_cohort(logits, labels, counts)
            want = _reference_softmax_cross_entropy_cohort(logits, labels, counts)
        for new, old in zip(got, want):
            _assert_same_bits(new, old)
        _assert_same_bits(accuracy_cohort(logits, labels, counts),
                          _reference_accuracy_cohort(logits, labels, counts))


class TestImportanceBranchRows:
    """The per-row branches of the stacked Eq. 8 targets and of the
    gate-gradient normalisation, each against the 1-D reference."""

    @staticmethod
    def _normalize(gate_grads):
        """``_normalize_gate_gradients`` on ``(C, n)`` stacks or 1-D rows."""
        stacked = Arena.of({name: np.atleast_2d(value)
                            for name, value in gate_grads.items()})
        normalized = _normalize_gate_gradients(stacked, out=stacked.like())
        return {name: normalized[name].reshape(np.shape(value))
                for name, value in gate_grads.items()}

    @staticmethod
    def _rows_match(stacked_fn, reference_fn, stack):
        with np.errstate(all="ignore"):
            whole = stacked_fn({"layer": stack})["layer"]
            for index, row in enumerate(stack):
                want = reference_fn({"layer": row})["layer"]
                _assert_same_bits(whole[index], want)
                _assert_same_bits(stacked_fn({"layer": row})["layer"], want)
        return whole

    def test_equal_magnitudes_give_the_flat_target(self):
        noise = np.random.default_rng(0).normal(size=7)
        stack = np.stack([np.full(7, 3.25), noise, np.zeros(7),
                          np.full(7, 1e-13) * np.arange(7), noise * 1e-14])
        targets = self._rows_match(smoothed_targets,
                                   _reference_smoothed_targets, stack)
        for flat_row in (0, 2, 3, 4):
            _assert_same_bits(targets[flat_row], np.full(7, 0.5))
        assert np.ptp(targets[1]) > 0.1

    def test_single_unit_layer_is_flat(self):
        self._rows_match(smoothed_targets, _reference_smoothed_targets,
                         np.array([[2.0], [-1.0], [0.0]]))

    def test_nan_and_inf_magnitudes(self):
        stack = np.array([[1.0, np.nan, 2.0], [np.inf, 1.0, 2.0],
                          [1.0, 2.0, 4.0], [-np.inf, np.inf, 0.0]])
        targets = self._rows_match(smoothed_targets,
                                   _reference_smoothed_targets, stack)
        assert np.isnan(targets[[0, 1, 3]]).all()
        assert np.isfinite(targets[2]).all()

    def test_all_zero_gate_gradient_is_returned_unchanged(self):
        stack = np.array([[0.0, -0.0, 0.0, -0.0], [0.5, -2.0, 0.0, -0.0],
                          [-0.0, -0.0, -0.0, -0.0], [5e-324, 0.0, -5e-324, 0.0]])
        normalized = self._rows_match(self._normalize,
                                      _reference_normalize_gate_gradients, stack)
        for zero_row in (0, 2):
            _assert_same_bits(normalized[zero_row], stack[zero_row])
        _assert_same_bits(normalized[1], np.array([0.25, -1.0, 0.0, -0.0]))

    def test_nan_and_inf_gate_gradients(self):
        stack = np.array([[1.0, np.nan, -2.0], [np.inf, 1.0, -0.0],
                          [np.nan, np.nan, np.nan], [1.0, 2.0, 4.0]])
        self._rows_match(self._normalize,
                         _reference_normalize_gate_gradients, stack)

    def test_stacked_indicator_round_trips_its_rows(self):
        model = build_mlp(6, [5, 4], 3, seed=1)
        singles = [initialize_importance(model, seed=i) for i in range(3)]
        layout = BatchedModel(model, 3).gate_gradients()
        # an indicator listing its layers in another order still lands in
        # the program's unit-group order
        shuffled = [ImportanceIndicator(dict(reversed(single.scores.items())))
                    for single in singles]
        for stacked in (ImportanceIndicator.stack(singles, layout=layout),
                        ImportanceIndicator.stack(shuffled, layout=layout)):
            assert isinstance(stacked.scores, Arena)
            assert list(stacked.scores) == list(layout)
            for index, single in enumerate(singles):
                row = stacked.row(index)
                for name, values in single.scores.items():
                    _assert_same_bits(row.scores[name], values)
                    assert row.scores[name].base is None
