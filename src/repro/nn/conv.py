"""2-D convolution and pooling layers (im2col implementation).

Each data-movement kernel reads through a flat per-sample index built once
per shape and kept read-only in a bounded cache: the unfold is one
``np.take`` of each zero-padded sample (keyed by channels, padded H, padded
W, kernel and stride), and max pooling one ``np.take`` of every window
(keyed by channels, H, W, kernel and the input's memory layout) plus one
back through the inverse permutation.  The indices do not depend on the
batch size, so each cache holds at most 64 shapes' worth of per-sample
offsets however large the cohort folds get.  The fold (``_col2im``)
accumulates its taps into a channels-last buffer, where each tap adds long
contiguous runs, and transposes once at the end; only a fold whose sum holds
a NaN is redone by the NCHW tap loop, whose NaN signs it must keep.

Bit-identity note: the unfold/fold helpers and the pooling kernels here are
pure data movement — which value lands where — so they may be rewritten
freely (a zeroed buffer filled in place instead of a padding call, a gather
instead of a strided transpose copy or strided window views, a
channels-last accumulator, a select on bit patterns instead of
``np.where``) as long as every value lands unchanged and every pixel of the
fold adds its contributions in the same order, and an output nobody reads
(the first layer's input gradient) may be skipped.
The operands of the matmuls and ``np.sum`` reductions may not change shape,
layout or order: their bits depend on all three (see the contract in
:mod:`repro.nn.batched`).
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from ..util import non_negative_int, positive_int
from . import initializers
from .base import Array, Layer, ParamDict, as_float


def _check_fits_kernel(name: str, h: int, w: int, kernel: int, padding: int) -> None:
    """Reject a spatial size the kernel does not fit in, even padded."""
    if min(h, w) + 2 * padding < kernel:
        raise ValueError(
            f"{name}: input spatial size ({h}, {w}) with padding {padding} "
            f"is smaller than the kernel {kernel}")


@functools.lru_cache(maxsize=64)
def _unfold_index(channels: int, padded_h: int, padded_w: int, kernel: int,
                  stride: int) -> Array:
    """Flat per-sample gather index of the unfold, read-only.

    Position ``((oh * out_w + ow) * channels + c) * kernel**2 + ki * kernel
    + kj`` holds the offset of pixel ``(c, oh * stride + ki, ow * stride +
    kj)`` in one sample's C-contiguous ``(channels, padded_h, padded_w)``
    image.
    """
    out_h = (padded_h - kernel) // stride + 1
    out_w = (padded_w - kernel) // stride + 1
    rows = np.arange(out_h)[:, None, None, None, None] * stride \
        + np.arange(kernel)[None, None, None, :, None]
    columns = np.arange(out_w)[None, :, None, None, None] * stride \
        + np.arange(kernel)[None, None, None, None, :]
    planes = np.arange(channels)[None, None, :, None, None] * (padded_h * padded_w)
    index = (planes + rows * padded_w + columns).ravel()
    index.flags.writeable = False
    return index


def _im2col(x: Array, kernel: int, stride: int, padding: int) -> Tuple[Array, int, int]:
    """Unfold ``x`` of shape (N, C, H, W) into columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` is a fresh C-contiguous
    array of shape ``(N * out_h * out_w, C * kernel * kernel)``.
    """
    n, c, h, w = x.shape
    ph, pw = h + 2 * padding, w + 2 * padding
    if padding > 0:
        padded = np.zeros((n, c, ph, pw), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    out_h = (ph - kernel) // stride + 1
    out_w = (pw - kernel) // stride + 1
    index = _unfold_index(c, ph, pw, kernel, stride)
    cols = np.take(x.reshape(n, c * ph * pw), index, axis=1)
    return cols.reshape(n * out_h * out_w, c * kernel * kernel), out_h, out_w


def _col2im(cols: Array, x_shape: Tuple[int, int, int, int], kernel: int,
            stride: int, padding: int, out_h: int, out_w: int) -> Array:
    """Fold columns back into an image, summing overlapping contributions.

    The taps accumulate into a channels-last buffer, where a tap's slab
    ``cols6[..., i, j]`` runs ``out_w * C`` values along each output row,
    then one transposing copy returns the NCHW image.  Every pixel still
    receives its contributions in ``(i, j)`` order, starting from ``+0.0``.

    That fixes every bit except a NaN's sign: where two NaNs meet in one
    pixel's sum (``-inf + inf`` is a negative NaN), which one survives
    depends on the inner loop numpy's add runs, and that differs between
    the two layouts.  So a fold holding a NaN is redone by the NCHW tap
    loop (``_fold_nchw``); any other fold pays one ``min`` to find out.
    """
    n, c, h, w = x_shape
    ph, pw = h + 2 * padding, w + 2 * padding
    acc = np.zeros((n, ph, pw, c), dtype=np.float64)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    for i in range(kernel):
        for j in range(kernel):
            acc[:, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                cols6[..., i, j]
    if acc.size and np.isnan(acc.min()):
        x_padded = _fold_nchw(cols6, ph, pw, stride)
    else:
        # a copy, not ascontiguousarray: at C = 1 that would keep acc's strides
        x_padded = acc.transpose(0, 3, 1, 2).copy()
    if padding > 0:
        return x_padded[:, :, padding:padding + h, padding:padding + w]
    return x_padded


def _fold_nchw(cols6: Array, ph: int, pw: int, stride: int) -> Array:
    """The fold as an NCHW tap loop: ``_col2im``'s result for a NaN sum."""
    n, out_h, out_w, c, kernel, _ = cols6.shape
    x_padded = np.zeros((n, c, ph, pw), dtype=np.float64)
    taps = cols6.transpose(0, 3, 1, 2, 4, 5)
    for i in range(kernel):
        for j in range(kernel):
            x_padded[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                taps[:, :, :, :, i, j]
    return x_padded


class Conv2d(Layer):
    """2-D convolution.  Sparsifiable units are the output channels."""

    # the reshape cache is scratch too: the cached view would pickle as a
    # full copy of W
    _scratch = ("_cols", "_x_shape", "_out_hw", "_pre_gate", "_w_mat",
                "_w_mat_base")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, name: str = "conv",
                 sparsifiable: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(name)
        self.in_channels = positive_int(in_channels, "in_channels")
        self.out_channels = positive_int(out_channels, "out_channels")
        self.kernel_size = positive_int(kernel_size, "kernel_size")
        self.stride = positive_int(stride, "stride")
        self.padding = non_negative_int(padding, "padding")
        self.sparsifiable = sparsifiable
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        self.params = {
            "W": initializers.he_uniform(
                rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            "b": initializers.zeros((out_channels,)),
        }
        self.zero_grad()
        self._cols: Array | None = None
        self._x_shape: Tuple[int, int, int, int] | None = None
        self._out_hw: Tuple[int, int] | None = None
        self._pre_gate: Array | None = None
        self._w_mat: Array | None = None
        self._w_mat_base: Array | None = None

    def _weight_matrix(self) -> Array:
        """``W`` reshaped to ``(out_channels, fan_in)``, cached per array.

        ``set_parameters`` replaces the ``W`` array object, so identity of
        the ``W`` array is a sound cache key; in-place optimizer updates keep
        the identity (and the cached view sees them for free).  The cache is
        only kept when the reshape is a true view — a copy would silently
        detach from subsequent in-place updates.  A view's ``base`` is the
        buffer that owns the memory, so when ``W`` is itself a view (of a
        training program's arena) the reshape's base is that buffer, never
        ``W``: the test is against ``W``'s owner.
        """
        weights = self.params["W"]
        if self._w_mat_base is not weights:
            w_mat = weights.reshape(self.out_channels, -1)
            owner = weights if weights.base is None else weights.base
            if w_mat.base is not owner:
                return w_mat
            self._w_mat = w_mat
            self._w_mat_base = weights
        return self._w_mat

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected input (N, {self.in_channels}, H, W), got {x.shape}")
        _check_fits_kernel(self.name, *x.shape[2:], self.kernel_size, self.padding)
        n = x.shape[0]
        cols, out_h, out_w = _im2col(x, self.kernel_size, self.stride, self.padding)
        w_mat = self._weight_matrix()
        out = cols @ w_mat.T + self.params["b"]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        self._pre_gate = out
        return self._apply_unit_gate(out, unit_axis=1)

    def backward(self, grad_out: Array) -> Array:
        grad_mat = self._backward_params(grad_out)
        grad_cols = grad_mat @ self._weight_matrix()
        return _col2im(grad_cols, self._x_shape, self.kernel_size, self.stride,
                       self.padding, *self._out_hw)

    def backward_params(self, grad_out: Array) -> None:
        self._backward_params(grad_out)

    def _backward_params(self, grad_out: Array) -> Array:
        """Accumulate the gate, ``W`` and ``b`` gradients; return the
        ``(N * out_h * out_w, out_channels)`` output-gradient matrix."""
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        grad_pre = self._accumulate_gate_grad(grad_out, self._pre_gate, unit_axis=1)
        n = self._x_shape[0]
        out_h, out_w = self._out_hw
        grad_mat = grad_pre.transpose(0, 2, 3, 1).reshape(n * out_h * out_w,
                                                          self.out_channels)
        self.grads["W"] += (grad_mat.T @ self._cols).reshape(self.params["W"].shape)
        self.grads["b"] += np.sum(grad_mat, axis=0)
        return grad_mat

    @property
    def n_units(self) -> int:
        return self.out_channels if self.sparsifiable else 0

    def _unit_mask(self, unit_mask: Array) -> Array:
        unit_mask = np.asarray(unit_mask, dtype=np.float64)
        if unit_mask.shape != (self.out_channels,):
            raise ValueError(
                f"{self.name}: unit mask must have shape ({self.out_channels},), "
                f"got {unit_mask.shape}")
        return unit_mask

    def expand_unit_mask(self, unit_mask: Array) -> ParamDict:
        unit_mask = self._unit_mask(unit_mask)
        w_mask = np.broadcast_to(
            unit_mask[:, None, None, None], self.params["W"].shape).copy()
        return {"W": w_mask, "b": unit_mask.copy()}

    def kept_parameter_count(self, unit_mask: Array) -> int:
        # a kept output channel keeps its filter and its bias entry
        kept = np.count_nonzero(self._unit_mask(unit_mask))
        return int(sum(kept * (value.size // self.out_channels)
                       for value in self.params.values()))

    def unit_weight_magnitude(self) -> Array:
        return (np.sum(np.abs(self.params["W"]), axis=(1, 2, 3))
                + np.abs(self.params["b"]))

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        if len(input_shape) != 3:
            raise ValueError(f"{self.name}: conv layer expects (C, H, W) input shape")
        _, h, w = input_shape
        _check_fits_kernel(self.name, h, w, self.kernel_size, self.padding)
        out_h = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        flops_per_position = 2 * self.in_channels * self.kernel_size * self.kernel_size
        flops = flops_per_position * self.out_channels * out_h * out_w
        return flops, (self.out_channels, out_h, out_w)


@functools.lru_cache(maxsize=64)
def _pool_index(channels: int, h: int, w: int, kernel: int,
                channels_last: bool) -> Tuple[Array, Array]:
    """Per-sample window gather of a pooling layer and its inverse, read-only.

    ``index[p, (c * out_h + oh) * out_w + ow]`` is the offset of window
    position ``p = ki * kernel + kj`` of output pixel ``(c, oh, ow)`` in one
    sample's memory: C-contiguous ``(channels, h, w)``, or ``(h, w,
    channels)`` when ``channels_last``.  The windows tile the image, so
    ``index`` is a permutation; ``inverse[s]`` is the flat ``(p, c, oh,
    ow)`` position that holds NCHW offset ``s`` (whichever memory the
    forward read).
    """
    out_h, out_w = h // kernel, w // kernel
    ki = np.arange(kernel)[:, None, None, None, None]
    kj = np.arange(kernel)[None, :, None, None, None]
    c = np.arange(channels)[None, None, :, None, None]
    rows = np.arange(out_h)[None, None, None, :, None] * kernel + ki
    columns = np.arange(out_w)[None, None, None, None, :] * kernel + kj
    nchw = ((c * h + rows) * w + columns).ravel()
    inverse = np.empty_like(nchw)
    inverse[nchw] = np.arange(nchw.size)
    index = ((rows * w + columns) * channels + c).ravel() if channels_last else nchw
    index = index.reshape(kernel * kernel, channels * out_h * out_w)
    index.flags.writeable = False
    inverse.flags.writeable = False
    return index, inverse


class _Pool2d(Layer):
    """Non-overlapping pooling (kernel == stride) over (N, C, H, W) inputs."""

    trainable = False

    def __init__(self, kernel_size: int, name: str) -> None:
        super().__init__(name)
        self.kernel_size = positive_int(kernel_size, "kernel_size")
        self._x_shape: Tuple[int, ...] | None = None

    def _check_spatial(self, h: int, w: int) -> None:
        k = self.kernel_size
        if h % k != 0 or w % k != 0:
            raise ValueError(
                f"{self.name}: spatial dims ({h}, {w}) must be divisible by {k}")

    def _checked_input(self, x: Array) -> Array:
        x = as_float(x)
        if x.ndim != 4:
            raise ValueError(
                f"{self.name}: expected input (N, C, H, W), got {x.shape}")
        self._check_spatial(*x.shape[2:])
        return x

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        if len(input_shape) != 3:
            raise ValueError(
                f"{self.name}: expected input shape (C, H, W), got {tuple(input_shape)}")
        c, h, w = input_shape
        self._check_spatial(h, w)
        k = self.kernel_size
        return 0, (c, h // k, w // k)


class MaxPool2d(_Pool2d):
    """Non-overlapping max pooling (kernel == stride).

    One ``np.take`` through :func:`_pool_index` reads every window into
    ``(N, k * k, C * out_h * out_w)`` blocks — from the channels-last memory
    a conv -> ReLU output has, else from the C-contiguous NCHW array — so
    each selection pass runs over whole samples, one window position at a
    time.  The first maximum in row-major window order wins (strict ``>``),
    and a NaN beats every number, exactly as ``np.argmax`` picks; the
    output is the selected element itself, C-contiguous NCHW.  (``np.max``
    over the window is ``==`` to it, but among tied zeros of both signs
    returns whichever its SIMD path meets last; the next affine layer
    erases the sign of a zero either way.)

    Both directions select on the int64 views of the float bits, ``a ^ ((a
    ^ b) * wins)`` and ``b * wins`` with ``wins`` 0 or 1, instead of
    ``np.where``, whose per-element branch mispredicts on pooling's
    coin-flip masks: the bits move unchanged, as ``np.where`` would move
    them.  The backward builds the blocks (the winner's gradient, else
    ``+0.0``) and takes them home through the inverse permutation as a
    fresh C-contiguous NCHW array.
    """

    _scratch = ("_index", "_x_shape")

    def __init__(self, kernel_size: int, name: str = "maxpool") -> None:
        super().__init__(kernel_size, name)
        self._index: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = self._checked_input(x)
        n, c, h, w = x.shape
        k = self.kernel_size
        nhwc = x.transpose(0, 2, 3, 1)
        channels_last = nhwc.flags.c_contiguous
        # the reshape is a view of either memory order, else a C-order copy
        flat = (nhwc if channels_last else x).reshape(n, c * h * w)
        index, _ = _pool_index(c, h, w, k, channels_last)
        windows = np.take(flat, index, axis=1)
        window_bits = windows.view(np.int64)
        out = windows[:, 0].copy()
        bits = out.view(np.int64)
        # an evaluation forward feeds no backward: it keeps no winner index
        winner = np.zeros(out.shape, dtype=np.intp) if train else None
        has_nan = x.size > 0 and np.isnan(x.min())
        better = np.empty(out.shape, dtype=bool)
        step = np.empty(out.shape, dtype=np.int64)
        for position in range(1, k * k):
            candidate = windows[:, position]
            np.greater(candidate, out, out=better)
            if has_nan:
                better |= np.isnan(candidate) & ~np.isnan(out)
            # the bits that turn out into the candidate where it wins, else 0
            np.bitwise_xor(bits, window_bits[:, position], out=step)
            np.multiply(step, better, out=step)
            bits ^= step
            if train:
                # positions only rise, so the latest win is the largest
                np.multiply(better, position, out=step)
                np.maximum(winner, step, out=winner)
        out_shape = (n, c, h // k, w // k)
        self._index = None if winner is None else winner.reshape(out_shape)
        self._x_shape = x.shape
        return out.reshape(out_shape)

    def backward(self, grad_out: Array) -> Array:
        if self._index is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k = self.kernel_size
        _, inverse = _pool_index(c, h, w, k, False)
        block = (n, 1, c * (h // k) * (w // k))
        # every slot is written exactly once: the winner takes the gradient's
        # bits (float64, for the int64 view), the others all-zero bits, +0.0
        # (a float ``grad * mask`` would leave -0.0 there, and NaN under an
        # infinite gradient)
        blocks = np.multiply(self._index.reshape(block) == np.arange(k * k)[:, None],
                             as_float(grad_out).reshape(block).view(np.int64))
        grad_x = np.take(blocks.view(np.float64).reshape(n, c * h * w), inverse, axis=1)
        return grad_x.reshape(self._x_shape)


class AvgPool2d(_Pool2d):
    """Non-overlapping average pooling (kernel == stride).

    The window mean sums in memory order, so it reduces a C-contiguous NCHW
    array whatever layout arrives: a conv -> ReLU output is channels-last
    in memory, and the cohort-folded layer must see the same bytes.
    """

    _scratch = ("_x_shape",)

    def __init__(self, kernel_size: int, name: str = "avgpool") -> None:
        super().__init__(kernel_size, name)

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = np.ascontiguousarray(self._checked_input(x))
        n, c, h, w = x.shape
        k = self.kernel_size
        self._x_shape = x.shape
        reshaped = x.reshape(n, c, h // k, k, w // k, k)
        return reshaped.mean(axis=(3, 5))

    def backward(self, grad_out: Array) -> Array:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k = self.kernel_size
        grad = np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3) / (k * k)
        return grad
