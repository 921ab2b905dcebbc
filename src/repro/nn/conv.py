"""2-D convolution and pooling layers (im2col implementation).

The unfold is one gather: ``np.take`` of each zero-padded sample through a
flat index built once per ``(channels, padded H, padded W, kernel, stride)``
and kept read-only in a bounded cache.  The index does not depend on the
batch size, so the cache holds at most 64 shapes' worth of per-sample
offsets however large the cohort folds get.

Bit-identity note: the unfold/fold helpers and the pooling kernels here are
pure data movement — which value lands where — so they may be rewritten
freely (a zeroed buffer filled in place instead of a padding call, a gather
instead of a strided transpose copy, strided views instead of a window
copy) as long as every value lands unchanged, and an output nobody reads
(the first layer's input gradient) may be skipped.
The operands of the matmuls and ``np.sum`` reductions may not change shape,
layout or order: their bits depend on all three (see the contract in
:mod:`repro.nn.batched`).
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

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
    """Fold columns back into an image, summing overlapping contributions."""
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
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
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
        the base array is a sound cache key; in-place optimizer updates keep
        the identity (and the cached view sees them for free).  The cache is
        only kept when the reshape is a true view — a copy would silently
        detach from subsequent in-place updates.
        """
        weights = self.params["W"]
        if self._w_mat_base is not weights:
            w_mat = weights.reshape(self.out_channels, -1)
            if w_mat.base is not weights:
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

    def expand_unit_mask(self, unit_mask: Array) -> ParamDict:
        unit_mask = np.asarray(unit_mask, dtype=np.float64)
        if unit_mask.shape != (self.out_channels,):
            raise ValueError(
                f"{self.name}: unit mask must have shape ({self.out_channels},), "
                f"got {unit_mask.shape}")
        w_mask = np.broadcast_to(
            unit_mask[:, None, None, None], self.params["W"].shape).copy()
        return {"W": w_mask, "b": unit_mask.copy()}

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


class MaxPool2d(Layer):
    """Non-overlapping max pooling (kernel == stride).

    Works on the ``k * k`` strided views ``x[:, :, i::k, j::k]`` — one per
    window position — instead of a copied ``(..., k * k)`` window tensor.
    The first maximum in row-major window order wins (strict ``>``), and a
    NaN beats every number, exactly as ``np.argmax`` picks; the output is
    the selected element itself.  (``np.max`` over the window is ``==`` to
    it, but among tied zeros of both signs returns whichever its SIMD path
    meets last; the next affine layer erases the sign of a zero either way.)
    """

    trainable = False
    _scratch = ("_index", "_x_shape")

    def __init__(self, kernel_size: int, name: str = "maxpool") -> None:
        super().__init__(name)
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self._index: Array | None = None
        self._x_shape: Tuple[int, ...] | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k != 0 or w % k != 0:
            raise ValueError(
                f"{self.name}: spatial dims ({h}, {w}) must be divisible by {k}")
        out = x[:, :, ::k, ::k]
        # an evaluation forward feeds no backward: it keeps no winner index
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
        self._index = index
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: Array) -> Array:
        if self._index is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        # every slot is written exactly once: the winner takes the gradient,
        # the others a literal +0.0 (``grad * mask`` would leave -0.0 there)
        grad_x = np.empty(self._x_shape, dtype=np.float64)
        for position in range(k * k):
            grad_x[:, :, position // k::k, position % k::k] = np.where(
                self._index == position, grad_out, 0.0)
        return grad_x

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        c, h, w = input_shape
        k = self.kernel_size
        return 0, (c, h // k, w // k)


class AvgPool2d(Layer):
    """Non-overlapping average pooling (kernel == stride)."""

    trainable = False
    _scratch = ("_x_shape",)

    def __init__(self, kernel_size: int, name: str = "avgpool") -> None:
        super().__init__(name)
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self._x_shape: Tuple[int, ...] | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k != 0 or w % k != 0:
            raise ValueError(
                f"{self.name}: spatial dims ({h}, {w}) must be divisible by {k}")
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

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        c, h, w = input_shape
        k = self.kernel_size
        return 0, (c, h // k, w // k)
