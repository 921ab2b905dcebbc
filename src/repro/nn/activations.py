"""Activation layers and activation helper functions."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import Array, Layer, as_float


def sigmoid(x: Array) -> Array:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def softmax(logits: Array, axis: int = -1) -> Array:
    """Softmax along ``axis`` with the usual max-shift for stability."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


class ReLU(Layer):
    """Rectified linear unit."""

    trainable = False
    _scratch = ("_mask",)

    def __init__(self, name: str = "relu") -> None:
        super().__init__(name)
        self._mask: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: Array) -> Array:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    trainable = False
    _scratch = ("_out",)

    def __init__(self, name: str = "tanh") -> None:
        super().__init__(name)
        self._out: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        self._out = np.tanh(as_float(x))
        return self._out

    def backward(self, grad_out: Array) -> Array:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out ** 2)


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    trainable = False
    _scratch = ("_out",)

    def __init__(self, name: str = "sigmoid") -> None:
        super().__init__(name)
        self._out: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        self._out = sigmoid(as_float(x))
        return self._out

    def backward(self, grad_out: Array) -> Array:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Dropout(Layer):
    """Inverted dropout; active only when ``train=True``."""

    trainable = False
    _scratch = ("_mask",)

    def __init__(self, rate: float, name: str = "dropout", seed: int = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        super().__init__(name)
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: Array) -> Array:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    trainable = False
    _scratch = ("_input_shape",)

    def __init__(self, name: str = "flatten") -> None:
        super().__init__(name)
        self._input_shape: Tuple[int, ...] | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: Array) -> Array:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._input_shape)

    def flops_per_example(self, input_shape):
        return 0, (int(np.prod(input_shape)),)
