"""Recurrent layers (vanilla RNN and LSTM) with full back-propagation
through time, implemented in numpy.

Both layers consume input of shape ``(N, T, D)`` and return the full hidden
sequence ``(N, T, H)``.  Their sparsifiable units are the hidden units.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import initializers
from .activations import sigmoid
from .base import Array, Layer, ParamDict, as_float


class RNN(Layer):
    """Single-layer vanilla (tanh) recurrent network."""

    _scratch = ("_x", "_h", "_pre_gate")

    def __init__(self, input_dim: int, hidden_dim: int, *, name: str = "rnn",
                 sparsifiable: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(name)
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("input_dim and hidden_dim must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.sparsifiable = sparsifiable
        rng = rng or np.random.default_rng(0)
        self.params = {
            "Wx": initializers.glorot_uniform(rng, (input_dim, hidden_dim),
                                              input_dim, hidden_dim),
            "Wh": initializers.orthogonal(rng, (hidden_dim, hidden_dim)),
            "b": initializers.zeros((hidden_dim,)),
        }
        self.zero_grad()
        self._x: Array | None = None
        self._h: Array | None = None
        self._pre_gate: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"{self.name}: expected input (N, T, {self.input_dim}), got {x.shape}")
        n, t, _ = x.shape
        h = np.zeros((n, t + 1, self.hidden_dim), dtype=np.float64)
        for step in range(t):
            pre = (x[:, step] @ self.params["Wx"] + h[:, step] @ self.params["Wh"]
                   + self.params["b"])
            h[:, step + 1] = np.tanh(pre)
        self._x = x
        self._h = h
        self._pre_gate = h[:, 1:]
        return self._apply_unit_gate(self._pre_gate, unit_axis=2)

    def backward(self, grad_out: Array) -> Array:
        if self._x is None or self._h is None or self._pre_gate is None:
            raise RuntimeError("backward called before forward")
        grad_seq = self._accumulate_gate_grad(grad_out, self._pre_gate, unit_axis=2)
        n, t, _ = self._x.shape
        grad_x = np.zeros_like(self._x)
        grad_h_next = np.zeros((n, self.hidden_dim), dtype=np.float64)
        for step in reversed(range(t)):
            h_t = self._h[:, step + 1]
            grad_h = grad_seq[:, step] + grad_h_next
            grad_pre = grad_h * (1.0 - h_t ** 2)
            self.grads["Wx"] += self._x[:, step].T @ grad_pre
            self.grads["Wh"] += self._h[:, step].T @ grad_pre
            self.grads["b"] += grad_pre.sum(axis=0)
            grad_x[:, step] = grad_pre @ self.params["Wx"].T
            grad_h_next = grad_pre @ self.params["Wh"].T
        return grad_x

    @property
    def n_units(self) -> int:
        return self.hidden_dim if self.sparsifiable else 0

    def expand_unit_mask(self, unit_mask: Array) -> ParamDict:
        unit_mask = np.asarray(unit_mask, dtype=np.float64)
        if unit_mask.shape != (self.hidden_dim,):
            raise ValueError(
                f"{self.name}: unit mask must have shape ({self.hidden_dim},)")
        wh_mask = np.outer(unit_mask, unit_mask)
        return {
            "Wx": np.broadcast_to(unit_mask, (self.input_dim, self.hidden_dim)).copy(),
            "Wh": wh_mask,
            "b": unit_mask.copy(),
        }

    def unit_weight_magnitude(self) -> Array:
        return (np.sum(np.abs(self.params["Wx"]), axis=0)
                + np.sum(np.abs(self.params["Wh"]), axis=0)
                + np.abs(self.params["b"]))

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        seq_len, _ = input_shape
        per_step = 2 * self.input_dim * self.hidden_dim + 2 * self.hidden_dim ** 2
        return per_step * seq_len, (seq_len, self.hidden_dim)


class LSTM(Layer):
    """Single-layer LSTM with gates ordered ``(input, forget, cell, output)``."""

    _scratch = ("_cache", "_x", "_pre_gate")

    def __init__(self, input_dim: int, hidden_dim: int, *, name: str = "lstm",
                 sparsifiable: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(name)
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("input_dim and hidden_dim must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.sparsifiable = sparsifiable
        rng = rng or np.random.default_rng(0)
        self.params = {
            "Wx": initializers.glorot_uniform(rng, (input_dim, 4 * hidden_dim),
                                              input_dim, 4 * hidden_dim),
            "Wh": initializers.glorot_uniform(rng, (hidden_dim, 4 * hidden_dim),
                                              hidden_dim, 4 * hidden_dim),
            "b": initializers.zeros((4 * hidden_dim,)),
        }
        # bias the forget gate towards remembering, the usual LSTM trick
        self.params["b"][hidden_dim:2 * hidden_dim] = 1.0
        self.zero_grad()
        self._cache: List[Tuple[Array, ...]] | None = None
        self._x: Array | None = None
        self._pre_gate: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"{self.name}: expected input (N, T, {self.input_dim}), got {x.shape}")
        n, t, _ = x.shape
        hidden = self.hidden_dim
        h_prev = np.zeros((n, hidden), dtype=np.float64)
        c_prev = np.zeros((n, hidden), dtype=np.float64)
        outputs = np.zeros((n, t, hidden), dtype=np.float64)
        cache: List[Tuple[Array, ...]] = []
        for step in range(t):
            pre = (x[:, step] @ self.params["Wx"] + h_prev @ self.params["Wh"]
                   + self.params["b"])
            i_gate = sigmoid(pre[:, :hidden])
            f_gate = sigmoid(pre[:, hidden:2 * hidden])
            g_gate = np.tanh(pre[:, 2 * hidden:3 * hidden])
            o_gate = sigmoid(pre[:, 3 * hidden:])
            c_t = f_gate * c_prev + i_gate * g_gate
            tanh_c = np.tanh(c_t)
            h_t = o_gate * tanh_c
            cache.append((h_prev, c_prev, i_gate, f_gate, g_gate, o_gate, c_t, tanh_c))
            outputs[:, step] = h_t
            h_prev, c_prev = h_t, c_t
        self._x = x
        self._cache = cache
        self._pre_gate = outputs
        return self._apply_unit_gate(outputs, unit_axis=2)

    def backward(self, grad_out: Array) -> Array:
        if self._x is None or self._cache is None or self._pre_gate is None:
            raise RuntimeError("backward called before forward")
        grad_seq = self._accumulate_gate_grad(grad_out, self._pre_gate, unit_axis=2)
        n, t, _ = self._x.shape
        hidden = self.hidden_dim
        grad_x = np.zeros_like(self._x)
        grad_h_next = np.zeros((n, hidden), dtype=np.float64)
        grad_c_next = np.zeros((n, hidden), dtype=np.float64)
        for step in reversed(range(t)):
            h_prev, c_prev, i_gate, f_gate, g_gate, o_gate, c_t, tanh_c = \
                self._cache[step]
            grad_h = grad_seq[:, step] + grad_h_next
            grad_o = grad_h * tanh_c
            grad_c = grad_h * o_gate * (1.0 - tanh_c ** 2) + grad_c_next
            grad_i = grad_c * g_gate
            grad_f = grad_c * c_prev
            grad_g = grad_c * i_gate
            grad_c_next = grad_c * f_gate
            grad_pre = np.concatenate([
                grad_i * i_gate * (1.0 - i_gate),
                grad_f * f_gate * (1.0 - f_gate),
                grad_g * (1.0 - g_gate ** 2),
                grad_o * o_gate * (1.0 - o_gate),
            ], axis=1)
            self.grads["Wx"] += self._x[:, step].T @ grad_pre
            self.grads["Wh"] += h_prev.T @ grad_pre
            self.grads["b"] += grad_pre.sum(axis=0)
            grad_x[:, step] = grad_pre @ self.params["Wx"].T
            grad_h_next = grad_pre @ self.params["Wh"].T
        return grad_x

    @property
    def n_units(self) -> int:
        return self.hidden_dim if self.sparsifiable else 0

    def expand_unit_mask(self, unit_mask: Array) -> ParamDict:
        unit_mask = np.asarray(unit_mask, dtype=np.float64)
        if unit_mask.shape != (self.hidden_dim,):
            raise ValueError(
                f"{self.name}: unit mask must have shape ({self.hidden_dim},)")
        col_mask = np.tile(unit_mask, 4)
        wx_mask = np.broadcast_to(col_mask, (self.input_dim, 4 * self.hidden_dim)).copy()
        wh_mask = np.broadcast_to(col_mask, (self.hidden_dim, 4 * self.hidden_dim)).copy()
        wh_mask = wh_mask * unit_mask[:, None]
        return {"Wx": wx_mask, "Wh": wh_mask, "b": col_mask.copy()}

    def unit_weight_magnitude(self) -> Array:
        hidden = self.hidden_dim
        magnitude = np.zeros(hidden, dtype=np.float64)
        for block in range(4):
            cols = slice(block * hidden, (block + 1) * hidden)
            magnitude += np.sum(np.abs(self.params["Wx"][:, cols]), axis=0)
            magnitude += np.sum(np.abs(self.params["Wh"][:, cols]), axis=0)
            magnitude += np.abs(self.params["b"][cols])
        return magnitude

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        seq_len, _ = input_shape
        per_step = (2 * self.input_dim * 4 * self.hidden_dim
                    + 2 * self.hidden_dim * 4 * self.hidden_dim)
        return per_step * seq_len, (seq_len, self.hidden_dim)


class LastTimestep(Layer):
    """Select the final timestep of a sequence output ``(N, T, H) -> (N, H)``."""

    trainable = False
    _scratch = ("_shape",)

    def __init__(self, name: str = "last") -> None:
        super().__init__(name)
        self._shape: Tuple[int, ...] | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        self._shape = x.shape
        return x[:, -1]

    def backward(self, grad_out: Array) -> Array:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = np.zeros(self._shape, dtype=np.float64)
        grad[:, -1] = grad_out
        return grad

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        _, hidden = input_shape
        return 0, (hidden,)
