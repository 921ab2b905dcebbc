"""Fully-connected layer with optional structured-unit gating."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import initializers
from .base import Array, Layer, ParamDict, as_float


class Dense(Layer):
    """Affine layer ``y = x @ W + b``.

    The sparsifiable units of a dense layer are its output neurons.  When a
    unit gate is installed, the output is multiplied column-wise by the gate
    and the gradient of the loss with respect to the gate is accumulated for
    importance learning.
    """

    _scratch = ("_x", "_pre_gate")

    def __init__(self, in_features: int, out_features: int, *,
                 name: str = "dense", sparsifiable: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.sparsifiable = sparsifiable
        rng = rng or np.random.default_rng(0)
        self.params = {
            "W": initializers.glorot_uniform(
                rng, (in_features, out_features), in_features, out_features),
            "b": initializers.zeros((out_features,)),
        }
        self.zero_grad()
        self._x: Array | None = None
        self._pre_gate: Array | None = None

    # ------------------------------------------------------------------ core
    def forward(self, x: Array, *, train: bool = True) -> Array:
        x = as_float(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected input of shape (N, {self.in_features}), "
                f"got {x.shape}")
        self._x = x
        self._pre_gate = x @ self.params["W"] + self.params["b"]
        return self._apply_unit_gate(self._pre_gate, unit_axis=1)

    def backward(self, grad_out: Array) -> Array:
        return self._backward_params(grad_out) @ self.params["W"].T

    def backward_params(self, grad_out: Array) -> None:
        self._backward_params(grad_out)

    def _backward_params(self, grad_out: Array) -> Array:
        """Accumulate the gate, ``W`` and ``b`` gradients; return the
        gradient w.r.t. the pre-gate output."""
        if self._x is None or self._pre_gate is None:
            raise RuntimeError("backward called before forward")
        grad_pre = self._accumulate_gate_grad(grad_out, self._pre_gate, unit_axis=1)
        self.grads["W"] += self._x.T @ grad_pre
        self.grads["b"] += np.sum(grad_pre, axis=0)
        return grad_pre

    # ------------------------------------------------------------------ units
    @property
    def n_units(self) -> int:
        return self.out_features if self.sparsifiable else 0

    def expand_unit_mask(self, unit_mask: Array) -> ParamDict:
        unit_mask = np.asarray(unit_mask, dtype=np.float64)
        if unit_mask.shape != (self.out_features,):
            raise ValueError(
                f"{self.name}: unit mask must have shape ({self.out_features},), "
                f"got {unit_mask.shape}")
        return {
            "W": np.broadcast_to(unit_mask, (self.in_features, self.out_features)).copy(),
            "b": unit_mask.copy(),
        }

    def unit_weight_magnitude(self) -> Array:
        return np.sum(np.abs(self.params["W"]), axis=0) + np.abs(self.params["b"])

    # ------------------------------------------------------------ accounting
    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        if len(input_shape) != 1:
            raise ValueError(f"{self.name}: dense layer expects a flat input shape")
        flops = 2 * self.in_features * self.out_features
        return flops, (self.out_features,)
