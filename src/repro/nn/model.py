"""Sequential model container with structured-unit introspection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Layer
from .params import ParamDict


@dataclass(frozen=True)
class UnitGroup:
    """Description of one sparsifiable layer's units.

    Attributes:
        layer_name: name of the owning layer.
        n_units: number of structurally prunable units (neurons / channels /
            hidden units) in that layer.
        offset: index of the group's first unit in the model-wide flattened
            unit vector (the importance indicator ``Q`` of the paper).
    """

    layer_name: str
    n_units: int
    offset: int


class Sequential:
    """A plain feed-forward stack of layers.

    Besides the usual ``forward`` / ``backward`` / parameter bookkeeping, the
    model exposes the *unit layout* required by structured sparsification:
    the ordered list of sparsifiable layers, the total number of units ``J``
    and conversion between model-wide unit vectors and per-layer slices.
    """

    def __init__(self, layers: Sequence[Layer], *, input_shape: Tuple[int, ...],
                 name: str = "model") -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValueError(f"layer names must be unique, got {names}")
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self._unit_groups = self._build_unit_groups()

    # ------------------------------------------------------------- forward
    def forward(self, x: Array, *, train: bool = True) -> Array:
        out = x
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, grad_out: Array, *,
                 input_grad: bool = True) -> Optional[Array]:
        """Back-propagate ``grad_out``; returns the gradient w.r.t. the
        model input, or ``None`` with ``input_grad=False`` — a training step
        never reads it, so the first layer skips computing it (every
        parameter and gate gradient is accumulated either way)."""
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if input_grad:
            return self.layers[0].backward(grad)
        self.layers[0].backward_params(grad)
        return None

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # ---------------------------------------------------------- parameters
    def get_parameters(self) -> ParamDict:
        """Snapshot of all trainable parameters keyed ``"layer.param"``."""
        snapshot: ParamDict = {}
        for layer in self.layers:
            for key, value in layer.params.items():
                snapshot[f"{layer.name}.{key}"] = np.array(value, copy=True)
        return snapshot

    def set_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        """Load a parameter snapshot produced by :meth:`get_parameters`."""
        for layer in self.layers:
            for key in layer.params:
                full_key = f"{layer.name}.{key}"
                if full_key not in params:
                    raise KeyError(f"missing parameter {full_key!r}")
                value = np.asarray(params[full_key], dtype=np.float64)
                if value.shape != layer.params[key].shape:
                    raise ValueError(
                        f"shape mismatch for {full_key!r}: "
                        f"{value.shape} vs {layer.params[key].shape}")
                layer.params[key] = np.array(value, copy=True)

    def live_parameters(self) -> ParamDict:
        """The live parameter arrays (no copies) for in-place SGD; valid
        until the next :meth:`set_parameters`, which rebinds them."""
        return {f"{layer.name}.{key}": value
                for layer in self.layers for key, value in layer.params.items()}

    def live_gradients(self) -> ParamDict:
        """The live gradient arrays (no copies); ``zero_grad`` refills them
        in place, so they stay valid across steps."""
        return {f"{layer.name}.{key}": value
                for layer in self.layers for key, value in layer.grads.items()}

    @property
    def num_parameters(self) -> int:
        return int(sum(v.size for layer in self.layers for v in layer.params.values()))

    # --------------------------------------------------------------- units
    def _build_unit_groups(self) -> List[UnitGroup]:
        groups: List[UnitGroup] = []
        offset = 0
        for layer in self.layers:
            if layer.sparsifiable and layer.n_units > 0:
                groups.append(UnitGroup(layer.name, layer.n_units, offset))
                offset += layer.n_units
        return groups

    @property
    def unit_groups(self) -> List[UnitGroup]:
        return list(self._unit_groups)

    @property
    def total_units(self) -> int:
        """``J`` in the paper: the number of sparsifiable units in the model."""
        return int(sum(group.n_units for group in self._unit_groups))

    def layer_by_name(self, name: str) -> Layer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")

    def set_unit_gates(self, gates: Optional[Mapping[str, np.ndarray]]) -> None:
        """Install per-layer unit gates; ``None`` clears all gates."""
        for group in self._unit_groups:
            layer = self.layer_by_name(group.layer_name)
            layer.set_unit_gate(None if gates is None else gates.get(group.layer_name))

    def gate_gradients(self) -> Dict[str, np.ndarray]:
        """Collect accumulated d(loss)/d(gate) for all sparsifiable layers."""
        grads: Dict[str, np.ndarray] = {}
        for group in self._unit_groups:
            layer = self.layer_by_name(group.layer_name)
            grad = layer.unit_gate_grad
            grads[group.layer_name] = (np.zeros(group.n_units) if grad is None
                                       else np.array(grad, copy=True))
        return grads

    def expand_unit_masks(self, unit_masks: Mapping[str, np.ndarray]) -> ParamDict:
        """Expand per-layer unit masks into a parameter-level binary mask.

        Parameters of non-sparsifiable layers are fully retained (mask of
        ones), which matches the paper's treatment of the output layer.
        """
        mask: ParamDict = {}
        for layer in self.layers:
            if layer.sparsifiable and layer.n_units > 0 and layer.name in unit_masks:
                layer_masks = layer.expand_unit_mask(unit_masks[layer.name])
            else:
                layer_masks = {}
            for key, value in layer.params.items():
                mask[f"{layer.name}.{key}"] = layer_masks.get(
                    key, np.ones_like(value))
        return mask

    def unit_weight_magnitudes(self) -> Dict[str, np.ndarray]:
        """Per-unit sum of absolute parameter values, ``|omega|_J`` in Eq. (8)."""
        return {group.layer_name:
                self.layer_by_name(group.layer_name).unit_weight_magnitude()
                for group in self._unit_groups}

    # ---------------------------------------------------------- accounting
    def flops_per_example(self) -> int:
        """Dense forward FLOPs for one example (training cost models scale this)."""
        shape = self.input_shape
        total = 0
        for layer in self.layers:
            flops, shape = layer.flops_per_example(shape)
            total += flops
        return total

    def layer_flops(self) -> Dict[str, int]:
        """Per-layer dense forward FLOPs for one example."""
        shape = self.input_shape
        breakdown: Dict[str, int] = {}
        for layer in self.layers:
            flops, shape = layer.flops_per_example(shape)
            breakdown[layer.name] = flops
        return breakdown

    # ------------------------------------------------------------- utility
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential(name={self.name!r}, layers=[{inner}])"
