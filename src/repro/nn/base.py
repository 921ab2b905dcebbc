"""Base abstractions for the numpy neural-network substrate.

The federated-learning stack in this repository does not depend on any
deep-learning framework.  Instead, ``repro.nn`` provides a small, explicit
layer library with hand-written forward and backward passes.  Every layer

* stores its trainable parameters in ``self.params`` (a ``dict`` mapping a
  parameter name to a numpy array),
* accumulates gradients of the same shapes in ``self.grads``,
* optionally exposes *sparsifiable units* (neurons, convolution channels or
  recurrent hidden units) that structured sparsification can gate on and off.

Unit gating is the mechanism FedLPS uses to make sparse patterns learnable:
a layer with ``n_units`` units accepts a gate vector of that length, applies
it multiplicatively on the unit axis of its output and accumulates the
gradient of the loss with respect to the gate in ``self.unit_gate_grad``.
With a straight-through estimator this gradient becomes the gradient with
respect to the importance indicator ``Q`` of the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

Array = np.ndarray
ParamDict = Dict[str, np.ndarray]


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Layers are
    stateful between the two calls (the forward pass caches whatever the
    backward pass needs), which mirrors how a define-by-run framework would
    behave for a single training step.
    """

    #: whether the layer owns trainable parameters
    trainable: bool = True
    #: whether structured sparsification may prune this layer's units
    sparsifiable: bool = False
    #: attributes holding forward-pass scratch (activations, caches): rebuilt
    #: by the next forward, so pickles and copies carry ``None`` instead
    _scratch: Tuple[str, ...] = ()

    def __init__(self, name: str) -> None:
        self.name = name
        self.params: ParamDict = {}
        self.grads: ParamDict = {}
        # unit gating state (only meaningful when ``sparsifiable`` is True)
        self.unit_gate: Optional[Array] = None
        self.unit_gate_grad: Optional[Array] = None

    # ------------------------------------------------------------------ API
    def forward(self, x: Array, *, train: bool = True) -> Array:
        raise NotImplementedError

    def backward(self, grad_out: Array) -> Array:
        raise NotImplementedError

    def backward_params(self, grad_out: Array) -> None:
        """:meth:`backward` for a caller that will not read the input
        gradient (the first layer of a training step): accumulate the same
        parameter and gate gradients.  Layers whose input gradient costs
        real work override this to skip it."""
        self.backward(grad_out)

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in self._scratch:
            state[key] = None
        return state

    def zero_grad(self) -> None:
        """Reset parameter and gate gradients to zero, in place once they
        exist: a training program's arena views stay bound."""
        for key, value in self.params.items():
            if key in self.grads:
                self.grads[key].fill(0.0)
            else:
                self.grads[key] = np.zeros_like(value)
        if self.sparsifiable and self.n_units > 0:
            if self.unit_gate_grad is None:
                self.unit_gate_grad = np.zeros(self.n_units, dtype=np.float64)
            else:
                self.unit_gate_grad.fill(0.0)

    # ------------------------------------------------------------ unit API
    @property
    def n_units(self) -> int:
        """Number of sparsifiable units owned by this layer (0 if none)."""
        return 0

    def set_unit_gate(self, gate: Optional[Array]) -> None:
        """Install a multiplicative gate over this layer's units.

        ``gate`` must have length :attr:`n_units`; ``None`` removes gating.
        """
        if gate is None:
            self.unit_gate = None
            return
        gate = np.asarray(gate, dtype=np.float64)
        if gate.shape != (self.n_units,):
            raise ValueError(
                f"layer {self.name!r} expects a gate of shape ({self.n_units},), "
                f"got {gate.shape}"
            )
        self.unit_gate = gate

    def expand_unit_mask(self, unit_mask: Array) -> ParamDict:
        """Expand a binary unit mask into binary masks over the layer params.

        The returned dictionary maps parameter names to arrays of the same
        shape as the parameters, with zeros in the entries that belong to
        pruned units.  Layers without units return an empty dict.
        """
        return {}

    def unit_weight_magnitude(self) -> Array:
        """Per-unit sum of absolute parameter values (``|omega|_J`` in Eq. 8).

        Only meaningful for sparsifiable layers; the default raises because a
        caller asking for magnitudes of a unit-less layer is a bug.
        """
        raise NotImplementedError(
            f"layer {self.name!r} has no sparsifiable units")

    # ------------------------------------------------------------ accounting
    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        """Return ``(flops, output_shape)`` for a single example.

        ``input_shape`` excludes the batch dimension.  The default counts no
        FLOPs and passes the shape through, which is appropriate for cheap
        element-wise layers.
        """
        return 0, input_shape

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.flops_per_example(input_shape)[1]

    # ------------------------------------------------------------ internals
    def _apply_unit_gate(self, out: Array, unit_axis: int) -> Array:
        """Multiply ``out`` by the installed gate along ``unit_axis``."""
        if self.unit_gate is None:
            return out
        shape = [1] * out.ndim
        shape[unit_axis] = self.unit_gate.shape[0]
        return out * self.unit_gate.reshape(shape)

    def _accumulate_gate_grad(self, grad_out: Array, pre_gate_out: Array,
                              unit_axis: int) -> Array:
        """Accumulate d(loss)/d(gate) and return the gradient w.r.t. the
        pre-gate output (i.e. ``grad_out`` scaled by the gate)."""
        if self.unit_gate is None:
            return grad_out
        axes = tuple(i for i in range(grad_out.ndim) if i != unit_axis)
        gate_grad = np.sum(grad_out * pre_gate_out, axis=axes)
        if self.unit_gate_grad is None:
            self.unit_gate_grad = np.zeros(self.n_units, dtype=np.float64)
        self.unit_gate_grad += gate_grad
        shape = [1] * grad_out.ndim
        shape[unit_axis] = self.unit_gate.shape[0]
        return grad_out * self.unit_gate.reshape(shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def as_float(x: Array) -> Array:
    """Coerce inputs to float64 arrays (the substrate's working dtype)."""
    return np.asarray(x, dtype=np.float64)
