"""Batched (cohort-axis) kernels: run a whole cohort as one tensor program.

Vectorized cohort training stacks the same-architecture models of ``C``
cohort clients along a leading client axis, so each training step runs one
batched ``(C, N, K) @ (C, K, M)`` matmul per layer instead of ``C`` small
2-D ones.  Per-client unit-gate patterns become multiplicative gates of
shape ``(C, n_units)`` broadcast along the client axis, and per-client
mask/learning-rate/prox terms broadcast the same way.

Bit-identity contract
---------------------
The batched kernels are written so every per-client slice reproduces the
sequential :mod:`repro.nn` layers bit-for-bit:

* batched matmuls are slice-identical to their 2-D counterparts (each
  output row is an independent dot product; verified on the stacked,
  transposed and padded operand layouts used here);
* single-axis reductions (``axis=1`` of a ``(C, B, U)`` stack) are
  slice-identical to ``axis=0`` of the ``(B, U)`` slice;
* reductions over the last axis, or over ALL trailing axes, of a
  C-contiguous stack are slice-identical to the same reduction of each
  client's own array: ``np.sum`` / ``np.mean`` / ``np.std`` / ``np.max``
  on ``axis=-1`` of ``(C, U)``, the sum of squares of the ``(C, -1)``
  view against the full reduction of an N-d slice, ``axis=(2, 3, 4)`` of
  a ``(C, out, in, k, k)`` kernel stack against ``axis=(1, 2, 3)`` — numpy
  reduces the same contiguous inner run with the same pairwise tree
  either way (``tests/nn/test_slice_identity.py`` pins it across the
  pairwise block sizes, subnormals, signed zeros and non-finite values).
  The FedLPS bookkeeping (unit magnitudes, Eq. 8 targets, ``L_ir``,
  ``L_pr``, clipping norms, step metrics) runs on that class with no
  per-client loop.  What is still NOT proven: a multi-axis reduction
  with the kept axis in the middle — the conv gate gradient's
  ``axis=(0, 2, 3)`` with the unit axis between the reduced ones — so
  that one keeps reducing per-client slices in a short Python loop,
  reproducing the sequential computation on identical shapes;
* ragged cohorts (clients with fewer examples than the padded batch) are
  NOT fed through the batched matmuls: GEMM results depend on the row
  count (edge micro-kernels regroup the k accumulation), so with
  ``batch_counts`` installed every matmul and ``np.sum`` reduction runs
  the sequential 2-D computation on each client's leading ``counts[c]``
  real rows (padded rows sit in a trailing block and stay exactly zero
  through forward and backward);
* data-movement-only rewrites and elision of unread outputs are bit-safe;
  anything that changes a GEMM/reduction operand is not.  Where a value
  lands (im2col padding, the im2col and max-pool gathers through their
  cached indices, the pooling select on bit patterns, the inverse gather
  of a pooling gradient, the channels-last tap accumulator of the conv
  input gradient, whose pixels still add in the same order) and
  whether an output nobody reads is produced at all (the first layer's
  input gradient under ``backward(..., input_grad=False)``, the pooling
  index of an evaluation forward) never touch the arithmetic; the shape,
  layout or order of a matmul or ``np.sum`` operand does, so those stay
  exactly as written;
* element-wise arithmetic is bit-safe at any grouping: each element's
  result depends on its own operands only, so one ufunc call over a whole
  flat buffer equals the same ufunc per key (and a per-client operand
  broadcast along the client axis equals the same operand expanded per
  element).  Each program therefore keeps its parameters, gradients and
  gate gradients in one flat :class:`~repro.nn.arena.Arena` each — the
  layers hold views — and the trainers run their elementwise bookkeeping
  (proximal pull, masks, clip scales, momentum, the SGD step, the ``Q``
  update) over the whole arena, while every reduction still runs on a
  per-key (per-unit-layer) view of unchanged layout: the C-contiguous
  ``(C, ...)`` stack it always reduced;
* one client is a cohort of one, but NOT through the batched matmul
  (``(1, N, K) @ (1, K, M)`` against the 2-D GEMM is not a proven
  bit-identity; :func:`cohort_program` is where the trainers make that
  choice): :class:`CohortOfOne` puts this module's training surface
  over a single ``Sequential`` whose arrays live in ``(1, ...)`` arena
  blocks — its layers hold ``view[0]``, and ``value[0]`` unwraps every
  stacked input (no arithmetic) — so the model's own layers see the
  client's own 2-D / 4-D batch.  That is the sequential Dense / Conv2d
  GEMMs, and Dropout, Embedding, LSTM and gated sub-models, which have no
  batched kernel.  Everything the trainers do downstream of the model
  (cohort losses, ``BatchedSGD``, squared norms, stacked ``Q``) is in the
  slice-identical classes above.

The equivalence suite in ``tests/federated/test_batched.py`` pins this
contract against the per-client loop across masks, patterns, prox, momentum,
clipping and ragged shard sizes; ``tests/nn/test_kernel_equivalence.py``
keeps the loop the trainers used to own (``_reference_train_locally``,
``_reference_sparse_training``) as the byte oracle of both layouts.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .activations import Flatten, ReLU, Sigmoid, Tanh
from .arena import Arena
from .base import Array, Layer
from .conv import AvgPool2d, Conv2d, MaxPool2d, _check_fits_kernel, _col2im, _im2col
from .dense import Dense
from .model import Sequential, UnitGroup
from .params import ParamDict

#: layer types with a batched kernel (exact types: a subclass may override
#: semantics the batched kernels do not reproduce)
_STACKED_TYPES = (Dense, Conv2d)
_FOLDED_TYPES = (MaxPool2d, AvgPool2d)
_ELEMENTWISE_TYPES = (ReLU, Tanh, Sigmoid)


def batchable_model(model: Sequential) -> bool:
    """True when every layer of ``model`` has a batched kernel.

    Dropout (its own sequential RNG stream), embeddings and recurrent layers
    have no batched counterpart — models containing them fall back to the
    per-client loop.
    """
    layers = getattr(model, "layers", None)
    if not layers:
        return False
    supported = _STACKED_TYPES + _FOLDED_TYPES + _ELEMENTWISE_TYPES + (Flatten,)
    return all(type(layer) in supported for layer in layers)


def stack_param_dicts(param_dicts: Sequence[Mapping[str, np.ndarray]]) -> ParamDict:
    """Stack per-client parameter dictionaries along a new leading axis."""
    if not param_dicts:
        raise ValueError("cannot stack an empty cohort")
    first = param_dicts[0]
    return {key: np.array([params[key] for params in param_dicts],
                          dtype=np.float64)
            for key in first}


def unstack_param_dict(stacked: Mapping[str, np.ndarray], index: int) -> ParamDict:
    """Extract client ``index``'s parameter dictionary from a stacked one."""
    return {key: np.array(value[index], copy=True)
            for key, value in stacked.items()}


class _BatchedLayer:
    """Common state for layers carrying stacked ``(C, ...)`` parameters."""

    trainable = True
    sparsifiable = False

    def __init__(self, template: Layer, cohort: int) -> None:
        self.name = template.name
        self.cohort = cohort
        self.params: ParamDict = {
            key: np.repeat(value[None], cohort, axis=0)
            for key, value in template.params.items()}
        # the gradient and gate-gradient storage is the program's: a
        # BatchedModel binds them to views of its arenas
        self.grads: ParamDict = {}
        self.unit_gate: Optional[Array] = None
        self.unit_gate_grad: Optional[Array] = None
        #: per-client real-row counts when the padded batch is ragged;
        #: ``None`` selects the fully batched reductions
        self.batch_counts: Optional[np.ndarray] = None

    @property
    def n_units(self) -> int:
        return 0

    def set_unit_gate(self, gate: Optional[Array]) -> None:
        if gate is None:
            self.unit_gate = None
            return
        gate = np.asarray(gate, dtype=np.float64)
        if gate.shape != (self.cohort, self.n_units):
            raise ValueError(
                f"batched layer {self.name!r} expects a gate of shape "
                f"({self.cohort}, {self.n_units}), got {gate.shape}")
        self.unit_gate = gate

    def forward(self, x: Array, *, train: bool = True) -> Array:
        raise NotImplementedError

    def backward(self, grad_out: Array) -> Array:
        raise NotImplementedError

    def backward_params(self, grad_out: Array) -> None:
        """:meth:`backward` minus the input gradient (see
        :meth:`repro.nn.base.Layer.backward_params`)."""
        self.backward(grad_out)


class BatchedDense(_BatchedLayer):
    """``C`` affine layers as one ``(C, B, in) @ (C, in, out)`` matmul."""

    def __init__(self, template: Dense, cohort: int) -> None:
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.sparsifiable = template.sparsifiable
        super().__init__(template, cohort)
        self._x: Optional[Array] = None
        self._pre_gate: Optional[Array] = None

    @property
    def n_units(self) -> int:
        return self.out_features if self.sparsifiable else 0

    def unit_weight_magnitude(self) -> Array:
        """Stacked ``(C, n_units)`` per-unit ``|omega|_J``: ``axis=1`` of the
        stack is slice-identical to the sequential ``axis=0``."""
        return np.sum(np.abs(self.params["W"]), axis=1) + np.abs(self.params["b"])

    def forward(self, x: Array, *, train: bool = True) -> Array:
        if x.ndim != 3 or x.shape[0] != self.cohort or x.shape[2] != self.in_features:
            raise ValueError(
                f"{self.name}: expected input of shape "
                f"({self.cohort}, B, {self.in_features}), got {x.shape}")
        self._x = x
        if self.batch_counts is None:
            self._pre_gate = np.matmul(x, self.params["W"]) \
                + self.params["b"][:, None, :]
        else:
            # GEMM row results are not independent of the row count (edge
            # micro-kernels regroup the k accumulation), so ragged batches
            # run the sequential 2-D matmul on each client's real rows;
            # padded rows stay exactly zero
            self._pre_gate = np.zeros(x.shape[:2] + (self.out_features,))
            for i, count in enumerate(self.batch_counts):
                self._pre_gate[i, :count] = \
                    x[i, :count] @ self.params["W"][i] + self.params["b"][i]
        if self.unit_gate is None:
            return self._pre_gate
        return self._pre_gate * self.unit_gate[:, None, :]

    def backward(self, grad_out: Array) -> Array:
        grad_pre = self._backward_params(grad_out)
        if self.batch_counts is None:
            return np.matmul(grad_pre, self.params["W"].transpose(0, 2, 1))
        grad_x = np.zeros_like(self._x)
        for i, count in enumerate(self.batch_counts):
            grad_x[i, :count] = grad_pre[i, :count] @ self.params["W"][i].T
        return grad_x

    def backward_params(self, grad_out: Array) -> None:
        self._backward_params(grad_out)

    def _backward_params(self, grad_out: Array) -> Array:
        """Accumulate the gate, ``W`` and ``b`` gradients; return the
        gradient w.r.t. the pre-gate output."""
        if self._x is None or self._pre_gate is None:
            raise RuntimeError("backward called before forward")
        grad_pre = grad_out
        if self.unit_gate is not None:
            if self.batch_counts is None:
                self.unit_gate_grad += np.sum(grad_out * self._pre_gate, axis=1)
            else:
                for i, count in enumerate(self.batch_counts):
                    self.unit_gate_grad[i] += np.sum(
                        grad_out[i, :count] * self._pre_gate[i, :count], axis=0)
            grad_pre = grad_out * self.unit_gate[:, None, :]
        if self.batch_counts is None:
            self.grads["W"] += np.matmul(self._x.transpose(0, 2, 1), grad_pre)
            self.grads["b"] += np.sum(grad_pre, axis=1)
        else:
            for i, count in enumerate(self.batch_counts):
                self.grads["W"][i] += self._x[i, :count].T @ grad_pre[i, :count]
                self.grads["b"][i] += np.sum(grad_pre[i, :count], axis=0)
        return grad_pre


class BatchedConv2d(_BatchedLayer):
    """``C`` convolutions as one matmul over the cohort's im2col patches."""

    def __init__(self, template: Conv2d, cohort: int) -> None:
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        self.sparsifiable = template.sparsifiable
        super().__init__(template, cohort)
        self._cols3: Optional[Array] = None
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._out_hw: Optional[Tuple[int, int]] = None
        self._pre_gate: Optional[Array] = None

    @property
    def n_units(self) -> int:
        return self.out_channels if self.sparsifiable else 0

    def _weight_matrix(self) -> Array:
        return self.params["W"].reshape(self.cohort, self.out_channels, -1)

    def unit_weight_magnitude(self) -> Array:
        """Stacked ``(C, n_units)`` per-unit ``|omega|_J``: all trailing axes
        of the stack reduce slice-identically to the sequential
        ``axis=(1, 2, 3)``."""
        return (np.sum(np.abs(self.params["W"]), axis=(2, 3, 4))
                + np.abs(self.params["b"]))

    def forward(self, x: Array, *, train: bool = True) -> Array:
        if x.ndim != 5 or x.shape[0] != self.cohort or x.shape[2] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected input "
                f"({self.cohort}, B, {self.in_channels}, H, W), got {x.shape}")
        _check_fits_kernel(self.name, *x.shape[3:], self.kernel_size, self.padding)
        cohort, batch = x.shape[:2]
        folded = np.ascontiguousarray(x).reshape((cohort * batch,) + x.shape[2:])
        cols, out_h, out_w = _im2col(folded, self.kernel_size, self.stride,
                                     self.padding)
        cols3 = cols.reshape(cohort, batch * out_h * out_w, -1)
        w_mat = self._weight_matrix()
        if self.batch_counts is None:
            out = np.matmul(cols3, w_mat.transpose(0, 2, 1)) \
                + self.params["b"][:, None, :]
        else:
            # sequential 2-D matmul per client on the real rows (see
            # BatchedDense.forward); padded rows stay exactly zero
            positions = out_h * out_w
            out = np.zeros((cohort, batch * positions, self.out_channels))
            for i, count in enumerate(self.batch_counts):
                rows = count * positions
                out[i, :rows] = cols3[i, :rows] @ w_mat[i].T + self.params["b"][i]
        out = out.reshape(cohort, batch, out_h, out_w, self.out_channels)
        out = out.transpose(0, 1, 4, 2, 3)
        self._cols3 = cols3
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        self._pre_gate = out
        if self.unit_gate is None:
            return out
        return out * self.unit_gate[:, None, :, None, None]

    def backward(self, grad_out: Array) -> Array:
        grad_mat = self._backward_params(grad_out)
        cohort, batch = self._x_shape[:2]
        out_h, out_w = self._out_hw
        w_mat = self._weight_matrix()
        if self.batch_counts is None:
            grad_cols = np.matmul(grad_mat, w_mat)
        else:
            grad_cols = np.zeros_like(self._cols3)
            for i, count in enumerate(self.batch_counts):
                rows = count * out_h * out_w
                grad_cols[i, :rows] = grad_mat[i, :rows] @ w_mat[i]
        folded_shape = (cohort * batch,) + self._x_shape[2:]
        grad_x = _col2im(grad_cols.reshape(cohort * batch * out_h * out_w, -1),
                         folded_shape, self.kernel_size, self.stride,
                         self.padding, out_h, out_w)
        return grad_x.reshape(self._x_shape)

    def backward_params(self, grad_out: Array) -> None:
        self._backward_params(grad_out)

    def _backward_params(self, grad_out: Array) -> Array:
        """Accumulate the gate, ``W`` and ``b`` gradients; return the
        ``(C, B * out_h * out_w, out_channels)`` output-gradient matrices."""
        if self._cols3 is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        cohort, batch = self._x_shape[:2]
        out_h, out_w = self._out_hw
        grad_pre = grad_out
        if self.unit_gate is not None:
            # the kept (unit) axis sits between the reduced ones, which is not
            # in the verified slice-identical class, so the gate gradient
            # reduces per-client slices exactly as the sequential layer does
            for i in range(cohort):
                count = None if self.batch_counts is None else self.batch_counts[i]
                g_slice = grad_out[i] if count is None else grad_out[i, :count]
                p_slice = (self._pre_gate[i] if count is None
                           else self._pre_gate[i, :count])
                self.unit_gate_grad[i] += np.sum(g_slice * p_slice, axis=(0, 2, 3))
            grad_pre = grad_out * self.unit_gate[:, None, :, None, None]
        grad_mat = grad_pre.transpose(0, 1, 3, 4, 2).reshape(
            cohort, batch * out_h * out_w, self.out_channels)
        if self.batch_counts is None:
            self.grads["W"] += np.matmul(
                grad_mat.transpose(0, 2, 1), self._cols3).reshape(
                    self.params["W"].shape)
            self.grads["b"] += np.sum(grad_mat, axis=1)
        else:
            # like BatchedDense: the sequential 2-D matmuls per client on
            # the leading real rows; padded rows stay exactly zero
            positions = out_h * out_w
            kernel_shape = self.params["W"].shape[1:]
            for i, count in enumerate(self.batch_counts):
                rows = count * positions
                self.grads["W"][i] += (
                    grad_mat[i, :rows].T @ self._cols3[i, :rows]
                ).reshape(kernel_shape)
                self.grads["b"][i] += np.sum(grad_mat[i, :rows], axis=0)
        return grad_mat


class _FoldedLayer:
    """Run a per-sample layer on ``(C * B, ...)`` by folding the client axis.

    Pooling is sample-local, so folding the cohort into the batch axis
    reproduces the sequential layer bit-for-bit — the inner layer IS the
    sequential implementation — provided it sees the same bytes in the
    same layout.  The fold is a ``reshape``: a view for every stacked
    activation (the client and batch axes always merge), so a conv -> ReLU
    stack arrives channels-last in memory exactly as one client's batch
    does, with no transposing copy.  A reduction that sums in memory order
    (``AvgPool2d``'s window mean) makes its own contiguous copy on both
    paths.
    """

    trainable = False
    sparsifiable = False
    n_units = 0

    def __init__(self, inner: Layer) -> None:
        self.inner = inner
        self.name = inner.name
        self.params: ParamDict = {}
        self.grads: ParamDict = {}
        self.batch_counts = None
        self._lead: Optional[Tuple[int, int]] = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        self._lead = x.shape[:2]
        folded = x.reshape((x.shape[0] * x.shape[1],) + x.shape[2:])
        out = self.inner.forward(folded, train=train)
        return out.reshape(self._lead + out.shape[1:])

    def backward(self, grad_out: Array) -> Array:
        if self._lead is None:
            raise RuntimeError("backward called before forward")
        folded = grad_out.reshape(
            (grad_out.shape[0] * grad_out.shape[1],) + grad_out.shape[2:])
        out = self.inner.backward(folded)
        return out.reshape(self._lead + out.shape[1:])

    def backward_params(self, grad_out: Array) -> None:
        pass  # pooling owns no parameters


class _BatchedFlatten:
    """Flatten everything after the ``(C, B)`` leading axes."""

    trainable = False
    sparsifiable = False
    n_units = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self.params: ParamDict = {}
        self.grads: ParamDict = {}
        self.batch_counts = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        self._input_shape = x.shape
        return np.ascontiguousarray(x).reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_out: Array) -> Array:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._input_shape)

    def backward_params(self, grad_out: Array) -> None:
        pass  # nothing to accumulate


def _batch_layer(layer: Layer, cohort: int):
    if type(layer) is Dense:
        return BatchedDense(layer, cohort)
    if type(layer) is Conv2d:
        return BatchedConv2d(layer, cohort)
    if type(layer) is MaxPool2d:
        return _FoldedLayer(MaxPool2d(layer.kernel_size, layer.name))
    if type(layer) is AvgPool2d:
        return _FoldedLayer(AvgPool2d(layer.kernel_size, layer.name))
    if type(layer) is Flatten:
        return _BatchedFlatten(layer.name)
    if type(layer) in _ELEMENTWISE_TYPES:
        # element-wise layers are shape-agnostic: reuse the sequential
        # implementation directly on the (C, B, ...) stack
        return type(layer)(layer.name)
    raise ValueError(
        f"layer {layer.name!r} ({type(layer).__name__}) has no batched kernel")


class _ArenaProgram:
    """The training surface both programs share: parameters, gradients and
    gate gradients live in one flat :class:`~repro.nn.arena.Arena` each,
    and every layer holds views into them.

    Arena blocks are ``(C, ...)`` parameter stacks laid out by key and
    ``(C, n_units)`` gate-gradient rows laid out by unit layer; a layer of
    one client's ``Sequential`` (:class:`CohortOfOne`) sees ``view[0]`` of
    its ``(1, ...)`` block.  Nothing rebinds a layer's array while the
    program lives, so every arena handed out stays live for its lifetime.
    """

    def _adopt(self, cohort: int, *, per_client: bool) -> None:
        """Copy the layers' parameters, gradients and gate gradients into
        fresh arenas and rebind each layer's arrays to their views;
        ``per_client`` layers hold one client's unstacked arrays."""
        lead = (1,) if per_client else ()
        self._held = (lambda view: view[0]) if per_client else (lambda view: view)
        owned = [(layer, key) for layer in self.layers for key in layer.params]
        self._params = Arena({f"{layer.name}.{key}": lead + layer.params[key].shape
                              for layer, key in owned})
        self._grads = self._params.like()
        np.concatenate([layer.params[key].ravel() for layer, key in owned],
                       out=self._params.flat)
        if all(key in layer.grads for layer, key in owned):
            np.concatenate([layer.grads[key].ravel() for layer, key in owned],
                           out=self._grads.flat)
        for (layer, key), param, grad in zip(owned, self._params.values(),
                                             self._grads.values()):
            layer.params[key] = self._held(param)
            layer.grads[key] = self._held(grad)
        self._gate_grads = Arena({group.layer_name: (cohort, group.n_units)
                                  for group in self._unit_groups})
        for group in self._unit_groups:
            layer = self.layer_by_name(group.layer_name)
            gate_grad = self._gate_grads[group.layer_name]
            if layer.unit_gate_grad is not None:
                gate_grad[...] = layer.unit_gate_grad
            layer.unit_gate_grad = self._held(gate_grad)
        self._magnitudes: Optional[Arena] = None

    def layer_by_name(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")

    def zero_grad(self) -> None:
        """One ``fill(0.0)`` per gradient arena: the same bits as fresh
        zeros (a ``-0.0`` gradient becomes ``+0.0`` either way)."""
        self._grads.flat.fill(0.0)
        self._gate_grads.flat.fill(0.0)

    def set_parameters(self, stacked: Mapping[str, np.ndarray]) -> None:
        """Copy a stacked ``(C, ...)`` parameter snapshot into the arena."""
        self._params.load(stacked)

    def live_parameters(self) -> Arena:
        """The live stacked parameter arena (views, no copies) for the
        in-place step."""
        return self._params

    def live_gradients(self) -> Arena:
        """The live stacked gradient arena, valid for the program's life:
        ``zero_grad`` refills it in place."""
        return self._grads

    def gate_gradients(self) -> Arena:
        """The live stacked ``(C, n_units)`` gate-gradient arena, one block
        per sparsifiable layer in unit-group order."""
        return self._gate_grads

    def unit_weight_magnitudes(self) -> Arena:
        """Stacked ``(C, n_units)`` per-unit magnitudes, keyed like the
        template's ``unit_weight_magnitudes``; row ``c`` is client ``c``'s
        sequential result bit-for-bit.  The arena is the program's,
        rewritten by the next call."""
        if self._magnitudes is None:
            self._magnitudes = self._gate_grads.like()
        for group in self._unit_groups:
            name = group.layer_name
            self._held(self._magnitudes[name])[...] = \
                self.layer_by_name(name).unit_weight_magnitude()
        return self._magnitudes

    @property
    def unit_groups(self) -> List[UnitGroup]:
        return list(self._unit_groups)


class BatchedModel(_ArenaProgram):
    """A cohort of ``C`` same-architecture models as one stacked program.

    Built from a :class:`~repro.nn.model.Sequential` template; parameters,
    gradients, unit gates and gate gradients all carry a leading client
    axis, and the parameters, gradients and gate gradients live in arenas
    (:class:`_ArenaProgram`).  The layer/parameter layout (keys
    ``"layer.param"``, unit groups) mirrors the template so per-client
    slices drop straight into the sequential code paths.
    """

    def __init__(self, template: Sequential, cohort: int) -> None:
        if cohort <= 0:
            raise ValueError("cohort size must be positive")
        if not batchable_model(template):
            raise ValueError(
                f"model {template.name!r} contains layers without batched "
                f"kernels; use batchable_model() to pre-check")
        self.template = template
        self.cohort = cohort
        self.layers = [_batch_layer(layer, cohort) for layer in template.layers]
        self._unit_groups: List[UnitGroup] = template.unit_groups
        self._adopt(cohort, per_client=False)

    # ------------------------------------------------------------- forward
    def forward(self, x: Array, *, train: bool = True) -> Array:
        out = x
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, grad_out: Array, *,
                 input_grad: bool = True) -> Optional[Array]:
        """Like :meth:`repro.nn.model.Sequential.backward`: with
        ``input_grad=False`` the first layer skips its input gradient."""
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if input_grad:
            return self.layers[0].backward(grad)
        self.layers[0].backward_params(grad)
        return None

    # ---------------------------------------------------------- parameters
    def get_parameters(self) -> ParamDict:
        return {key: np.array(value, copy=True)
                for key, value in self._params.items()}

    def get_gradients(self) -> ParamDict:
        return {key: np.array(value, copy=True)
                for key, value in self._grads.items()}

    # --------------------------------------------------------------- units
    def set_unit_gates(self, gates: Optional[Mapping[str, np.ndarray]]) -> None:
        """Install per-client ``(C, n_units)`` gates; ``None`` clears them."""
        for group in self._unit_groups:
            layer = self.layer_by_name(group.layer_name)
            layer.set_unit_gate(
                None if gates is None else gates.get(group.layer_name))

    # ------------------------------------------------------------- ragged
    def set_batch_counts(self, counts: Optional[Sequence[int]]) -> None:
        """Install per-client real-row counts for ragged padded batches.

        ``None`` (or counts all equal to the padded batch size) selects the
        fully batched reductions; otherwise ``np.sum``-based reductions only
        run over each client's leading ``counts[c]`` rows so the summation
        trees match the sequential loop exactly.
        """
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
        for layer in self.layers:
            layer.batch_counts = counts


class CohortOfOne(_ArenaProgram):
    """:class:`BatchedModel`'s training surface over ONE live ``Sequential``,
    trained in place by its own kernels: the C = 1 program of the cohort
    trainers.  No arithmetic happens here.  The model's parameters,
    gradients and gate gradients move into ``(1, ...)`` arena blocks and its
    layers hold ``view[0]`` of them (an in-place optimizer step on the
    arena moves the layer's parameter); every stacked array taken in by
    :meth:`forward` / :meth:`backward` / :meth:`set_unit_gates` is unwrapped
    with ``value[0]``, so each GEMM and reduction operand is the one a
    per-client loop would pass.
    """

    def __init__(self, model: Sequential) -> None:
        self.model = model
        self.layers = model.layers
        self._unit_groups = model.unit_groups
        self._adopt(1, per_client=True)

    def forward(self, x: Array, *, train: bool = True) -> Array:
        return self.model.forward(x[0], train=train)[None]

    def backward(self, grad_out: Array, *,
                 input_grad: bool = True) -> Optional[Array]:
        grad = self.model.backward(grad_out[0], input_grad=input_grad)
        return None if grad is None else grad[None]

    def set_unit_gates(self, gates: Optional[Mapping[str, np.ndarray]]) -> None:
        self.model.set_unit_gates(
            None if gates is None else {key: value[0]
                                        for key, value in gates.items()})

    def set_batch_counts(self, counts: Optional[Sequence[int]]) -> None:
        """Nothing to install: one client's batch is never padded."""


def cohort_program(model: Sequential, cohort: int):
    """The program a cohort trainer runs ``cohort`` clients of ``model`` on.

    One client trains ``model`` itself through :class:`CohortOfOne` (left
    holding the trained parameters, gates cleared): ``(1, N, K) @ (1, K,
    M)`` is not a proven bit-identity of the 2-D GEMM, so C = 1 never runs
    the batched matmul.  A larger cohort runs on a :class:`BatchedModel`
    with ``model`` as its untouched template.
    """
    if cohort == 1:
        return CohortOfOne(model)
    return BatchedModel(model, cohort)
