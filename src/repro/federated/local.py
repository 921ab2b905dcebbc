"""Generic local SGD training used by every federated strategy.

The helper supports the ingredients the different baselines combine:

* plain dense SGD (FedAvg),
* proximal regularization towards a reference point (FedProx, Ditto),
* parameter-level masking so zeroed entries stay zero (sparse training),
* unit-gate patterns for structured sub-models (HeteroFL, FjORD, FedRolex),
* restricting updates to a subset of parameters (FedPer, FedRep heads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Dataset
from ..nn import SGD, accuracy, softmax_cross_entropy
from ..nn.model import Sequential
from ..nn.params import ParamDict, add_, copy_params, multiply, scale_, subtract
from ..sparsity.masks import gates_from_pattern


@dataclass
class LocalUpdateResult:
    """Outcome of one client's local training pass."""

    params: ParamDict
    train_accuracy: float
    train_loss: float
    examples_seen: int


def iterate_batches(dataset: Dataset, batch_size: int, iterations: int, *,
                    rng: np.random.Generator) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield exactly ``iterations`` mini-batches, reshuffling when exhausted."""
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


def train_locally(model: Sequential, start_params: Mapping[str, np.ndarray],
                  dataset: Dataset, *, iterations: int, batch_size: int,
                  learning_rate: float, momentum: float = 0.0,
                  clip_norm: Optional[float] = None, prox_mu: float = 0.0,
                  prox_center: Optional[Mapping[str, np.ndarray]] = None,
                  param_mask: Optional[Mapping[str, np.ndarray]] = None,
                  pattern: Optional[Mapping[str, np.ndarray]] = None,
                  trainable_keys: Optional[Sequence[str]] = None,
                  rng: Optional[np.random.Generator] = None) -> LocalUpdateResult:
    """Run local SGD and return the resulting parameters and training stats.

    Args:
        model: the shared model object (its parameters are overwritten).
        start_params: parameters the client starts from.
        dataset: the client's local training shard.
        iterations: number of SGD steps (``E`` in the paper).
        batch_size: mini-batch size.
        learning_rate, momentum, clip_norm: optimizer settings.
        prox_mu: weight of the proximal term ``mu * ||w - w_center||^2``.
        prox_center: reference parameters of the proximal term (defaults to
            ``start_params`` when ``prox_mu > 0``).
        param_mask: binary parameter mask; masked entries are zeroed at the
            start and their gradients suppressed, so they stay zero.
        pattern: structured unit pattern installed as forward gates during
            training (sub-model training).
        trainable_keys: if given, only these parameter keys are updated.
        rng: randomness source for batch sampling.
    """
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

    optimizer = SGD(learning_rate, momentum=momentum, clip_norm=clip_norm)
    # the frozen-key substitution is step-invariant: resolve the allowed
    # set and the zero replacements once instead of per SGD step
    allowed = set(trainable_keys) if trainable_keys is not None else None
    frozen_zeros: Dict[str, np.ndarray] = {}
    if allowed is not None:
        frozen_zeros = {key: np.zeros_like(value)
                        for key, value in model.get_parameters().items()
                        if key not in allowed}
    losses = []
    accuracies = []
    examples = 0
    for batch_x, batch_y in iterate_batches(dataset, batch_size, iterations, rng=rng):
        model.zero_grad()
        logits = model.forward(batch_x, train=True)
        loss, grad = softmax_cross_entropy(logits, batch_y)
        accuracies.append(accuracy(logits, batch_y))
        model.backward(grad, input_grad=False)
        grads = model.get_gradients()
        current = model.get_parameters()
        if prox_mu > 0.0 and center is not None:
            # in-place: grads += (2 * mu) * (w - w_center); ``grads`` is a
            # fresh snapshot from get_gradients(), so mutating it is safe,
            # and the operation order matches the former per-key
            # ``grads + 2.0 * prox_mu * (current - center)`` bit-for-bit
            add_(grads, scale_(subtract(current, center), 2.0 * prox_mu))
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


def average_metric(values: Iterable[float]) -> float:
    """Mean of an iterable of floats, 0.0 when empty."""
    values = list(values)
    return float(np.mean(values)) if values else 0.0
