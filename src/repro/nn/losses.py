"""Loss functions returning ``(loss_value, gradient_wrt_predictions)``."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .activations import softmax
from .base import Array, as_float


def softmax_cross_entropy(logits: Array, labels: Array) -> Tuple[float, Array]:
    """Softmax cross-entropy over the last axis.

    ``logits`` may be ``(N, C)`` or ``(N, T, C)``; ``labels`` are integer
    class ids of shape ``(N,)`` or ``(N, T)``.  The loss is averaged over all
    prediction positions and the returned gradient has the shape of
    ``logits``.
    """
    logits = as_float(logits)
    labels = np.asarray(labels)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_labels = labels.reshape(-1)
    if flat_logits.shape[0] != flat_labels.shape[0]:
        raise ValueError(
            f"logits/labels size mismatch: {logits.shape} vs {labels.shape}")
    n = flat_logits.shape[0]
    probs = softmax(flat_logits, axis=-1)
    eps = 1e-12
    loss = -np.mean(np.log(probs[np.arange(n), flat_labels] + eps))
    grad = probs.copy()
    grad[np.arange(n), flat_labels] -= 1.0
    grad /= n
    return float(loss), grad.reshape(logits.shape)


def softmax_cross_entropy_cohort(logits: Array, labels: Array,
                                 counts: Array) -> Tuple[np.ndarray, Array]:
    """Per-client softmax cross-entropy over a stacked ``(C, B, K)`` cohort.

    ``labels`` is ``(C, B)`` integer class ids and ``counts`` gives each
    client's number of real rows (padded rows beyond ``counts[c]`` must hold
    in-range dummy labels).  Returns ``(losses, grad)`` where ``losses`` is a
    ``(C,)`` vector and ``grad`` has the shape of ``logits`` with padded rows
    zeroed — every per-client slice is bit-identical to
    :func:`softmax_cross_entropy` on that client's real rows alone: the
    softmax/log/pick operations are row-local, the per-client mean reduces a
    contiguous slice with the same summation tree, and the gradient division
    by ``counts[c]`` is the same IEEE operation as the sequential ``/= n``.
    A uniform cohort (no padded rows) takes the means as one last-axis
    reduction, which is that same per-slice tree.
    """
    logits = as_float(logits)
    labels = np.asarray(labels)
    counts = np.asarray(counts)
    if logits.ndim != 3 or labels.shape != logits.shape[:2]:
        raise ValueError(
            f"cohort logits/labels mismatch: {logits.shape} vs {labels.shape}")
    cohort, batch, _ = logits.shape
    probs = softmax(logits, axis=-1)
    eps = 1e-12
    client_index = np.arange(cohort)[:, None]
    row_index = np.arange(batch)[None, :]
    logs = np.log(probs[client_index, row_index, labels] + eps)
    grad = probs.copy()
    grad[client_index, row_index, labels] -= 1.0
    grad /= counts.astype(np.float64)[:, None, None]
    if np.all(counts == batch):
        return -np.mean(logs, axis=-1), grad
    losses = np.empty(cohort, dtype=np.float64)
    for i in range(cohort):
        losses[i] = -np.mean(logs[i, :counts[i]])
        grad[i, counts[i]:] = 0.0
    return losses, grad


def accuracy_cohort(logits: Array, labels: Array, counts: Array) -> np.ndarray:
    """Per-client top-1 accuracy for stacked ``(C, B, K)`` cohort logits."""
    logits = as_float(logits)
    labels = np.asarray(labels)
    counts = np.asarray(counts)
    hits = np.argmax(logits, axis=-1) == labels
    if np.all(counts == hits.shape[1]):
        return np.mean(hits, axis=-1)
    return np.array([float(np.mean(hits[i, :counts[i]]))
                     for i in range(len(counts))])


def mean_squared_error(predictions: Array, targets: Array) -> Tuple[float, Array]:
    """Mean squared error averaged over every element."""
    predictions = as_float(predictions)
    targets = as_float(targets)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"prediction/target shape mismatch: {predictions.shape} vs {targets.shape}")
    diff = predictions - targets
    loss = float(np.mean(diff ** 2))
    grad = 2.0 * diff / diff.size
    return loss, grad


def accuracy(logits: Array, labels: Array) -> float:
    """Top-1 classification accuracy for ``(N, C)`` or ``(N, T, C)`` logits."""
    logits = as_float(logits)
    labels = np.asarray(labels)
    predictions = np.argmax(logits, axis=-1)
    return float(np.mean(predictions == labels))
