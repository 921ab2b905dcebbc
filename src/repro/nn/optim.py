"""Gradient-descent optimizers operating on parameter dictionaries."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

ParamDict = Dict[str, np.ndarray]


def global_grad_norm(grads: ParamDict) -> float:
    """L2 norm of all gradients viewed as one flat vector."""
    total = 0.0
    for grad in grads.values():
        total += float(np.sum(grad ** 2))
    return float(np.sqrt(total))


def clip_gradients(grads: ParamDict, max_norm: float) -> ParamDict:
    """Scale gradients so that their global norm does not exceed ``max_norm``."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return {key: grad * scale for key, grad in grads.items()}


def cohort_squared_norms(stacked: ParamDict) -> np.ndarray:
    """Per-client sum of squares of a stacked ``(C, ...)`` dictionary.

    Row ``c`` reproduces ``sum(np.sum(value[c] ** 2) for value in ...)``
    bit-for-bit: the accumulation runs over keys in dictionary order, and
    each per-key last-axis sum over the ``(C, -1)`` view reduces every
    client's contiguous row with the same tree as the sequential
    full-array ``np.sum``.  ``np.square`` / ``np.add.reduce`` are what
    ``** 2`` / ``np.sum`` dispatch to, called directly: this runs per key,
    up to twice per training step.
    """
    totals = 0.0
    for value in stacked.values():
        totals = totals + np.add.reduce(
            np.square(value).reshape(len(value), -1), axis=-1)
    return totals


def cohort_grad_norms(grads: ParamDict) -> np.ndarray:
    """Per-client L2 norms of a stacked ``(C, ...)`` gradient dictionary,
    each equal to :func:`global_grad_norm` on that client's slice."""
    return np.sqrt(cohort_squared_norms(grads))


def clip_gradients_cohort(grads: ParamDict, max_norm: float) -> ParamDict:
    """Per-client global-norm clipping on stacked ``(C, ...)`` gradients.

    Unclipped clients keep an exact scale of ``1.0`` — ``x * 1.0`` is a
    bitwise identity for every float (including ``-0.0``/inf/nan) — and the
    dictionary is returned unchanged when no client clips, matching
    :func:`clip_gradients` exactly per slice.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norms = cohort_grad_norms(grads)
    # ``not (norm <= max_norm)``: a NaN norm clips (to NaN) as it does
    # sequentially, and a zero norm never does because max_norm > 0
    clipped = ~(norms <= max_norm)
    if not clipped.any():
        return grads
    scales = np.divide(max_norm, norms, out=np.ones_like(norms), where=clipped)
    return {key: grad * scales.reshape((-1,) + (1,) * (grad.ndim - 1))
            for key, grad in grads.items()}


class SGD:
    """Stochastic gradient descent with optional momentum, weight decay and
    global-norm gradient clipping.

    The optimizer is stateless with respect to the model: it works on
    ``{name: array}`` dictionaries so that the federated stack can apply it to
    any parameter snapshot (global model, personalized model, masked model).
    """

    _clip = staticmethod(clip_gradients)

    def __init__(self, lr: float, *, momentum: float = 0.0,
                 weight_decay: float = 0.0,
                 clip_norm: Optional[float] = None) -> None:
        if np.any(np.asarray(lr) <= 0):
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self._velocity: ParamDict = {}

    def _scaled(self, update: np.ndarray) -> np.ndarray:
        return self.lr * update

    def step(self, params: ParamDict, grads: ParamDict) -> None:
        """Update ``params`` in place from ``grads``."""
        if self.clip_norm is not None:
            grads = self._clip(grads, self.clip_norm)
        for key, param in params.items():
            grad = grads.get(key)
            if grad is None:
                continue
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param
            if self.momentum > 0.0:
                velocity = self._velocity.get(key)
                if velocity is None:
                    velocity = np.zeros_like(param)
                velocity = self.momentum * velocity + grad
                self._velocity[key] = velocity
                update = velocity
            else:
                update = grad
            param -= self._scaled(update)

    def reset_state(self) -> None:
        """Drop momentum buffers (used when a fresh local round starts)."""
        self._velocity = {}


class BatchedSGD(SGD):
    """:class:`SGD` over stacked ``(C, ...)`` cohort parameters.

    The step is :meth:`SGD.step` itself (element-wise, so every client slice
    takes the sequential optimizer's step) with two substitutions: clipping
    is per-client (:func:`clip_gradients_cohort`) and the learning rate may
    be a ``(C,)`` vector broadcast along the client axis.
    """

    _clip = staticmethod(clip_gradients_cohort)

    def __init__(self, lr, *, momentum: float = 0.0,
                 weight_decay: float = 0.0,
                 clip_norm: Optional[float] = None) -> None:
        if isinstance(lr, np.ndarray):
            lr = np.asarray(lr, dtype=np.float64)
            if lr.ndim != 1 or np.any(lr <= 0):
                raise ValueError("per-client learning rates must be a "
                                 "positive 1-D vector")
        super().__init__(lr, momentum=momentum, weight_decay=weight_decay,
                         clip_norm=clip_norm)

    def _scaled(self, update: np.ndarray) -> np.ndarray:
        if isinstance(self.lr, np.ndarray):
            return self.lr.reshape(
                (update.shape[0],) + (1,) * (update.ndim - 1)) * update
        return self.lr * update
