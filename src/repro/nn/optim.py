"""Gradient-descent optimizers: per-key dictionaries (:class:`SGD`) and
flat program arenas (:class:`BatchedSGD`)."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .arena import Arena, cohort_squared_norms

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


class SGD:
    """Stochastic gradient descent with optional momentum, weight decay and
    global-norm gradient clipping.

    The optimizer is stateless with respect to the model: it works on
    ``{name: array}`` dictionaries so that the federated stack can apply it to
    any parameter snapshot (global model, personalized model, masked model).
    """

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

    def step(self, params: ParamDict, grads: ParamDict) -> None:
        """Update ``params`` in place from ``grads``."""
        if self.clip_norm is not None:
            grads = clip_gradients(grads, self.clip_norm)
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
            param -= self.lr * update

    def reset_state(self) -> None:
        """Drop momentum buffers (used when a fresh local round starts)."""
        self._velocity = {}


class BatchedSGD:
    """:class:`SGD` over a program's stacked ``(C, ...)`` parameter arena.

    Every operation of the step is one ufunc call over the whole arena
    (element-wise, so every client's slice takes the sequential optimizer's
    step, operand for operand) with two substitutions: clipping is
    per-client — each client's norm is its own :func:`global_grad_norm`,
    from :func:`cohort_squared_norms` — and the learning rate may be a
    ``(C,)`` vector, expanded once into a per-element vector.  Unclipped
    clients keep an exact scale of ``1.0`` — ``x * 1.0`` is a bitwise
    identity for every float (including ``-0.0``/inf/nan) — and nothing is
    scaled when no client clips, matching :func:`clip_gradients` per slice.
    """

    def __init__(self, params: Arena, lr, *, momentum: float = 0.0,
                 clip_norm: Optional[float] = None) -> None:
        if isinstance(lr, np.ndarray):
            lr = np.asarray(lr, dtype=np.float64)
            if lr.ndim != 1 or np.any(lr <= 0):
                raise ValueError("per-client learning rates must be a "
                                 "positive 1-D vector")
            lr = params.expand(lr)
        elif lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._velocity = params.like() if momentum > 0.0 else None
        self._squares = params.like() if clip_norm is not None else None

    def step(self, grads: Arena) -> None:
        """Update the parameters in place from ``grads`` (laid out like
        them), which the step consumes as its scratch."""
        grad = grads.flat
        if self.clip_norm is not None:
            norms = np.sqrt(cohort_squared_norms(grads, self._squares))
            # ``not (norm <= max_norm)``: a NaN norm clips (to NaN) as it
            # does sequentially, and a zero norm never does (max_norm > 0)
            clipped = ~(norms <= self.clip_norm)
            if clipped.any():
                scales = np.divide(self.clip_norm, norms,
                                   out=np.ones_like(norms), where=clipped)
                np.multiply(grad, grads.expand(scales), out=grad)
        update = grad
        if self._velocity is not None:
            update = self._velocity.flat
            np.multiply(self.momentum, update, out=update)
            np.add(update, grad, out=update)
        np.multiply(self.lr, update, out=grad)
        np.subtract(self.params.flat, grad, out=self.params.flat)
