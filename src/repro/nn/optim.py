"""The gradient-descent step of every trainer: :class:`BatchedSGD` over a
program's flat parameter arena."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .arena import Arena, cohort_squared_norms


class BatchedSGD:
    """Stochastic gradient descent with optional momentum and global-norm
    clipping over a program's stacked ``(C, ...)`` parameter arena.

    Every operation of the step is one ufunc call over the whole arena;
    each is element-wise, so a client's slice is stepped exactly as it
    would be alone.  Clipping is per client: when the L2 norm of a client's
    whole gradient — every key viewed as one flat vector, summed by
    :func:`cohort_squared_norms` — exceeds ``clip_norm``, that client's
    gradient is scaled by ``clip_norm / norm``.  Unclipped clients keep an
    exact scale of ``1.0`` — ``x * 1.0`` is a bitwise identity for every
    float (including ``-0.0``/inf/nan) — and nothing is scaled when no
    client clips.  The learning rate may be a ``(C,)`` vector, expanded
    once into a per-element vector.
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
