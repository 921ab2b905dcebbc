"""One client's local SGD: the ``C = 1`` case of the cohort program.

:func:`train_locally`, every strategy's per-client entry point, owns no
training loop: it runs the one step body of :mod:`repro.federated.batched`
over a :class:`~repro.nn.batched.CohortOfOne` — the client's ``Sequential``
trained in place by its own kernels, so models without batched kernels
(dropout, embeddings, recurrent layers, gated sub-models) train as before.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..nn.batched import CohortOfOne
from ..nn.model import Sequential
from .batched import LocalUpdateResult, _train_program

__all__ = ["LocalUpdateResult", "train_locally"]


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
        model: the shared model object (its parameters are overwritten: it
            holds the trained parameters, gates cleared, on return).
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
    return _train_program(
        CohortOfOne(model), [start_params], [dataset],
        iterations=iterations, batch_size=batch_size,
        learning_rate=learning_rate, momentum=momentum, clip_norm=clip_norm,
        prox_mu=prox_mu, prox_center=prox_center,
        param_masks=None if param_mask is None else [param_mask],
        patterns=None if pattern is None else [pattern],
        trainable_keys=trainable_keys,
        rngs=None if rng is None else [rng])[0]
