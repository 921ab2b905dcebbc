"""The unit-wise importance indicator ``Q`` and its learnable update.

Every client maintains one importance score per sparsifiable unit of the
model (Eq. 3).  The scores are optimized by back-propagation together with
the model parameters: the task gradient reaches ``Q`` through the unit gates
(a straight-through estimator of the non-differentiable step function in
Eq. 4), and the importance regularizer of Eq. (8) keeps ``Q`` anchored to a
smoothed view of the unit weight magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..nn.activations import sigmoid
from ..nn.batched import stack_param_dicts, unstack_param_dict
from ..nn.model import Sequential
from ..sparsity.masks import UnitPattern, pattern_from_scores


def smoothed_targets(magnitudes: Mapping[str, np.ndarray]
                     ) -> Dict[str, np.ndarray]:
    """The regularization target ``sigmoid(|omega|_J)`` of Eq. (8), from
    per-layer unit magnitudes ``|omega|_J``.

    The raw per-unit magnitude is the *sum* of absolute parameter values,
    which for any realistic layer is far into the sigmoid's saturated region
    (every unit would map to ~1.0 and the regularizer would carry no
    information).  We therefore standardize the magnitudes within each layer
    before applying the sigmoid, which keeps the target in the open interval
    (0, 1) while preserving the relative ordering of units that Eq. (8) is
    meant to encode (README, "Departures from the paper").

    Every statistic reduces the last axis, so a stacked ``(C, n_units)``
    cohort of magnitudes yields, row for row, the bits of ``C`` separate
    ``(n_units,)`` calls; a layer whose units all have the same magnitude
    (``std < 1e-12``) gets the flat target 0.5, decided per row.
    """
    targets: Dict[str, np.ndarray] = {}
    for name, magnitude in magnitudes.items():
        std = np.std(magnitude, axis=-1, keepdims=True)
        flat = std < 1e-12
        centered = (magnitude - np.mean(magnitude, axis=-1, keepdims=True)) \
            / np.where(flat, 1.0, std)
        targets[name] = sigmoid(np.where(flat, 0.0, centered))
    return targets


def smoothed_unit_magnitudes(model: Sequential) -> Dict[str, np.ndarray]:
    """:func:`smoothed_targets` of ``model``'s current parameters."""
    return smoothed_targets(model.unit_weight_magnitudes())


@dataclass
class ImportanceIndicator:
    """Per-layer importance scores: ``(n_units,)`` arrays for one client, or
    ``(C, n_units)`` stacks for a cohort (:meth:`stack`), on which every
    update below acts row by row."""

    scores: Dict[str, np.ndarray]

    @classmethod
    def stack(cls, indicators: Sequence["ImportanceIndicator"]
              ) -> "ImportanceIndicator":
        """One indicator holding copies of ``indicators`` as stacked rows."""
        return cls(stack_param_dicts([each.scores for each in indicators]))

    def row(self, index: int) -> "ImportanceIndicator":
        """Client ``index`` of a stacked indicator, as its own copy."""
        return ImportanceIndicator(unstack_param_dict(self.scores, index))

    def copy(self) -> "ImportanceIndicator":
        return ImportanceIndicator(
            {name: np.array(values, copy=True) for name, values in self.scores.items()})

    @property
    def total_units(self) -> int:
        return int(sum(values.size for values in self.scores.values()))

    def as_vector(self, model: Sequential) -> np.ndarray:
        """Model-wide flattened view (``Q`` as a single vector)."""
        return model.join_unit_vector(self.scores)

    def pattern(self, model: Sequential, sparse_ratio: float) -> UnitPattern:
        """Importance-derived sparse pattern (Eq. 4, layer-wise quantile)."""
        return pattern_from_scores(model, self.scores, sparse_ratio)

    def apply_gradient(self, gradients: Mapping[str, np.ndarray],
                       learning_rate: float) -> None:
        """One SGD step on the importance scores (Eq. 11)."""
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name, values in self.scores.items():
            grad = gradients.get(name)
            if grad is None:
                continue
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != values.shape:
                raise ValueError(
                    f"gradient for {name!r} has shape {grad.shape}, "
                    f"expected {values.shape}")
            self.scores[name] = values - learning_rate * grad

    def regularization_gradient(self, targets: Mapping[str, np.ndarray],
                                importance_lambda: float) -> Dict[str, np.ndarray]:
        """Gradient of ``lambda * ||Q - sigmoid(|omega|_J)||^2`` w.r.t. ``Q``,
        given the targets ``sigmoid(|omega|_J)`` (:func:`smoothed_targets`)."""
        return {name: 2.0 * importance_lambda * (values - targets[name])
                for name, values in self.scores.items()}

    def regularization_loss(self, targets: Mapping[str, np.ndarray],
                            importance_lambda: float) -> float | np.ndarray:
        """Value of the importance regularizer ``L_ir`` (Eq. 8) against the
        same targets: a float, or one per row of stacked scores."""
        total = 0.0
        for name, values in self.scores.items():
            total = total + np.sum((values - targets[name]) ** 2, axis=-1)
        return importance_lambda * total


def combine_unit_gradients(task_gate_grads: Mapping[str, np.ndarray],
                           regularizer_grads: Mapping[str, np.ndarray]
                           ) -> Dict[str, np.ndarray]:
    """Total gradient of the loss with respect to the importance indicator.

    The task contribution arrives through the unit gates (straight-through
    estimate of Eq. 4's step function); the regularizer contribution comes
    from Eq. (8).
    """
    return {name: np.asarray(grad, dtype=np.float64)
            + np.asarray(regularizer_grads[name], dtype=np.float64)
            for name, grad in task_gate_grads.items()}


def initialize_importance(model: Sequential, *, seed: int = 0,
                          jitter: float = 1e-3,
                          targets: Optional[Mapping[str, np.ndarray]] = None
                          ) -> ImportanceIndicator:
    """Initial importance scores.

    Scores start at the smoothed weight magnitudes (the fixed point of the
    Eq. 8 regularizer) plus a tiny jitter so that quantile thresholds break
    ties differently across clients.  ``targets`` hands in
    ``smoothed_unit_magnitudes(model)`` when the caller initializes several
    clients from the same parameters.
    """
    rng = np.random.default_rng(seed)
    if targets is None:
        targets = smoothed_unit_magnitudes(model)
    scores = {name: values + jitter * rng.standard_normal(values.shape)
              for name, values in targets.items()}
    return ImportanceIndicator(scores)
