"""The unit-wise importance indicator ``Q`` and its regularization target.

Every client maintains one importance score per sparsifiable unit of the
model (Eq. 3).  The scores are optimized by back-propagation together with
the model parameters: the task gradient reaches ``Q`` through the unit gates
(a straight-through estimator of the non-differentiable step function in
Eq. 4), and the importance regularizer of Eq. (8) keeps ``Q`` anchored to a
smoothed view of the unit weight magnitudes.  The update itself (Eq. 11) is
part of the FedLPS trainer's step, in :mod:`repro.core.sparse_training`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..nn.activations import sigmoid
from ..nn.arena import Arena
from ..nn.batched import stack_param_dicts, unstack_param_dict
from ..nn.model import Sequential
from ..sparsity.masks import UnitPattern, pattern_from_scores


def smoothed_targets(magnitudes: Mapping[str, np.ndarray], *,
                     out: Optional[Arena] = None) -> Arena:
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
    (``std < 1e-12``) gets the flat target 0.5, decided per row.  Each
    layer's mean is computed once and serves both the centering and the
    standard deviation, spelled with the ufuncs numpy's ``np.mean`` /
    ``np.std`` run (so the bits are theirs); the sigmoid then runs once over
    the whole unit arena.  The targets land in ``out`` (an arena laid out
    like ``magnitudes``), or in a fresh one.
    """
    if not isinstance(magnitudes, Arena):
        magnitudes = Arena.of(magnitudes)
    if out is None:
        out = magnitudes.like()
    for name, magnitude in magnitudes.items():
        centered = out[name]
        _, std = _mean_and_std(magnitude, centered=centered)
        flat = std < 1e-12
        np.true_divide(centered, np.where(flat, 1.0, std), out=centered)
        np.copyto(centered, 0.0, where=flat)
    out.flat[...] = sigmoid(out.flat)
    return out


def _mean_and_std(values: np.ndarray, *, centered: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``np.mean`` and ``np.std`` of ``values`` over the last axis (kept),
    bit for bit, from ONE mean; ``values - mean`` lands in ``centered``.

    The ufuncs numpy's ``_mean`` / ``_var`` run, in their order: the
    ``add.reduce`` divided by the count is the mean, and the deviations
    from it are squared, summed, divided by the count and square-rooted.
    """
    count = values.shape[-1]
    mean = np.true_divide(np.add.reduce(values, axis=-1, keepdims=True), count)
    np.subtract(values, mean, out=centered)
    variance = np.true_divide(
        np.add.reduce(np.square(centered), axis=-1, keepdims=True), count)
    return mean, np.sqrt(variance, out=variance)


def smoothed_unit_magnitudes(model: Sequential) -> Arena:
    """:func:`smoothed_targets` of ``model``'s current parameters."""
    return smoothed_targets(model.unit_weight_magnitudes())


@dataclass
class ImportanceIndicator:
    """Per-layer importance scores: ``(n_units,)`` arrays for one client, or
    the ``(C, n_units)`` rows of a unit arena for a cohort (:meth:`stack`),
    which the FedLPS trainer updates in place (Eq. 11)."""

    scores: Mapping[str, np.ndarray]

    @classmethod
    def stack(cls, indicators: Sequence["ImportanceIndicator"], *,
              layout: Arena) -> "ImportanceIndicator":
        """One indicator holding copies of ``indicators`` as the stacked
        rows of a unit arena laid out like ``layout`` (a program's gate
        gradients), whatever order each indicator lists its layers in."""
        scores = layout.like()
        scores.load(stack_param_dicts([each.scores for each in indicators]))
        return cls(scores)

    def row(self, index: int) -> "ImportanceIndicator":
        """Client ``index`` of a stacked indicator, as its own copy."""
        return ImportanceIndicator(unstack_param_dict(self.scores, index))

    def copy(self) -> "ImportanceIndicator":
        return ImportanceIndicator(
            {name: np.array(values, copy=True) for name, values in self.scores.items()})

    @property
    def total_units(self) -> int:
        return int(sum(values.size for values in self.scores.values()))

    def pattern(self, model: Sequential, sparse_ratio: float) -> UnitPattern:
        """Importance-derived sparse pattern (Eq. 4, layer-wise quantile)."""
        return pattern_from_scores(model, self.scores, sparse_ratio)


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
