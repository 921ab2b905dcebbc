"""Unit masks and the mask-construction operator ``M(P | omega, s)``.

Terminology follows the paper:

* a **sparse ratio** ``s`` in ``(0, 1]`` is the fraction of units retained;
* a **sparse pattern** ``P`` is a binary choice of which units are retained;
* the **local mask** ``m`` is the parameter-level binary mask obtained by
  expanding the pattern over the model parameters (Eq. 2 / Eq. 5).

Patterns are stored per layer as ``{layer_name: bool array of length
n_units}`` and parameter masks as ``{"layer.param": array}`` matching the
parameter snapshots used everywhere else.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..nn.model import Sequential
from ..util import in_range

UnitPattern = Dict[str, np.ndarray]
ParamMask = Dict[str, np.ndarray]


def validate_sparse_ratio(ratio: float) -> float:
    """Check that a sparse ratio is usable (fraction of *retained* units)."""
    return in_range(float(ratio), "sparse ratio", 0, 1, low_open=True)


def units_to_keep(n_units: int, ratio: float) -> int:
    """Number of units retained in a layer of ``n_units`` at ``ratio``.

    At least one unit is always kept so that the network never collapses,
    matching how structured-sparsity FL implementations behave in practice.
    """
    ratio = validate_sparse_ratio(ratio)
    return int(np.clip(int(round(ratio * n_units)), 1, n_units))


def pattern_from_scores(model: Sequential, scores: Mapping[str, np.ndarray],
                        ratio: float) -> UnitPattern:
    """Keep the highest-scoring units of each layer at the given ratio.

    This is the layer-wise ``(1 - s)``-quantile thresholding of Eq. (4): the
    retained units are exactly those whose score is at or above the
    layer-wise threshold.  Ties are broken deterministically by unit index.
    """
    ratio = validate_sparse_ratio(ratio)
    pattern: UnitPattern = {}
    for group in model.unit_groups:
        layer_scores = np.asarray(scores[group.layer_name], dtype=np.float64)
        if layer_scores.shape != (group.n_units,):
            raise ValueError(
                f"scores for {group.layer_name!r} must have shape "
                f"({group.n_units},), got {layer_scores.shape}")
        keep = units_to_keep(group.n_units, ratio)
        # argsort is ascending; take the `keep` largest scores.
        order = np.argsort(layer_scores, kind="stable")
        kept_indices = order[-keep:]
        mask = np.zeros(group.n_units, dtype=bool)
        mask[kept_indices] = True
        pattern[group.layer_name] = mask
    return pattern


def importance_threshold(scores: np.ndarray, ratio: float) -> float:
    """The ``(1 - s)``-quantile threshold ``tau`` of Eq. (4) for one layer."""
    ratio = validate_sparse_ratio(ratio)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot compute a threshold over zero units")
    return float(np.quantile(scores, 1.0 - ratio))


def full_pattern(model: Sequential) -> UnitPattern:
    """A pattern keeping every unit (the dense model)."""
    return {group.layer_name: np.ones(group.n_units, dtype=bool)
            for group in model.unit_groups}


def build_parameter_mask(model: Sequential, pattern: Mapping[str, np.ndarray]
                         ) -> ParamMask:
    """Expand a unit pattern into a parameter-level binary mask, ``M(P|omega, s)``."""
    unit_masks = {name: np.asarray(mask, dtype=np.float64)
                  for name, mask in pattern.items()}
    return model.expand_unit_masks(unit_masks)


def pattern_keep_ratio(pattern: Mapping[str, np.ndarray]) -> float:
    """Fraction of units retained across the whole pattern."""
    total = sum(int(np.asarray(mask).size) for mask in pattern.values())
    kept = sum(int(np.count_nonzero(mask)) for mask in pattern.values())
    if total == 0:
        return 1.0
    return kept / total


def per_layer_keep_ratio(pattern: Mapping[str, np.ndarray]) -> Dict[str, float]:
    """Fraction of units retained per layer."""
    ratios = {}
    for name, mask in pattern.items():
        mask = np.asarray(mask)
        ratios[name] = float(np.count_nonzero(mask)) / mask.size if mask.size else 1.0
    return ratios


def pattern_overlap(left: Mapping[str, np.ndarray],
                    right: Mapping[str, np.ndarray]) -> float:
    """Jaccard overlap between two patterns' retained unit sets."""
    intersection = 0
    union = 0
    for name in left:
        a = np.asarray(left[name], dtype=bool)
        b = np.asarray(right[name], dtype=bool)
        intersection += int(np.count_nonzero(a & b))
        union += int(np.count_nonzero(a | b))
    return intersection / union if union else 1.0


def gates_from_pattern(pattern: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Convert a boolean pattern into float unit gates (1.0 keep / 0.0 prune)."""
    return {name: np.asarray(mask, dtype=np.float64) for name, mask in pattern.items()}
