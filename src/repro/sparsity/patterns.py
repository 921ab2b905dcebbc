"""Sparse-pattern strategies.

The paper contrasts its learnable importance-derived pattern with the
heuristic families used by prior work: random dropout (Federated Dropout),
ordered dropout (FjORD / HeteroFL), rolling windows (FedRolex),
magnitude-based pruning (FedMP / Hermes / LotteryFL) and depth scaling
(DepthFL).  All of them are implemented here against the same unit-layout
abstraction so the ablation benches (Figure 9a) can compare them directly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.model import Sequential
from ..util import non_negative_int
from .masks import UnitPattern, pattern_from_scores, units_to_keep, validate_sparse_ratio


def random_pattern(model: Sequential, ratio: float, *,
                   rng: Optional[np.random.Generator] = None) -> UnitPattern:
    """Keep a uniformly random subset of units in every layer."""
    validate_sparse_ratio(ratio)
    rng = rng or np.random.default_rng(0)
    pattern: UnitPattern = {}
    for group in model.unit_groups:
        keep = units_to_keep(group.n_units, ratio)
        kept = rng.choice(group.n_units, size=keep, replace=False)
        mask = np.zeros(group.n_units, dtype=bool)
        mask[kept] = True
        pattern[group.layer_name] = mask
    return pattern


def ordered_pattern(model: Sequential, ratio: float) -> UnitPattern:
    """Ordered dropout: keep the first ``ceil(s * n)`` units of every layer.

    This is the sub-model extraction rule of FjORD and HeteroFL, where nested
    sub-models always share their leading units.
    """
    validate_sparse_ratio(ratio)
    pattern: UnitPattern = {}
    for group in model.unit_groups:
        keep = units_to_keep(group.n_units, ratio)
        mask = np.zeros(group.n_units, dtype=bool)
        mask[:keep] = True
        pattern[group.layer_name] = mask
    return pattern


def rolling_pattern(model: Sequential, ratio: float, round_index: int) -> UnitPattern:
    """FedRolex-style rolling window: the kept block advances every round."""
    validate_sparse_ratio(ratio)
    non_negative_int(round_index, "round_index")
    pattern: UnitPattern = {}
    for group in model.unit_groups:
        keep = units_to_keep(group.n_units, ratio)
        start = round_index % group.n_units
        indices = (start + np.arange(keep)) % group.n_units
        mask = np.zeros(group.n_units, dtype=bool)
        mask[indices] = True
        pattern[group.layer_name] = mask
    return pattern


def magnitude_pattern(model: Sequential, ratio: float) -> UnitPattern:
    """Keep the units with the largest aggregate weight magnitude."""
    validate_sparse_ratio(ratio)
    magnitudes = model.unit_weight_magnitudes()
    return pattern_from_scores(model, magnitudes, ratio)


def depth_pattern(model: Sequential, ratio: float) -> UnitPattern:
    """DepthFL-style depth scaling: drop whole deepest sparsifiable layers.

    The shallowest layers are always fully retained; enough of the deepest
    sparsifiable layers are pruned (all units masked except one, to keep the
    network connected) so that the overall kept-unit fraction approaches the
    requested ratio.
    """
    validate_sparse_ratio(ratio)
    groups = model.unit_groups
    total_units = sum(group.n_units for group in groups)
    pattern: UnitPattern = {group.layer_name: np.ones(group.n_units, dtype=bool)
                            for group in groups}
    if ratio >= 1.0 or not groups:
        return pattern
    target_kept = max(1, int(round(ratio * total_units)))
    kept = total_units
    for group in reversed(groups):
        if kept <= target_kept:
            break
        removable = group.n_units - 1
        if kept - removable < target_kept:
            # partially prune this layer (keep leading units) and stop
            to_remove = kept - target_kept
            mask = np.ones(group.n_units, dtype=bool)
            mask[group.n_units - to_remove:] = False
            mask[0] = True
            pattern[group.layer_name] = mask
            kept -= int(np.count_nonzero(~mask))
            break
        mask = np.zeros(group.n_units, dtype=bool)
        mask[0] = True
        pattern[group.layer_name] = mask
        kept -= removable
    return pattern


PATTERN_STRATEGIES = {
    "random": random_pattern,
    "ordered": ordered_pattern,
    "magnitude": magnitude_pattern,
    "depth": depth_pattern,
}


def heuristic_pattern(name: str, model: Sequential, ratio: float, *,
                      round_index: int = 0,
                      rng: Optional[np.random.Generator] = None) -> UnitPattern:
    """Dispatch helper over the heuristic pattern strategies by name."""
    name = name.lower()
    if name == "random":
        return random_pattern(model, ratio, rng=rng)
    if name == "ordered":
        return ordered_pattern(model, ratio)
    if name == "rolling":
        return rolling_pattern(model, ratio, round_index)
    if name == "magnitude":
        return magnitude_pattern(model, ratio)
    if name == "depth":
        return depth_pattern(model, ratio)
    raise ValueError(f"unknown pattern strategy {name!r}")
