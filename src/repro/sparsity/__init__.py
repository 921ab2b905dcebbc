"""Structured sparsification: patterns, masks and cost accounting."""

from .accounting import (BYTES_PER_PARAMETER, TRAIN_FLOP_MULTIPLIER, SparseCost,
                         download_bytes, local_round_cost,
                         local_training_flops, masked_parameter_count,
                         sparse_forward_flops, upload_bytes)
from .masks import (build_parameter_mask, gates_from_pattern,
                    pattern_from_scores, per_layer_keep_ratio, units_to_keep,
                    validate_sparse_ratio)
from .patterns import (PATTERN_STRATEGIES, depth_pattern, heuristic_pattern,
                       magnitude_pattern, ordered_pattern, random_pattern,
                       rolling_pattern)

__all__ = [
    "SparseCost",
    "TRAIN_FLOP_MULTIPLIER",
    "BYTES_PER_PARAMETER",
    "sparse_forward_flops",
    "local_training_flops",
    "local_round_cost",
    "masked_parameter_count",
    "upload_bytes",
    "download_bytes",
    "validate_sparse_ratio",
    "units_to_keep",
    "pattern_from_scores",
    "build_parameter_mask",
    "per_layer_keep_ratio",
    "gates_from_pattern",
    "random_pattern",
    "ordered_pattern",
    "rolling_pattern",
    "magnitude_pattern",
    "depth_pattern",
    "heuristic_pattern",
    "PATTERN_STRATEGIES",
]
