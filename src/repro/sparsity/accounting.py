"""FLOP and communication accounting for dense and sparse training.

The paper reports total training FLOPs (Table I, Figures 3) and models local
time cost from FLOPs and transmitted bytes (Eq. 14).  This module computes
both quantities analytically from the model architecture and the per-layer
keep ratios induced by a sparse pattern, so the simulator never has to time
actual numpy execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..nn.model import Sequential
from ..util import in_range, non_negative_int, positive_int
from .masks import per_layer_keep_ratio

#: backward pass costs roughly twice the forward pass; training a batch is
#: therefore ~3x the forward FLOPs.  This is the convention used by the FL
#: papers the evaluation compares against.
TRAIN_FLOP_MULTIPLIER = 3

#: bytes used to transmit one parameter value (float32 on the wire).
BYTES_PER_PARAMETER = 4


@dataclass(frozen=True)
class SparseCost:
    """Computation and communication footprint of one local round."""

    flops: float
    upload_bytes: float
    download_bytes: float

    def scaled(self, factor: float) -> "SparseCost":
        return SparseCost(self.flops * factor, self.upload_bytes * factor,
                          self.download_bytes * factor)


def sparse_forward_flops(model: Sequential,
                         pattern: Optional[Mapping[str, np.ndarray]] = None,
                         uniform_ratio: Optional[float] = None) -> float:
    """Forward FLOPs per example under structured sparsity.

    A layer's cost shrinks with both its own retained-unit fraction (fewer
    output units) and the retained fraction of the unit-bearing layer feeding
    it (fewer input units).  Either a concrete ``pattern`` or a single
    ``uniform_ratio`` applied to every sparsifiable layer may be given; with
    neither the dense cost is returned.
    """
    if pattern is not None and uniform_ratio is not None:
        raise ValueError("give either a pattern or a uniform ratio, not both")
    keep_by_layer: Dict[str, float]
    if pattern is not None:
        keep_by_layer = per_layer_keep_ratio(pattern)
    elif uniform_ratio is not None:
        in_range(uniform_ratio, "uniform_ratio", 0, 1, low_open=True)
        keep_by_layer = {group.layer_name: float(uniform_ratio)
                         for group in model.unit_groups}
    else:
        keep_by_layer = {group.layer_name: 1.0 for group in model.unit_groups}

    layer_costs = model.layer_flops()
    total = 0.0
    upstream_keep = 1.0
    for layer in model.layers:
        own_keep = keep_by_layer.get(layer.name)
        cost = layer_costs[layer.name]
        if cost > 0:
            effective = cost * upstream_keep * (own_keep if own_keep is not None else 1.0)
            total += effective
        if own_keep is not None:
            upstream_keep = own_keep
    return total


def local_training_flops(model: Sequential, num_examples: int, iterations: int,
                         batch_size: int,
                         pattern: Optional[Mapping[str, np.ndarray]] = None,
                         uniform_ratio: Optional[float] = None) -> float:
    """Total FLOPs of ``iterations`` local SGD steps over batches of data."""
    non_negative_int(iterations, "iterations")
    positive_int(batch_size, "batch_size")
    per_example = sparse_forward_flops(model, pattern, uniform_ratio)
    examples_processed = iterations * min(batch_size, max(num_examples, 1))
    return TRAIN_FLOP_MULTIPLIER * per_example * examples_processed


def masked_parameter_count(model: Sequential,
                           pattern: Optional[Mapping[str, np.ndarray]] = None
                           ) -> int:
    """Number of parameters retained by a pattern (all of them when None)."""
    if pattern is None:
        return model.num_parameters
    # the nonzeros of model.expand_unit_masks(pattern), counted per layer
    # without building the parameter-level masks
    return int(sum(
        layer.kept_parameter_count(pattern[layer.name])
        if layer.sparsifiable and layer.n_units > 0 and layer.name in pattern
        else sum(value.size for value in layer.params.values())
        for layer in model.layers))


def upload_bytes(model: Sequential,
                 pattern: Optional[Mapping[str, np.ndarray]] = None,
                 include_pattern_bits: bool = True) -> float:
    """Uplink volume: retained parameter values plus the tiny binary pattern."""
    count = masked_parameter_count(model, pattern)
    volume = count * BYTES_PER_PARAMETER
    if include_pattern_bits and pattern is not None:
        pattern_bits = sum(np.asarray(mask).size for mask in pattern.values())
        volume += pattern_bits / 8.0
    return float(volume)


def download_bytes(model: Sequential) -> float:
    """Downlink volume: the dense global parameters (as in FedAvg/FedLPS)."""
    return float(model.num_parameters * BYTES_PER_PARAMETER)


def local_round_cost(model: Sequential, num_examples: int, iterations: int,
                     batch_size: int,
                     pattern: Optional[Mapping[str, np.ndarray]] = None,
                     uniform_ratio: Optional[float] = None) -> SparseCost:
    """Convenience bundle of the three cost components of one local round."""
    flops = local_training_flops(model, num_examples, iterations, batch_size,
                                 pattern, uniform_ratio)
    if pattern is None and uniform_ratio is not None:
        # approximate upload volume for a uniform ratio without a concrete pattern
        up = model.num_parameters * uniform_ratio * BYTES_PER_PARAMETER
    else:
        up = upload_bytes(model, pattern)
    return SparseCost(flops=flops, upload_bytes=float(up),
                      download_bytes=download_bytes(model))
