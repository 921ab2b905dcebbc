"""Server-side aggregation rules."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from ..nn.params import (ParamDict, copy_params, indexed_subtract_scaled,
                         indexed_weighted_accumulate, weighted_average,
                         zeros_like, _check_same_keys)


def _slices_of(update: Mapping[str, np.ndarray], key: str):
    """The indexed-slice form of one entry, or None when dense.

    Codec-decoded updates (``repro.parallel.codec.DecodedParams``) expose
    sparse entries through ``.slices(key)``; plain dictionaries (and the
    dense entries of a decoded update) answer None and take the dense path.
    """
    getter = getattr(update, "slices", None)
    if getter is None:
        return None
    return getter(key)


def _any_indexed(updates: Sequence[Mapping[str, np.ndarray]]) -> bool:
    return any(hasattr(update, "slices") for update in updates)


def fedavg(updates: Sequence[Mapping[str, np.ndarray]],
           weights: Sequence[float]) -> ParamDict:
    """Classic FedAvg: data-size-weighted average of local parameters."""
    return weighted_average(updates, weights)


def aggregate_residuals(global_params: Mapping[str, np.ndarray],
                        residuals: Sequence[Mapping[str, np.ndarray]],
                        weights: Sequence[float]) -> ParamDict:
    """FedLPS aggregation (Eq. 13).

    Every client uploads the masked residual ``r_k = (w_global - w_k) * m_k``;
    the server averages ``w_global - r_k`` weighted by the local data sizes.
    Because each client's mask is different, the averaged update is relatively
    dense even though every individual upload is sparse.

    Residuals may arrive dense (plain dictionaries) or in codec-decoded
    indexed-slice form; indexed residuals are reduced *without densifying*
    (allocations stay O(keys), independent of the cohort size) and the
    result is bit-identical to the dense reduction — see
    :func:`repro.nn.params.indexed_subtract_scaled` for the proof.
    """
    from ..parallel.sharding import active_plan
    plan = active_plan()
    if plan is not None:
        from ..parallel.sharding import sharded_aggregate_residuals
        return sharded_aggregate_residuals(plan, global_params, residuals,
                                           weights)
    if len(residuals) != len(weights):
        raise ValueError("residuals and weights must have the same length")
    if not residuals:
        return copy_params(global_params)
    if not _any_indexed(residuals):
        # stream the reconstructions: weighted_average consumes the generator
        # one dictionary at a time, so only a single reconstructed snapshot
        # is alive instead of one per client
        reconstructed = ({key: global_params[key] - residual[key]
                          for key in global_params} for residual in residuals)
        return weighted_average(reconstructed, weights)
    weight_list = [float(w) for w in weights]
    total = sum(weight_list)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    result = zeros_like(global_params)
    # C-contiguous scratch regardless of the source layout: the indexed
    # kernel writes through a flat view of it
    scratch = {key: np.empty(value.shape, dtype=value.dtype)
               for key, value in result.items()}
    for residual, weight in zip(residuals, weight_list):
        _check_same_keys(result, residual)
        factor = weight / total
        for key, accumulator in result.items():
            global_array = global_params[key]
            slices = _slices_of(residual, key)
            if slices is None:
                np.subtract(global_array, residual[key], out=scratch[key])
                np.multiply(scratch[key], factor, out=scratch[key])
            else:
                indexed_subtract_scaled(
                    global_array, factor, slices.value_indices,
                    slices.values, slices.negzero_indices, out=scratch[key])
            accumulator += scratch[key]
    return result


def masked_average(global_params: Mapping[str, np.ndarray],
                   updates: Sequence[Mapping[str, np.ndarray]],
                   masks: Sequence[Mapping[str, np.ndarray]],
                   weights: Optional[Sequence[float]] = None) -> ParamDict:
    """Coverage-aware averaging used by HeteroFL-style heterogeneous models.

    Each parameter entry is averaged only over the clients whose mask carries
    that entry; entries carried by nobody keep their previous global value.
    """
    from ..parallel.sharding import active_plan
    plan = active_plan()
    if plan is not None:
        from ..parallel.sharding import sharded_masked_average
        return sharded_masked_average(plan, global_params, updates, masks,
                                      weights)
    if len(updates) != len(masks):
        raise ValueError("updates and masks must have the same length")
    if not updates:
        return copy_params(global_params)
    if weights is None:
        weights = [1.0] * len(updates)
    if len(weights) != len(updates):
        raise ValueError("weights must match updates in length")
    numerator = zeros_like(global_params)
    denominator = zeros_like(global_params)
    scratch = {key: np.empty(value.shape, dtype=value.dtype)
               for key, value in numerator.items()}
    for update, mask, weight in zip(updates, masks, weights):
        for key in numerator:
            # one reusable scratch array instead of two fresh temporaries per
            # entry; the grouping (weight * mask) * update matches the old
            # ``weight * mask[key] * update[key]`` bit-for-bit
            weighted_mask = np.multiply(mask[key], weight, out=scratch[key])
            denominator[key] += weighted_mask
            slices = _slices_of(update, key)
            if slices is None:
                weighted_mask *= update[key]
                numerator[key] += weighted_mask
            else:
                # indexed update: only the explicit values contribute to the
                # numerator; the skipped ``+-0.0`` positions are bitwise
                # no-ops (proof in ``indexed_weighted_accumulate``), and the
                # denominator accumulation above is untouched — masks stay
                # dense server-side
                indexed_weighted_accumulate(
                    numerator[key], weighted_mask,
                    slices.value_indices, slices.values)
    result: ParamDict = {}
    for key in numerator:
        covered = denominator[key] > 0
        merged = np.array(global_params[key], copy=True)
        merged[covered] = numerator[key][covered] / denominator[key][covered]
        result[key] = merged
    return result
