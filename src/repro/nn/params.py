"""Helpers for manipulating flat parameter dictionaries.

Federated learning moves parameter snapshots around constantly (global
parameters, local updates, residuals, masked uploads).  These helpers give
that traffic a single, explicit vocabulary: every snapshot is a
``{"layer.param": ndarray}`` dictionary and every operation returns a new
dictionary without mutating its inputs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

ParamDict = Dict[str, np.ndarray]


def copy_params(params: Mapping[str, np.ndarray]) -> ParamDict:
    """Deep-copy a parameter dictionary."""
    return {key: np.array(value, copy=True) for key, value in params.items()}


def zeros_like(params: Mapping[str, np.ndarray]) -> ParamDict:
    """A dictionary of zero arrays with the same keys/shapes."""
    return {key: np.zeros_like(value) for key, value in params.items()}


def add(left: Mapping[str, np.ndarray], right: Mapping[str, np.ndarray]) -> ParamDict:
    """Element-wise sum of two parameter dictionaries."""
    _check_same_keys(left, right)
    return {key: left[key] + right[key] for key in left}


def subtract(left: Mapping[str, np.ndarray], right: Mapping[str, np.ndarray]) -> ParamDict:
    """Element-wise difference ``left - right``."""
    _check_same_keys(left, right)
    return {key: left[key] - right[key] for key in left}


def scale(params: Mapping[str, np.ndarray], factor: float) -> ParamDict:
    """Multiply every entry by ``factor``."""
    return {key: value * factor for key, value in params.items()}


def multiply(left: Mapping[str, np.ndarray], right: Mapping[str, np.ndarray]) -> ParamDict:
    """Element-wise (Hadamard) product, e.g. ``omega * mask``."""
    _check_same_keys(left, right)
    return {key: left[key] * right[key] for key in left}


def weighted_average(param_dicts: Iterable[Mapping[str, np.ndarray]],
                     weights: Iterable[float]) -> ParamDict:
    """Weighted average of parameter dictionaries (weights are normalized).

    Single-pass and allocation-light: ``param_dicts`` may be a generator (it
    is consumed exactly once) and the accumulation reuses one preallocated
    scratch array per parameter instead of materializing a scaled temporary
    per client.  Results are bit-identical to the naive
    ``sum(params * w / total)`` formulation — each contribution is still
    computed as ``params[key] * (weight / total)`` and added in input order.

    Under an active reducer shard plan (``ServerCore.reduce_context``) the
    reduction is partitioned by key across shards; each key still
    accumulates independently in input order, so the result is bit-identical
    (proof in :mod:`repro.parallel.sharding`).
    """
    from ..parallel.sharding import active_plan
    plan = active_plan()
    if plan is not None:
        from ..parallel.sharding import sharded_weighted_average
        return sharded_weighted_average(plan, param_dicts, weights)
    weight_list = [float(w) for w in weights]
    total = sum(weight_list)
    result: ParamDict = {}
    scratch: ParamDict = {}
    count = 0
    for params in param_dicts:
        count += 1
        if count > len(weight_list):
            raise ValueError("parameter dictionaries and weights must have equal length")
        if count == 1:
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            result = zeros_like(params)
            scratch = {key: np.empty_like(value) for key, value in result.items()}
        _check_same_keys(result, params)
        factor = weight_list[count - 1] / total
        for key, accumulator in result.items():
            np.multiply(params[key], factor, out=scratch[key])
            accumulator += scratch[key]
    if count == 0:
        raise ValueError("cannot average an empty collection of parameters")
    if count != len(weight_list):
        raise ValueError("parameter dictionaries and weights must have equal length")
    return result


def num_parameters(params: Mapping[str, np.ndarray]) -> int:
    """Total number of scalar parameters."""
    return int(sum(value.size for value in params.values()))


def param_nbytes(params: Mapping[str, np.ndarray]) -> int:
    """Total dense bytes of a parameter dictionary (wire accounting)."""
    return int(sum(value.nbytes for value in params.values()))


def indexed_subtract_scaled(global_array: np.ndarray, factor: float,
                            value_indices: np.ndarray, values: np.ndarray,
                            negzero_indices: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
    """``out = (global_array - sparse) * factor`` without densifying.

    The sparse operand is given in indexed-slice form: explicit ``values``
    at flat ``value_indices``, exact ``-0.0`` at ``negzero_indices`` and
    ``+0.0`` everywhere else.  Bit-identical to the dense expression at
    every position:

    * elsewhere, ``(g - (+0.0)) * f`` — IEEE-754 guarantees ``g - 0.0 == g``
      bit-for-bit (including for ``g = -0.0`` and NaN), so the bulk
      ``g * f`` below already matches;
    * at ``negzero_indices``, ``g - (-0.0) == g + 0.0`` which is *not*
      ``g`` when ``g`` is ``-0.0`` (it is ``+0.0``), so those positions are
      recomputed explicitly as ``(g + 0.0) * f``;
    * at ``value_indices``, ``(g - value) * f``, computed explicitly.

    ``out`` must be C-contiguous (``reshape(-1)`` must be a view).
    """
    np.multiply(global_array, factor, out=out)
    flat_out = out.reshape(-1)
    flat_global = global_array.reshape(-1)
    if negzero_indices.size:
        flat_out[negzero_indices] = \
            (flat_global[negzero_indices] + 0.0) * factor
    if value_indices.size:
        flat_out[value_indices] = \
            (flat_global[value_indices] - values) * factor
    return out


def indexed_weighted_accumulate(accumulator: np.ndarray,
                                weighted_mask: np.ndarray,
                                value_indices: np.ndarray,
                                values: np.ndarray) -> np.ndarray:
    """``accumulator += weighted_mask * sparse`` without densifying.

    Bit-identical to the dense accumulation when ``accumulator`` started at
    ``+0.0`` and ``weighted_mask`` is non-negative: the skipped positions
    of the sparse operand are ``+0.0`` or exactly ``-0.0``, whose dense
    contribution ``weighted_mask * (+-0.0) = +-0.0`` is a bitwise no-op —
    ``x + (+-0.0) == x`` for every ``x`` except ``x = -0.0``, and the
    accumulator can never hold ``-0.0`` (it starts at ``+0.0``, and IEEE
    round-to-nearest only yields ``-0.0`` from ``(-0.0) + (-0.0)``).
    """
    if value_indices.size:
        flat = accumulator.reshape(-1)
        flat[value_indices] += \
            weighted_mask.reshape(-1)[value_indices] * values
    return accumulator


def count_nonzero(params: Mapping[str, np.ndarray]) -> int:
    """Number of non-zero scalar entries (used for sparse upload accounting)."""
    return int(sum(np.count_nonzero(value) for value in params.values()))


def _check_same_keys(left: Mapping[str, np.ndarray], right: Mapping[str, np.ndarray]) -> None:
    if set(left.keys()) != set(right.keys()):
        missing = set(left.keys()) ^ set(right.keys())
        raise KeyError(f"parameter dictionaries differ in keys: {sorted(missing)}")
