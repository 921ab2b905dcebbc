"""Key-sharded parameter-server aggregation.

ps-lite-style reducers partition the parameter manifest *by key*: shard
``s`` owns every key with ``shard_of_key(key, N) == s`` and reduces only
its slice of every update, so per-shard aggregation bandwidth shrinks
~1/N with the shard count.  The assignment is a pure function of the key
name and the shard count (a blake2b digest, no process state), so every
participant — server, reducers, benchmarks, tests — computes the same
partition without coordination.

Determinism contract: sharding must not change a single output bit.
That holds because every aggregation kernel in this codebase
(:func:`repro.nn.params.weighted_average`,
:func:`repro.federated.aggregation.aggregate_residuals`,
:func:`repro.federated.aggregation.masked_average`) accumulates each key
independently, in input (client) order.  Restricting a kernel to a key
subset therefore performs the *identical* float operations on those keys
in the identical order; running it once per shard and reassembling the
pieces in the original key order reproduces the unsharded result — and
the unsharded dict insertion order — bit-for-bit.  The sharded wrappers
below do exactly that: they re-invoke the unmodified base kernels on
per-shard key views of the same inputs (full client list, full weights)
and concatenate.

Activation is a dynamically-scoped plan rather than a parameter thread:
strategies call the kernels from a dozen call sites, and none of them
need to know about sharding.  :func:`shard_plan` installs a thread-local
:class:`ShardPlan`; the kernels check :func:`active_plan` at entry and
dispatch here when one is installed (``ServerCore.reduce_context`` is the
production entry point).  The wrappers suspend the plan while running the
base kernels per shard, so dispatch cannot recurse.

Byte accounting (what the ``bench dist`` axis gates) is charged on the
plan: each shard is charged its partial-result bytes times the number of
contributing updates — the bytes that shard's reducer actually streams
through its accumulators — and :func:`shard_stats` exposes the totals
with the same module-counter idiom as ``broadcast_stats``.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..util import positive_int

__all__ = [
    "shard_of_key", "partition_keys", "ShardPlan", "shard_plan",
    "active_plan", "shard_stats", "reset_shard_stats", "shard_view",
    "sharded_weighted_average", "sharded_aggregate_residuals",
    "sharded_masked_average",
]


def shard_of_key(key: str, shards: int) -> int:
    """The reducer shard owning ``key`` — pure in ``(key, shards)``.

    blake2b rather than the builtin ``hash`` because the builtin is salted
    per process (PYTHONHASHSEED), and the whole point is that the server
    and every remote reducer agree on the partition without talking.
    """
    positive_int(shards, "shard count")
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def partition_keys(keys: Iterable[str], shards: int) -> List[List[str]]:
    """Group ``keys`` by owning shard, preserving input order per shard."""
    groups: List[List[str]] = [[] for _ in range(shards)]
    for key in keys:
        groups[shard_of_key(key, shards)].append(key)
    return groups


class ShardPlan:
    """One activation of sharded reduction: shard count + byte ledger."""

    def __init__(self, shards: int) -> None:
        self.shards = positive_int(shards, "shard count")
        self.per_shard_bytes = [0] * shards
        self.reductions = 0

    def charge(self, shard: int, nbytes: int) -> None:
        self.per_shard_bytes[shard] += int(nbytes)


class _ActivePlan(threading.local):
    plan: Optional[ShardPlan] = None


_active = _ActivePlan()

_stats_lock = threading.Lock()
_STATS: Dict[str, object] = {
    "reductions": 0,
    "reduce_bytes": 0,
    "per_shard_bytes": {},  # shard count -> accumulated per-shard list
}


def active_plan() -> Optional[ShardPlan]:
    """The shard plan installed on this thread, if any."""
    return _active.plan


@contextmanager
def shard_plan(shards: int):
    """Install a :class:`ShardPlan` for the dynamic extent of the block.

    On exit the previous plan (usually None) is restored and the plan's
    ledger is folded into the module counters read by
    :func:`shard_stats`.
    """
    plan = ShardPlan(shards)
    previous = _active.plan
    _active.plan = plan
    try:
        yield plan
    finally:
        _active.plan = previous
        with _stats_lock:
            _STATS["reductions"] += plan.reductions
            _STATS["reduce_bytes"] += sum(plan.per_shard_bytes)
            accumulated = _STATS["per_shard_bytes"].setdefault(
                shards, [0] * shards)
            for shard, nbytes in enumerate(plan.per_shard_bytes):
                accumulated[shard] += nbytes


@contextmanager
def _suspended():
    """Clear the active plan so base-kernel calls do not re-dispatch here."""
    previous = _active.plan
    _active.plan = None
    try:
        yield
    finally:
        _active.plan = previous


def shard_stats() -> Dict[str, object]:
    """Cumulative sharded-reduction counters (``broadcast_stats`` idiom)."""
    with _stats_lock:
        return {
            "reductions": _STATS["reductions"],
            "reduce_bytes": _STATS["reduce_bytes"],
            "per_shard_bytes": {count: list(values) for count, values
                                in _STATS["per_shard_bytes"].items()},
        }


def reset_shard_stats() -> None:
    with _stats_lock:
        _STATS["reductions"] = 0
        _STATS["reduce_bytes"] = 0
        _STATS["per_shard_bytes"] = {}


class _ShardView(Mapping):
    """Read-only view of a parameter mapping restricted to one shard's keys.

    Iteration order is the shard's key order (original order, filtered),
    so the base kernels build their per-shard accumulators in a stable
    order and the wrappers can reassemble deterministically.
    """

    __slots__ = ("_base", "_keys", "_key_set")

    def __init__(self, base: Mapping[str, np.ndarray],
                 keys: Sequence[str]) -> None:
        self._base = base
        self._keys = keys
        self._key_set = frozenset(keys)

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self._key_set:
            raise KeyError(key)
        return self._base[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class _IndexedShardView(_ShardView):
    """Shard view over a codec-decoded update: forwards ``slices``.

    The aggregation kernels detect indexed-slice updates by the presence
    of a ``slices`` attribute (``_any_indexed``/``_slices_of``), so the
    view must carry it exactly when the underlying update does.
    """

    __slots__ = ()

    def slices(self, key: str):
        return self._base.slices(key)


def shard_view(base: Mapping[str, np.ndarray],
               keys: Sequence[str]) -> Mapping[str, np.ndarray]:
    if hasattr(base, "slices"):
        return _IndexedShardView(base, keys)
    return _ShardView(base, keys)


def _result_nbytes(params: Mapping[str, np.ndarray]) -> int:
    return int(sum(value.nbytes for value in params.values()))


def _covers(mapping: Mapping[str, np.ndarray],
            keys: Iterable[str]) -> bool:
    try:
        return all(key in mapping for key in keys)
    except TypeError:
        return False


def _views(mappings: Sequence[Mapping[str, np.ndarray]],
           shard_keys: Sequence[str]) -> List[Mapping[str, np.ndarray]]:
    return [shard_view(mapping, shard_keys) for mapping in mappings]


def _reduce_per_shard(plan: ShardPlan, keys: Sequence[str], fan_in: int,
                      run) -> Dict[str, np.ndarray]:
    """Run a base kernel once per shard and reassemble in ``keys`` order.

    ``run(shard_keys)`` reduces one shard's key slice of every input; each
    shard is charged its partial-result bytes times ``fan_in`` (the number
    of contributing updates).  Callers hold :func:`_suspended`.
    """
    plan.reductions += 1
    merged: Dict[str, np.ndarray] = {}
    for shard, shard_keys in enumerate(partition_keys(keys, plan.shards)):
        if not shard_keys:
            continue
        reduced = run(shard_keys)
        plan.charge(shard, _result_nbytes(reduced) * fan_in)
        merged.update(reduced)
    return {key: merged[key] for key in keys}


def sharded_weighted_average(plan: ShardPlan,
                             param_dicts: Iterable[Mapping[str, np.ndarray]],
                             weights: Iterable[float]):
    """Key-sharded :func:`repro.nn.params.weighted_average`.

    Materializes the (possibly generator) inputs once, then runs the base
    kernel per shard on key-restricted views with the full weight list.
    Anything irregular — empty input, length mismatch, non-positive
    weights, mismatched key sets — is delegated wholesale to the base
    kernel so error behavior is byte-for-byte unchanged.
    """
    from ..nn.params import weighted_average

    dicts = list(param_dicts)
    weight_list = [float(w) for w in weights]
    with _suspended():
        if (not dicts or len(dicts) != len(weight_list)
                or sum(weight_list) <= 0):
            return weighted_average(dicts, weight_list)
        keys = list(dicts[0])
        key_set = set(keys)
        if any(set(other) != key_set for other in dicts[1:]):
            return weighted_average(dicts, weight_list)
        return _reduce_per_shard(
            plan, keys, len(dicts),
            lambda shard_keys: weighted_average(_views(dicts, shard_keys),
                                                weight_list))


def sharded_aggregate_residuals(plan: ShardPlan,
                                global_params: Mapping[str, np.ndarray],
                                residuals: Sequence[Mapping[str, np.ndarray]],
                                weights: Sequence[float]):
    """Key-sharded :func:`repro.federated.aggregation.aggregate_residuals`."""
    from ..federated.aggregation import aggregate_residuals

    residual_list = list(residuals)
    weight_list = [float(w) for w in weights]
    with _suspended():
        keys = list(global_params)
        if (not residual_list or len(residual_list) != len(weight_list)
                or sum(weight_list) <= 0
                or any(not _covers(residual, keys) or len(residual) != len(keys)
                       for residual in residual_list)):
            return aggregate_residuals(global_params, residual_list,
                                       weight_list)
        return _reduce_per_shard(
            plan, keys, len(residual_list),
            lambda shard_keys: aggregate_residuals(
                shard_view(global_params, shard_keys),
                _views(residual_list, shard_keys), weight_list))


def sharded_masked_average(plan: ShardPlan,
                           global_params: Mapping[str, np.ndarray],
                           updates: Sequence[Mapping[str, np.ndarray]],
                           masks: Sequence[Mapping[str, np.ndarray]],
                           weights: Optional[Sequence[float]] = None):
    """Key-sharded :func:`repro.federated.aggregation.masked_average`."""
    from ..federated.aggregation import masked_average

    update_list = list(updates)
    mask_list = list(masks)
    with _suspended():
        keys = list(global_params)
        if (not update_list or len(update_list) != len(mask_list)
                or (weights is not None
                    and len(weights) != len(update_list))
                or any(not _covers(update, keys) for update in update_list)
                or any(not _covers(mask, keys) for mask in mask_list)):
            return masked_average(global_params, update_list, mask_list,
                                  weights)
        return _reduce_per_shard(
            plan, keys, len(update_list),
            lambda shard_keys: masked_average(
                shard_view(global_params, shard_keys),
                _views(update_list, shard_keys),
                _views(mask_list, shard_keys), weights))
