"""Shared-memory broadcast of round-invariant fan-out payloads.

Per-round client fan-out used to pickle the full global model and parameters
once *per selected client*: every task payload carried its own copy of the
round-invariant state.  This module ships that state once per round instead:

* the float64 parameter blocks (the global model weights) are written raw
  into a :mod:`multiprocessing.shared_memory` segment, described by a small
  manifest of ``(key, dtype, shape, offset)`` entries — they are never
  pickled at all;
* everything else that is invariant across the round's tasks (the strategy
  template, the model architecture, the dataset, the scenario-bearing
  config) is pickled **once** into the same segment;
* each task payload shrinks to a :class:`BroadcastHandle` (segment name +
  manifest, a few hundred bytes) plus the per-client ``(client_id, state)``.

Workers reconstruct the payload through :func:`materialize`, which keeps a
small cache keyed by ``(round_index, digest)`` in *thread-local* storage.
Thread-local is the common denominator for both pool backends: a process
worker runs its tasks on one thread (so the cache is per process), and a
thread worker's tasks never share the cache with a sibling thread (so
concurrent tasks cannot race on the materialized scratch objects).  The net
effect is that the round-invariant payload is deserialized at most once per
worker per round, exactly mirroring the sequential-reuse semantics of the
serial reference backend.

When shared memory is unavailable the broadcast degrades to carrying the
bytes inline in the handle (still deserialized once per worker thanks to the
cache, but re-pickled per task); callers never need to care.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..util import BoundedLRU
from .codec import EncodedBlock, EncodedParams, decode_block

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shared_memory = None

#: how many materialized broadcasts each worker thread keeps around; rounds
#: are processed in order, so the live set is the current round's local-update
#: and evaluation broadcasts plus a little slack
CACHE_LIMIT = 4

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

# ------------------------------------------------------------------ stats
_stats_lock = threading.Lock()
_STATS: Dict[str, int] = {}


def _stats_template() -> Dict[str, int]:
    return {
        "publishes": 0,            # broadcasts created by the server
        "param_packs": 0,          # publishes that carried parameter blocks
        "param_bytes": 0,          # raw (never pickled) parameter bytes
        "blob_bytes": 0,           # pickled round-invariant payload bytes
        "inline_publishes": 0,     # publishes that fell back to inline bytes
        "materializations": 0,     # worker-side cache misses (same process)
        "materialize_hits": 0,     # worker-side cache hits (same process)
    }


_STATS.update(_stats_template())


def broadcast_stats() -> Dict[str, int]:
    """Snapshot of the module counters.

    Server-side counters (``publishes``/``param_bytes``/``blob_bytes``) are
    always accurate; the ``materializ*`` counters only observe workers that
    share the server's process, i.e. the thread backend.
    """
    with _stats_lock:
        return dict(_STATS)


def _bump(**deltas: int) -> None:
    with _stats_lock:
        for key, delta in deltas.items():
            _STATS[key] += delta


# ---------------------------------------------------------------- handles
@dataclass(frozen=True)
class BlockSpec:
    """Location of one parameter (sub-)array inside the broadcast segment.

    A raw block is one spec (``codec="raw"``, ``part=0``) whose
    ``dtype``/``shape`` describe the parameter array itself — the historical
    manifest entry, unchanged.  A codec-encoded block is one spec per wire
    sub-array (bitmaps, codes, codebooks, values) sharing a ``key``; each
    spec's ``dtype``/``shape`` describe its *part*, and part 0 carries the
    decoder metadata ``(logical_dtype, logical_shape, codec_meta)`` in
    ``meta``.  The defaults keep old pickled specs and existing callers
    working untouched.
    """

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int
    codec: str = "raw"
    part: int = 0
    meta: Tuple = ()


@dataclass(frozen=True)
class BroadcastHandle:
    """Picklable reference to a published broadcast.

    The handle is what rides in every task payload, so it stays small: the
    segment name, the parameter manifest and the blob span.  ``inline`` is
    only populated by the no-shared-memory fallback.
    """

    shm_name: Optional[str]
    manifest: Tuple[BlockSpec, ...]
    has_params: bool
    blob_offset: int
    blob_nbytes: int
    total_nbytes: int
    digest: str
    round_index: int
    creator_pid: int = -1
    inline: Optional[bytes] = field(default=None, repr=False)

    @property
    def cache_key(self) -> Tuple[int, str]:
        return (self.round_index, self.digest)


class Broadcast:
    """Server-side publication of one round's invariant fan-out payload.

    ``params`` (a ``{key: ndarray}`` dictionary, typically the global model
    parameters) is stored as raw float64 blocks; ``payload`` (everything else
    the tasks need) is pickled once.  Use as a context manager so the shared
    memory segment is unlinked deterministically once the round's fan-out has
    completed — workers copy out of the segment during :func:`materialize`,
    so the segment only needs to outlive the ``map_ordered`` call.
    """

    def __init__(self, payload: Any,
                 params: Optional[Mapping[str, np.ndarray]] = None, *,
                 encoded_params: Optional[EncodedParams] = None,
                 round_index: int = -1,
                 use_shared_memory: bool = True) -> None:
        if params is not None and encoded_params is not None:
            raise ValueError("pass either params or encoded_params, not both")
        blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        manifest: List[BlockSpec] = []
        blocks: List[np.ndarray] = []
        offset = 0
        for key in sorted(params) if params is not None else ():
            array = np.ascontiguousarray(params[key])
            manifest.append(BlockSpec(key=key, dtype=array.dtype.str,
                                      shape=tuple(array.shape), offset=offset,
                                      nbytes=array.nbytes))
            blocks.append(array)
            offset += array.nbytes
        if encoded_params is not None:
            # codec-tagged blocks: only the wire sub-arrays enter the
            # segment, so param_bytes below counts real wire bytes
            for key, block in sorted(encoded_params.blocks.items()):
                for part, sub in enumerate(block.arrays):
                    sub = np.ascontiguousarray(sub)
                    meta = (block.dtype, block.shape, block.meta) \
                        if part == 0 else ()
                    manifest.append(BlockSpec(
                        key=key, dtype=sub.dtype.str, shape=tuple(sub.shape),
                        offset=offset, nbytes=sub.nbytes, codec=block.codec,
                        part=part, meta=meta))
                    blocks.append(sub)
                    offset += sub.nbytes
        param_nbytes = offset
        total = param_nbytes + len(blob)

        hasher = hashlib.blake2b(digest_size=16)
        for block in blocks:
            hasher.update(block)
        hasher.update(blob)
        digest = hasher.hexdigest()

        self._shm = None
        inline: Optional[bytes] = None
        shm_name: Optional[str] = None
        if use_shared_memory and _shared_memory is not None:
            try:
                self._shm = _shared_memory.SharedMemory(create=True,
                                                        size=max(total, 1))
            except OSError:
                self._shm = None
        if self._shm is not None:
            buffer = self._shm.buf
            for spec, block in zip(manifest, blocks):
                view = np.frombuffer(buffer, dtype=spec.dtype,
                                     count=int(np.prod(spec.shape, dtype=np.int64)),
                                     offset=spec.offset)
                view[:] = block.ravel()
            buffer[param_nbytes:total] = blob
            shm_name = self._shm.name
        else:
            inline = b"".join(block.tobytes() for block in blocks) + blob
            _bump(inline_publishes=1)

        has_params = params is not None or encoded_params is not None
        self.handle = BroadcastHandle(
            shm_name=shm_name, manifest=tuple(manifest),
            has_params=has_params, blob_offset=param_nbytes,
            blob_nbytes=len(blob), total_nbytes=total, digest=digest,
            round_index=round_index, creator_pid=os.getpid(), inline=inline)
        self._closed = False
        _bump(publishes=1, param_bytes=param_nbytes, blob_bytes=len(blob),
              param_packs=1 if has_params else 0)

    def close(self) -> None:
        """Unlink the shared memory segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._shm = None

    def __enter__(self) -> "Broadcast":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------- workers
_worker_cache = threading.local()


def _attach_and_copy(handle: BroadcastHandle) -> bytes:
    """Read the whole broadcast segment into private worker memory."""
    if handle.inline is not None:
        return handle.inline
    if _shared_memory is None:  # pragma: no cover - fallback always inlines
        raise RuntimeError("shared memory is unavailable in this worker")
    try:
        shm = _shared_memory.SharedMemory(name=handle.shm_name)
    except FileNotFoundError:
        raise RuntimeError(
            f"broadcast segment {handle.shm_name!r} is gone — the server "
            "closed the Broadcast before every task materialized it") from None
    # Note on resource tracking (bpo-39959): attaching re-registers the
    # segment with the resource tracker, which in other topologies leads to
    # spurious leak warnings.  Here every worker — a thread trivially, a
    # spawned process via the tracker fd in its spawn preparation data —
    # shares the *server's* tracker, so the attach is a set-level no-op and
    # the server's ``unlink()`` performs the single deregistration.
    # Unregistering here would erase the server's registration instead.
    try:
        return bytes(shm.buf[:handle.total_nbytes])
    finally:
        shm.close()


def materialize(handle: BroadcastHandle) -> Tuple[Optional[Dict[str, np.ndarray]], Any]:
    """Reconstruct ``(params, payload)`` from a handle, caching per worker.

    The cache is keyed by ``(round_index, digest)`` — content-addressed, so
    a hit is always byte-equivalent to a fresh materialization.  Within one
    worker the cached objects are reused across tasks, which matches the
    serial reference semantics (one strategy/model instance serving clients
    sequentially).

    The returned parameter arrays are **read-only zero-copy views** into
    the worker's single private snapshot of the segment: no per-array copy
    is made, and any attempted in-place mutation during fan-out raises
    instead of silently corrupting the shared payload.  (The one snapshot
    copy is what makes the views safe: the server unlinks the segment when
    the round's fan-out completes and the worker cache evicts old rounds,
    neither of which may invalidate arrays still referenced by a task.)
    """
    cache: BoundedLRU = getattr(_worker_cache, "entries", None)
    if cache is None:
        cache = _worker_cache.entries = BoundedLRU(CACHE_LIMIT)
    key = handle.cache_key
    hit = cache.get(key)
    if hit is not None:
        _bump(materialize_hits=1)
        return hit

    raw = _attach_and_copy(handle)
    params: Optional[Dict[str, np.ndarray]] = None
    if handle.has_params:
        params = {}
        pending: Dict[str, List[Tuple[BlockSpec, np.ndarray]]] = {}
        for spec in handle.manifest:
            flat = np.frombuffer(raw, dtype=spec.dtype,
                                 count=int(np.prod(spec.shape, dtype=np.int64)),
                                 offset=spec.offset)
            # ``raw`` is immutable bytes, so the view (and any reshape of
            # it) is born non-writeable and pins the snapshot alive via its
            # base reference — zero-copy and mutation-proof
            if spec.codec == "raw" and spec.part == 0 and not spec.meta:
                params[spec.key] = flat.reshape(spec.shape)
            else:
                pending.setdefault(spec.key, []).append(
                    (spec, flat.reshape(spec.shape)))
        for key, parts in pending.items():
            parts.sort(key=lambda item: item[0].part)
            head = parts[0][0]
            logical_dtype, logical_shape, codec_meta = head.meta
            block = EncodedBlock(codec=head.codec, dtype=logical_dtype,
                                 shape=tuple(logical_shape),
                                 arrays=tuple(sub for _, sub in parts),
                                 meta=tuple(codec_meta))
            dense = decode_block(block)
            # decoded blocks are private allocations; freeze them so they
            # honour the same read-only contract as the zero-copy views
            dense.flags.writeable = False
            params[key] = dense
    payload = pickle.loads(
        raw[handle.blob_offset:handle.blob_offset + handle.blob_nbytes])
    entry = (params, payload)
    cache.put(key, entry)
    _bump(materializations=1)
    return entry
