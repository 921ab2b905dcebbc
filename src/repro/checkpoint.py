"""Checkpointed, bit-identical resumable runs.

A multi-hour fleet-scale sweep that dies at round 400 of 500 should not
restart from round 0.  This module serializes the **full server state** at
round boundaries — everything the next round's math can observe — such that
resume-from-checkpoint is provably byte-equal to an uninterrupted run:

* the strategy's attributes (global parameters, per-method bookkeeping such
  as loss tables, shared patterns, residual stores) minus the live context;
* the mutable RNG streams (the selection/strategy generator on the shared
  :class:`~repro.federated.strategy.StrategyContext`; per-client bandit
  generators ride inside the client states) as raw PCG64 bit-generator
  states — every *other* stream in the simulator (scenario, device,
  per-client training) is a pure function of ``(seed, round, client)`` and
  needs no capture;
* the sparse :class:`~repro.federated.fleet.FleetStateStore` — participants
  only, never O(fleet);
* the scheduler's event-driven state: aggregation version, sim clock,
  in-flight pool, the FedBuff buffer and every queued
  :class:`~repro.server.clock.ClientEvent`;
* the history records accumulated so far (cumulative FLOPs/time/sim-time
  are recovered from the last record, so they are never double-tracked).

A checkpoint additionally carries a **run digest** — a content hash of the
strategy class, dataset identity, model parameter manifest and the complete
:class:`~repro.federated.config.FederatedConfig` — and restoring refuses a
checkpoint whose digest does not match the run being resumed: resuming a
seed-0 checkpoint into a seed-1 run would silently produce a history that
belongs to neither.

Determinism is the acceptance bar, not a best effort: the golden-fixture
suite interrupts every pinned run at a round boundary and proves the
resumed history matches the committed fixture bit-for-bit, on both fleet
materialization paths and for the fedasync/fedbuff schedulers.

**What a boundary costs.**  Client states and queued events are the bulk
of a checkpoint (≈ 40 KB each on the mnist CNN) and almost none of them
change in a round, so each is pickled **once**, when it changes, into a
*segment*; the per-boundary *head* only references them.  Nothing but the
three small parts (history records, strategy attributes, scheduler
scalars) is deep-copied: ``pickle.dumps`` of a state at the boundary *is*
its snapshot.  Which states changed comes from the store's dirty set
(participant access marks an id, evaluation access does not); an event is
frozen, keyed ``(round_index, client_id)``, and serialized when first seen
in the queue.

**On disk** (one directory per run; :class:`CheckpointManager` owns it):

``blobs-<next_round>.bin``
    A segment: the concatenated pickles of the states touched and the
    events first queued since the previous boundary.  Written once (tmp,
    fsync, rename), never modified; it carries no header of its own.
``checkpoint-<next_round>.pkl``
    A head: a 48-byte header (magic, format version, payload length,
    payload SHA-256) followed by one pickled :class:`RunCheckpoint` whose
    ``client_states`` / ``scheduler["events"]`` / ``["buffer"]`` entries are
    :class:`BlobRef` ``(segment, offset, length)`` references and whose
    ``segments`` table records the length and SHA-256 of every segment it
    references.  A head that references nothing (what
    ``save_checkpoint(path, materialized_capsule)`` writes) is a
    self-contained checkpoint.

A save writes the new segment *before* the head, and the head's atomic
rename is the commit point: a crash in between leaves an orphan segment
that no head names — ignored by loads, overwritten by the retry, removed
by the next prune.  :func:`load_checkpoint` verifies the head against its
header and every referenced segment against the head's table *before*
unpickling a byte of either, then returns the fully materialized capsule —
so a directory reused by another run (which replaces ``blobs-000001.bin``
under an old head) is refused, not resumed.  When the referenced segments
outgrow twice the live blobs (small fleets re-touch the same clients every
few rounds) a save rewrites every live blob into its segment — amortized
O(1) — and pruning deletes a segment once neither a kept head nor the
running manager's table references it.  A run started *without* resume in
a directory that still holds an earlier run's heads treats the heads
beyond its own boundary as stale and removes them at its first save: it
is about to replace the segments they name.

Pickles are trusted input — heads and segments alike: the checksums detect
corruption and mix-ups, not malice.  Load checkpoints only from directories
you wrote.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import re
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Any, Dict, Hashable, List, Mapping, Optional, Tuple,
                    Union)

import numpy as np

from .systems.metrics import RoundRecord, TrainingHistory
from .util import BoundedLRU, canonicalize

#: bump whenever the checkpoint layout — or the set of config fields the run
#: digest hashes — changes incompatibly (2: ``FleetConfig.lazy`` removed;
#: 3: framed heads that reference blob segments)
CHECKPOINT_VERSION = 3

#: heads are ``checkpoint-<next_round>.pkl`` inside the directory; segments
#: are ``blobs-<next_round>.bin`` and must sort *before* every head
_FILE_PATTERN = re.compile(r"^checkpoint-(\d+)\.pkl$")
_SEGMENT_PATTERN = re.compile(r"^blobs-(\d+)\.bin$")

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: head header: magic, format version, payload length, payload SHA-256
_MAGIC = b"RPCK"
_HEADER = struct.Struct("<4sIQ32s")

#: the scheduler-state entries that are lists of ``ClientEvent``
_EVENT_LISTS = ("events", "buffer")

#: a save compacts once referenced segment bytes exceed this many times the
#: live blob bytes
_GARBAGE_FACTOR = 2


class CheckpointError(RuntimeError):
    """Base class of every checkpoint failure."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different run than the one resuming."""


class SegmentError(CheckpointError):
    """A segment is missing or is not the one a head references — every
    head that references it is unusable, not only the newest."""


class TrainingInterrupted(RuntimeError):
    """Raised by ``stop_after_round`` once the round's checkpoint is safe.

    This is the deterministic stand-in for preemption (spot instance
    reclaimed, job killed): the run stops at a round boundary *after* the
    checkpoint hit disk, so ``--resume`` continues bit-identically.
    """


# ------------------------------------------------------------- rng streams
def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """The raw bit-generator state of ``generator`` (PCG64 and friends).

    The returned dict is what numpy exposes as ``bit_generator.state`` —
    plain ints and strings, deep-copied so later draws cannot mutate the
    snapshot.  Capturing the state mid-stream and restoring it must
    reproduce the exact continuation of the draw sequence; the property
    suite in ``tests/test_checkpoint_rng.py`` pins that for every stream
    the simulator owns.
    """
    return copy.deepcopy(generator.bit_generator.state)


def restore_rng(state: Dict[str, Any]) -> np.random.Generator:
    """A fresh :class:`numpy.random.Generator` continuing from ``state``."""
    name = state.get("bit_generator", "PCG64")
    try:
        bit_generator = getattr(np.random, name)()
    except AttributeError as error:
        raise CheckpointError(
            f"unknown bit generator {name!r} in checkpoint") from error
    bit_generator.state = copy.deepcopy(state)
    return np.random.Generator(bit_generator)


# -------------------------------------------------------------- run digest
def run_digest(core) -> str:
    """Content hash identifying which run a checkpoint belongs to.

    Two runs share a digest exactly when they would produce bit-identical
    histories from round 0: same strategy class, same dataset identity,
    same model parameter manifest and the same full config (seed, scenario,
    aggregation mode, fleet settings — everything).  The executor backend
    and broadcast transport are deliberately excluded: histories are
    bit-identical across them, so a serial checkpoint legitimately resumes
    on a process pool and vice versa.
    """
    strategy = core.strategy
    manifest = sorted(
        (key, str(value.dtype), tuple(int(n) for n in value.shape))
        for key, value in core.model.get_parameters().items())
    spec = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "strategy_class": (type(strategy).__module__ + "."
                           + type(strategy).__qualname__),
        "strategy_name": strategy.name,
        "dataset": {
            "name": core.dataset.name,
            "num_clients": int(core.dataset.num_clients),
            "num_classes": int(core.dataset.num_classes),
            "input_shape": tuple(int(n) for n in core.dataset.input_shape),
        },
        "model": manifest,
        "config": canonicalize(asdict(core.config)),
    }
    canonical = json.dumps(canonicalize(spec), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- the capsule
@dataclass(frozen=True)
class BlobRef:
    """Where one pickled blob lives: ``length`` bytes at ``offset`` of
    the segment file ``segment`` (a name inside the head's directory)."""

    segment: str
    offset: int
    length: int


@dataclass
class RunCheckpoint:
    """Everything needed to continue a run from a round boundary.

    :func:`load_checkpoint` returns it *materialized* (states and events
    are the objects themselves, ``segments`` is empty); what
    :func:`capture_run` builds and a head file holds is the same capsule
    with :class:`BlobRef` entries in their place.
    """

    version: int
    digest: str
    #: the first round the resumed run will execute
    next_round: int
    method: str
    dataset: str
    records: List[RoundRecord]
    #: ``strategy.__dict__`` minus the live ``context``
    strategy_attrs: Dict[str, Any]
    #: bit-generator state of the shared selection/strategy stream
    rng: Dict[str, Any]
    #: sparse ``{client_id: state}`` — participants only
    client_states: Dict[int, Any]
    #: scheduler-specific state (name, aggregation version, clock, events)
    scheduler: Dict[str, Any] = field(default_factory=dict)
    #: ``{segment name: (length, sha256 hex)}`` of every referenced segment
    segments: Dict[str, Tuple[int, str]] = field(default_factory=dict)


def _event_key(event) -> Tuple[int, int]:
    """A queued event's identity: a client is dispatched once per round."""
    return (event.round_index, event.client_id)


def _read_segment(path: Path, length: int, digest: str) -> bytes:
    """A segment's bytes, verified against the head that references it."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise SegmentError(
            f"checkpoint segment {path} is missing") from None
    if len(data) != length or hashlib.sha256(data).hexdigest() != digest:
        raise SegmentError(
            f"checkpoint segment {path} does not match the head that "
            "references it (corrupt, or overwritten by another run "
            "writing into the same directory)")
    return data


class _BlobReader:
    """Verified, read-once access to the blobs behind a set of references."""

    def __init__(self, directory: Path,
                 segments: Mapping[str, Tuple[int, str]],
                 loaded: Optional[Mapping[str, bytes]] = None) -> None:
        self._directory = directory
        self._segments = segments
        self._loaded = dict(loaded or {})

    def __call__(self, ref: BlobRef) -> memoryview:
        data = self._loaded.get(ref.segment)
        if data is None:
            if ref.segment not in self._segments:
                raise CheckpointError(
                    f"reference into unlisted segment {ref.segment!r}")
            data = self._loaded[ref.segment] = _read_segment(
                self._directory / ref.segment, *self._segments[ref.segment])
        blob = memoryview(data)[ref.offset:ref.offset + ref.length]
        if ref.offset < 0 or len(blob) != ref.length:
            raise CheckpointError(
                f"reference {ref} reaches outside its segment")
        return blob


class BlobTable:
    """Which blob holds each live client state and queued event.

    The reference table behind incremental checkpoints: ``refs`` maps a key
    (a client id, or an event's ``(round_index, client_id)``) to the
    :class:`BlobRef` of its current serialization, ``segments`` holds the
    integrity record of every segment ``refs`` points into, and ``pending``
    the bytes of the segments not yet on disk (more than one only while
    ``every > 1`` skips saves).  :func:`capture_run` stages each boundary's
    new blobs here; :func:`save_checkpoint` writes the pending segments.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        #: where the non-pending segments live
        self.directory = Path(directory)
        self.reset()

    def reset(self) -> None:
        self.refs: Dict[Hashable, BlobRef] = {}
        self.segments: Dict[str, Tuple[int, str]] = {}
        self.pending: Dict[str, bytes] = {}
        #: the boundary of the last capture (or of the head seeded from)
        self.next_round = 0

    @property
    def live_bytes(self) -> int:
        return sum(ref.length for ref in self.refs.values())

    def seed(self, head: RunCheckpoint, materialized: RunCheckpoint) -> None:
        """Start from the references of a head on disk in ``directory``.

        ``materialized`` is the same checkpoint as loaded: it supplies the
        keys of the queued events, which the head stores by position.
        """
        self.reset()
        self.next_round = head.next_round
        keyed = list(head.client_states.items())
        for name in _EVENT_LISTS:
            keyed.extend(zip(map(_event_key,
                                 materialized.scheduler.get(name, ())),
                             head.scheduler.get(name, ())))
        self.refs = {key: ref for key, ref in keyed
                     if isinstance(ref, BlobRef)}
        self.segments = dict(head.segments)

    def stage(self, next_round: int, fresh: Dict[Hashable, bytes],
              live: List[Hashable]) -> None:
        """Lay ``fresh`` blobs out as this boundary's segment.

        ``live`` lists every key alive at the boundary; references to
        anything else are forgotten.  When that leaves the referenced
        segments holding more than ``_GARBAGE_FACTOR`` times the live
        bytes, every live blob is rewritten into the new segment instead —
        the segments it replaces lose their last reference and are pruned.
        """
        kept = {key: self.refs[key] for key in live if key not in fresh}
        fresh_bytes = sum(len(blob) for blob in fresh.values())
        live_bytes = fresh_bytes + sum(ref.length for ref in kept.values())
        held_bytes = fresh_bytes + sum(
            self.segments[name][0]
            for name in {ref.segment for ref in kept.values()})
        if held_bytes > _GARBAGE_FACTOR * live_bytes:
            read = _BlobReader(self.directory, self.segments, self.pending)
            fresh = {key: fresh[key] if key in fresh else bytes(read(kept[key]))
                     for key in live}
            kept = {}
        name = f"blobs-{next_round:06d}.bin"
        offset = 0
        for key, blob in fresh.items():
            kept[key] = BlobRef(name, offset, len(blob))
            offset += len(blob)
        held = {ref.segment for ref in kept.values()}
        self.refs = kept
        self.segments = {held_name: record
                         for held_name, record in self.segments.items()
                         if held_name in held}
        self.pending = {held_name: data
                        for held_name, data in self.pending.items()
                        if held_name in held}
        if fresh:
            data = b"".join(fresh.values())
            self.segments[name] = (len(data),
                                   hashlib.sha256(data).hexdigest())
            self.pending[name] = data
        self.next_round = next_round


def capture_run(core, scheduler, history: TrainingHistory, next_round: int,
                table: BlobTable) -> RunCheckpoint:
    """Snapshot ``core``/``scheduler`` at a round boundary, incrementally.

    Training continues mutating the global parameters and client states in
    place, and a checkpoint that aliased them would silently describe a
    *later* round than it claims — so the small parts are deep-copied and
    every client state written since the previous boundary (the store's
    dirty set) and every event new to the queue is pickled *now*, into
    ``table``'s next pending segment.  Everything else keeps the reference
    ``table`` already holds.  The returned head is what
    :func:`save_checkpoint` writes, together with ``table.pending``.
    """
    if next_round <= table.next_round:
        # a boundary at or before the table's last one is another run's
        table.reset()
    strategy_attrs = {key: value
                      for key, value in core.strategy.__dict__.items()
                      if key != "context"}
    scheduler_state = scheduler.state_dict()
    event_lists = {name: scheduler_state.pop(name)
                   for name in _EVENT_LISTS if name in scheduler_state}
    head = RunCheckpoint(
        version=CHECKPOINT_VERSION,
        digest=run_digest(core),
        next_round=int(next_round),
        method=history.method,
        dataset=history.dataset,
        records=copy.deepcopy(history.records),
        strategy_attrs=copy.deepcopy(strategy_attrs),
        rng=rng_state(core.context.rng),
        client_states={},
        scheduler={"name": scheduler.name,
                   **copy.deepcopy(scheduler_state)},
    )
    store = core.clients.state_store
    states = store.snapshot()
    dirty = store.take_dirty()
    fresh: Dict[Hashable, bytes] = {
        client_id: pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
        for client_id, state in states.items()
        if client_id in dirty or client_id not in table.refs}
    for events in event_lists.values():
        for event in events:
            if _event_key(event) not in table.refs:
                fresh[_event_key(event)] = pickle.dumps(
                    event, protocol=_PICKLE_PROTOCOL)
    # staged last: nothing after this point can fail and leave the table
    # ahead of the head the manager still holds
    table.stage(next_round, fresh,
                [*states, *(_event_key(event)
                            for events in event_lists.values()
                            for event in events)])
    head.client_states = {client_id: table.refs[client_id]
                          for client_id in states}
    head.scheduler.update(
        (name, [table.refs[_event_key(event)] for event in events])
        for name, events in event_lists.items())
    head.segments = dict(table.segments)
    return head


def restore_run(core, scheduler, checkpoint: RunCheckpoint,
                history: TrainingHistory,
                manager: Optional["CheckpointManager"] = None) -> int:
    """Apply ``checkpoint`` to a freshly set-up core/scheduler pair.

    Must be called *after* ``strategy.setup(context)`` and
    ``scheduler.reset()`` — restoration overwrites the fresh-run state that
    setup installed.  Returns the round index the caller should continue
    from.  Raises :class:`CheckpointMismatch` when the checkpoint does not
    belong to this run (different config/seed/strategy/dataset/model) or to
    this scheduler.

    The state store is left *clean* (it now equals the checkpoint), and
    ``manager`` — the run's checkpointer, if it has one — is told which
    checkpoint the run continues from, so its next save can reference the
    blobs already in its directory instead of rewriting them.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"checkpoint version {checkpoint.version} != supported "
            f"{CHECKPOINT_VERSION}")
    digest = run_digest(core)
    if checkpoint.digest != digest:
        raise CheckpointMismatch(
            "checkpoint belongs to a different run (digest "
            f"{checkpoint.digest[:12]}… != {digest[:12]}…); refusing to "
            "resume — delete the checkpoint directory or fix the "
            "config/seed/method to match the original run")
    saved_scheduler = checkpoint.scheduler.get("name")
    if saved_scheduler != scheduler.name:
        raise CheckpointMismatch(
            f"checkpoint was written by the {saved_scheduler!r} scheduler "
            f"but this run uses {scheduler.name!r}")

    strategy = core.strategy
    for key, value in copy.deepcopy(checkpoint.strategy_attrs).items():
        setattr(strategy, key, value)
    # the context is shared between core and strategy; swapping its rng
    # resumes the selection/strategy stream mid-sequence
    core.context.rng = restore_rng(checkpoint.rng)
    for client_id, state in copy.deepcopy(checkpoint.client_states).items():
        core.clients.update_state(client_id, state)
    core.clients.state_store.take_dirty()
    history.records = copy.deepcopy(checkpoint.records)
    scheduler.load_state_dict(checkpoint.scheduler)
    if manager is not None:
        manager.resumed(checkpoint)
    return checkpoint.next_round


# ----------------------------------------------------------------- on disk
def _write_atomically(path: Path, *chunks: bytes) -> None:
    """Write tmp, fsync, rename: ``path`` is either absent/old or complete."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)


def _frame(payload: bytes) -> bytes:
    """The head header for ``payload``."""
    return _HEADER.pack(_MAGIC, CHECKPOINT_VERSION, len(payload),
                        hashlib.sha256(payload).digest())


def save_checkpoint(path: Union[str, Path], checkpoint: RunCheckpoint,
                    pending: Optional[Mapping[str, bytes]] = None) -> Path:
    """Persist one checkpoint: its pending segments, then the head.

    ``pending`` holds the bytes of segments not on disk yet
    (:attr:`BlobTable.pending`); those ``checkpoint`` references are
    written next to ``path`` first, each atomically, so the head's own
    rename commits a checkpoint whose every reference resolves.  A
    materialized ``checkpoint`` references nothing and becomes one
    self-contained file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for name in checkpoint.segments:
        if pending and name in pending:
            _write_atomically(path.parent / name, pending[name])
    payload = pickle.dumps(checkpoint, protocol=_PICKLE_PROTOCOL)
    _write_atomically(path, _frame(payload), payload)
    return path


def read_head(path: Union[str, Path]) -> RunCheckpoint:
    """One head file, verified and unpickled, references unresolved."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint file at {path}") from None
    if len(data) < _HEADER.size or not data.startswith(_MAGIC):
        raise CheckpointError(
            f"{path} has no version-{CHECKPOINT_VERSION} checkpoint header: "
            "corrupt, or written by checkpoint version 2 or older, which "
            "this code cannot resume")
    _, version, length, digest = _HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} != supported "
            f"{CHECKPOINT_VERSION}")
    payload = memoryview(data)[_HEADER.size:]
    if len(payload) != length or hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(
            f"corrupt checkpoint file {path}: the payload does not match "
            "its recorded length and SHA-256")
    checkpoint = _unpickle(payload, path)
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(
            f"{path} does not contain a RunCheckpoint "
            f"(got {type(checkpoint).__name__})")
    return checkpoint


def _unpickle(blob, source: Path):
    try:
        return pickle.loads(blob)
    except Exception as error:
        # verified bytes that still fail to load: written by other code
        # (a renamed class, a missing module) — any exception type
        raise CheckpointError(
            f"cannot unpickle checkpoint data from {source}: "
            f"{type(error).__name__}: {error}") from error


def load_checkpoint(path: Union[str, Path]) -> RunCheckpoint:
    """Load one checkpoint, fully materialized (module docstring: trusted
    input).  References resolve against the head's own directory; every
    file is verified before anything in it is unpickled."""
    path = Path(path)
    head = read_head(path)
    read = _BlobReader(path.parent, head.segments)

    def resolve(entry):
        if isinstance(entry, BlobRef):
            return _unpickle(read(entry), path.parent / entry.segment)
        return entry

    scheduler = dict(head.scheduler)
    for name in _EVENT_LISTS:
        if name in scheduler:
            scheduler[name] = [resolve(entry) for entry in scheduler[name]]
    return dataclasses.replace(
        head, scheduler=scheduler, segments={},
        client_states={client_id: resolve(entry)
                       for client_id, entry in head.client_states.items()})


class CheckpointManager:
    """Round-boundary checkpointing into one directory.

    ``every`` selects which round boundaries persist (1 = every round);
    ``keep`` bounds the *heads* on disk (oldest pruned after a successful
    write, so at least one complete checkpoint always survives a crash
    mid-save thanks to the atomic rename) — and with them every segment a
    kept head or the running table references, nothing else.  Heads beyond
    the boundary just saved (a directory reused without resume) are not
    "newest": they are removed, never the head just written.  ``stop_after_round`` turns the
    manager into a deterministic preemption: once that round's checkpoint
    is on disk, :class:`TrainingInterrupted` aborts the run — the CI
    resume-smoke job and the golden resume suite interrupt runs this way.

    The manager records its last/total save wall-clock and bytes
    (``last_save_seconds``, ``last_bytes`` — head plus segments written by
    that save, ...) so a caller can read checkpoint cost without
    instrumenting the trainer.
    """

    def __init__(self, directory: Union[str, Path], *, every: int = 1,
                 keep: int = 2, stop_after_round: Optional[int] = None
                 ) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        if keep <= 0:
            raise ValueError("keep must be positive")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self.stop_after_round = stop_after_round
        self.last_save_seconds = 0.0
        self.last_bytes = 0
        self.total_save_seconds = 0.0
        self.saves = 0
        # loaded-checkpoint memo keyed by (path, mtime_ns, size): sweep
        # retries call latest() once per attempt and would otherwise re-read
        # an unchanged multi-MB pickle every time
        self._load_memo = BoundedLRU(2)
        #: (path, capsule) of the last head loaded from this directory
        self._loaded: Optional[Tuple[Path, RunCheckpoint]] = None
        self._table = BlobTable(self.directory)
        # the latest boundary's head while it is not on disk (``every > 1``
        # or a failed save): with the table's pending segments, what
        # emergency() persists
        self._unsaved: Optional[RunCheckpoint] = None
        #: head file name -> the segments it references (prune bookkeeping)
        self._head_segments: Dict[str, frozenset] = {}

    # ----------------------------------------------------------------- paths
    def path_for(self, next_round: int) -> Path:
        return self.directory / f"checkpoint-{next_round:06d}.pkl"

    def _heads(self) -> List[Tuple[int, Path]]:
        """``(next_round, path)`` of the existing head files, oldest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _FILE_PATTERN.match(entry.name)
            if match is not None:
                found.append((int(match.group(1)), entry))
        return sorted(found)

    def checkpoint_paths(self) -> List[Path]:
        """Existing head files, oldest (lowest next_round) first."""
        return [path for _, path in self._heads()]

    @property
    def live_bytes(self) -> int:
        """Bytes of the blobs the latest boundary references."""
        return self._table.live_bytes

    # ------------------------------------------------------------------- api
    def due(self, round_index: int) -> bool:
        """Whether the boundary after ``round_index`` should persist."""
        if (round_index + 1) % self.every == 0:
            return True
        return (self.stop_after_round is not None
                and round_index >= self.stop_after_round)

    def save(self, checkpoint: RunCheckpoint) -> Path:
        started = time.perf_counter()
        pending = self._table.pending
        segment_bytes = sum(len(pending[name])
                            for name in checkpoint.segments if name in pending)
        path = save_checkpoint(self.path_for(checkpoint.next_round),
                               checkpoint, pending)
        pending.clear()
        if checkpoint is self._unsaved:
            self._unsaved = None
        self.last_save_seconds = time.perf_counter() - started
        self.total_save_seconds += self.last_save_seconds
        self.last_bytes = path.stat().st_size + segment_bytes
        self.saves += 1
        self._head_segments[path.name] = frozenset(checkpoint.segments)
        self._prune(checkpoint.next_round)
        return path

    def after_round(self, core, scheduler, history: TrainingHistory,
                    round_index: int) -> None:
        """The scheduler hook: capture, save when due, then maybe interrupt.

        The boundary is captured *every* round (the dirty states are
        pickled into a pending segment, no disk) so :meth:`emergency`
        always has the most recent boundary to persist even when
        ``every > 1`` skips the save.
        """
        self._unsaved = capture_run(core, scheduler, history,
                                    round_index + 1, self._table)
        if self.due(round_index):
            self.save(self._unsaved)
        if (self.stop_after_round is not None
                and round_index >= self.stop_after_round):
            raise TrainingInterrupted(
                f"training stopped after round {round_index} "
                f"(checkpoint for round {round_index + 1} saved in "
                f"{self.directory}); rerun with resume to continue")

    def emergency(self) -> Optional[Path]:
        """Persist the last captured round boundary if it is not on disk.

        Called by the schedulers' crash guard when an exception escapes the
        round loop: the run still resumes from the *latest completed* round
        instead of the latest scheduled save.  A no-op (returns None) when
        nothing has been captured yet or the boundary was already saved.
        """
        if self._unsaved is None:
            return None
        return self.save(self._unsaved)

    def resumed(self, checkpoint: RunCheckpoint) -> None:
        """The run continues from ``checkpoint`` (called by ``restore_run``).

        When that is the capsule this manager loaded from its own
        directory, the blobs it references are already here: seed the
        table from its head, so the next save writes only what changes.
        From anywhere else the table stays empty and the first save is a
        full one.
        """
        path, loaded = self._loaded or (None, None)
        if loaded is checkpoint:
            head = read_head(path)
            if (head.digest, head.next_round) == (checkpoint.digest,
                                                  checkpoint.next_round):
                self._table.seed(head, checkpoint)

    def latest(self) -> Optional[RunCheckpoint]:
        """The newest complete checkpoint in the directory, or None."""
        paths = self.checkpoint_paths()
        if not paths:
            return None
        return self.load(paths[-1])

    def load(self, path: Union[str, Path]) -> RunCheckpoint:
        path = Path(path)
        stat = path.stat()
        key = (str(path), stat.st_mtime_ns, stat.st_size)
        checkpoint = self._load_memo.get(key)
        if checkpoint is None:
            checkpoint = load_checkpoint(path)
            self._load_memo.put(key, checkpoint)
        if path.parent == self.directory:
            self._loaded = (path, checkpoint)
        return checkpoint

    def _prune(self, saved_round: int) -> None:
        """Drop every head but the ``keep`` newest up to ``saved_round``
        (the boundary just saved), then every segment that neither a kept
        head nor the live table references (superseded ones and orphans).

        A head *beyond* ``saved_round`` is the future of a history this run
        is rewriting — a directory started into again without resume — and
        goes first: counted among the newest it would push out the head
        just written, and this run replaces the segments it names anyway.
        """
        heads = self._heads()
        kept = [path for next_round, path in heads
                if next_round <= saved_round][-self.keep:]
        for _, stale in heads:
            if stale not in kept:
                self._head_segments.pop(stale.name, None)
                _unlink(stale)
        # never a segment the running table points into, whatever the heads
        # on disk say
        referenced = set(self._table.segments)
        for path in kept:
            if path.name not in self._head_segments:
                # a head from before this process (resume): ask the head —
                # and delete nothing while one cannot say (a stale file of
                # an older format left in a reused directory)
                try:
                    self._head_segments[path.name] = frozenset(
                        read_head(path).segments)
                except CheckpointError:
                    return
            referenced |= self._head_segments[path.name]
        for entry in self.directory.iterdir():
            if (_SEGMENT_PATTERN.match(entry.name)
                    and entry.name not in referenced):
                _unlink(entry)


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:  # pragma: no cover - benign cleanup race
        pass


def resolve_resume(resume_from, manager: Optional[CheckpointManager]
                   ) -> Optional[RunCheckpoint]:
    """Turn a ``resume_from`` argument into a checkpoint (or None).

    Accepted forms:

    * ``None`` — no resume;
    * ``"auto"`` (or ``True``) — the latest checkpoint in the manager's
      directory, or a fresh start when there is none yet (so "always run
      with resume" is a safe spot/preemptible idiom);
    * a :class:`RunCheckpoint` — used as-is;
    * a path to a checkpoint file, or to a directory of them (latest wins;
      an empty or missing explicit path is an error, unlike ``"auto"``).
    """
    if resume_from is None or resume_from is False:
        return None
    if isinstance(resume_from, RunCheckpoint):
        return resume_from
    if resume_from is True or resume_from == "auto":
        if manager is None:
            raise CheckpointError(
                "resume_from='auto' needs a checkpoint directory")
        return manager.latest()
    path = Path(resume_from)
    if path.is_dir():
        scan = CheckpointManager(path)
        checkpoint = scan.latest()
        if checkpoint is None:
            raise CheckpointError(f"no checkpoints in directory {path}")
        return checkpoint
    return load_checkpoint(path)
