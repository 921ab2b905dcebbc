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
strategy attributes and scheduler scalars is deep-copied — the history's
records are append-only, so the head lists them — and ``pickle.dumps`` of
a state at the boundary *is* its snapshot.  Which states changed comes
from the store's dirty set (participant access marks an id, evaluation
access does not); an event is frozen, keyed ``(round_index, client_id)``,
and serialized when first seen in the queue.  The run digest is computed
once per core, not per boundary.

**What a run holds.**  Whatever the fleet size, each committed save of a
checkpointed run lets the state store go of every clean state outside the
boundary's dirty set, and the scheduler's event queue of every queued
event — their blobs are on disk.  The next read of such a state, or the
pop of such an event, is a *cold read*:
:meth:`BlobTable.load` finds the blob through the table's references
(which follow compaction), checks it against the SHA-256 its reference
carries and unpickles a fresh object; a state stays resident until the
next save, an event is consumed.  The FedBuff buffer (fewer than
``buffer_size`` events) stays resident.  Every resume starts the same way,
through a copy of the loaded capsule's table: it adopts every saved state
unread, rebuilds the queue from the head's stubs (each pop reads through
the table) and reads only the FedBuff buffer.  When the manager's
directory still holds what the capsule was loaded from (``"auto"``, or a
path to a head or to the directory there), the first save writes only
what changed; otherwise it rewrites every live blob, read and verified
from the capsule's directory, into the manager's first segment.  A
boundary never holds its segment twice: the pending segment is its
blobs, each hashed once as it is laid out and streamed to disk by the
save, never one joined copy.

**On disk** (one directory per run; :class:`CheckpointManager` owns it):

``blobs-<next_round>.bin``
    A segment: the concatenated pickles of the states touched and the
    events first queued since the previous boundary (or, after a
    compaction, of every live blob).  Written once, blob by blob (tmp,
    fsync, rename), never modified; it carries no header of its own.  A
    spilled state or queued event, the FedBuff buffer at a resume and a
    blob a compaction rewrites are read back from here, one verified blob
    at a time (:meth:`BlobTable.read`).
``checkpoint-<next_round>.pkl``
    A head: a 48-byte header (magic, format version, payload length,
    payload SHA-256) followed by one pickled :class:`RunCheckpoint` whose
    ``client_states`` entries are :class:`BlobRef` ``(segment, offset,
    length, sha256)`` references, whose ``scheduler["events"]`` /
    ``["buffer"]`` entries pair each event's
    :class:`~repro.server.clock.SpilledEvent` stub — its heap position
    ``(finish_time, client_id)`` and its round — with such a reference,
    and whose ``segments`` table records the length of every segment it
    references.  This is the only form: a loaded capsule pickles back to
    the head it was loaded from.

A save writes the new segment *before* the head, and the head's atomic
rename is the commit point: a crash in between leaves an orphan segment
that no head names — ignored by loads, overwritten by the retry, removed
by the next prune.  Each file is fsynced before its rename, which covers a
crash that would otherwise leave a renamed but partly written file.  The
directory is fsynced twice: after the segment's rename, so a crash cannot
persist the head's rename without the segment's; and after the head's
rename, before the prune unlinks anything, so a crash cannot lose the new
head after the heads and segments it replaces are gone.
:func:`load_checkpoint` is the trust root: it verifies the head against
its header, reads every blob it references once and checks it against
its reference's SHA-256, unpickles nothing else, and returns the head
with the :class:`BlobTable` it built — so a directory reused by another
run (which replaces ``blobs-000001.bin`` under an old head) is refused,
not resumed, and a segment pruned or replaced *after* the load makes the
next read of one of its blobs raise :class:`SegmentError` naming the
file (a resume from such a capsule fails before it writes).  Every blob
a run unpickles is checked against its reference first — at the load,
and again at every later read or compaction; bytes no reference names
(the dead blobs of an uncompacted segment) are never unpickled, and never
checked.  When the referenced
segments outgrow twice the live blobs (small fleets re-touch the same
clients every few rounds) a save rewrites every live blob into its segment
— amortized O(1) — and pruning deletes a segment once neither a kept head
nor the running manager's table references it.  A run started *without*
resume in a directory that still holds an earlier run's heads treats the
heads beyond its own boundary as stale and removes them at its first save:
it is about to replace the segments they name.

Pickles are trusted input — heads and segments alike: the checksums detect
corruption and mix-ups, not malice.  Load checkpoints only from directories
you wrote.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import re
import struct
import weakref
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from .server.clock import SpilledEvent
from .systems.metrics import RoundRecord, TrainingHistory
from .util import canonicalize, non_negative_int, positive_int

#: the layout version every head's header carries (3: framed heads that
#: reference blob segments; 4: a SHA-256 per blob reference, and queued
#: events referenced with their heap position)
CHECKPOINT_VERSION = 4
#: :func:`run_digest`'s version: bump it when the fields the digest hashes
#: change (2: ``FleetConfig.lazy`` removed).  Frozen at 3, the layout
#: version it hashed until 4, so a layout change keeps a run's identity.
_RUN_DIGEST_VERSION = 3

#: heads are ``checkpoint-<next_round>.pkl`` inside the directory; segments
#: are ``blobs-<next_round>.bin`` and must sort *before* every head
_FILE_PATTERN = re.compile(r"^checkpoint-(\d+)\.pkl$")
_SEGMENT_PATTERN = re.compile(r"^blobs-(\d+)\.bin$")
#: what a save crashed between write and rename leaves of either file
_TMP_PATTERN = re.compile(r"^(checkpoint-\d+\.pkl|blobs-\d+\.bin)\.tmp$")

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: head header: magic, format version, payload length, payload SHA-256
_MAGIC = b"RPCK"
_HEADER = struct.Struct("<4sIQ32s")

#: the scheduler-state entries that list queued events
_EVENT_LISTS = ("events", "buffer")

#: a save compacts once referenced segment bytes exceed this many times the
#: live blob bytes
_GARBAGE_FACTOR = 2

#: heads a :class:`CheckpointManager` keeps on disk (the oldest are pruned)
_KEEP_HEADS = 2


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
        "checkpoint_version": _RUN_DIGEST_VERSION,
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


#: :func:`run_digest` of each live core.  Nothing it hashes changes during
#: a core's life (shared config is never mutated), so the boundaries of a
#: run read it from here instead of rehashing the config and manifest.
_DIGESTS: "weakref.WeakKeyDictionary[Any, str]" = weakref.WeakKeyDictionary()


def _digest_of(core) -> str:
    """:func:`run_digest` of ``core``, computed once per core."""
    digest = _DIGESTS.get(core)
    if digest is None:
        digest = _DIGESTS[core] = run_digest(core)
    return digest


# ------------------------------------------------------------- the capsule
@dataclass(frozen=True)
class BlobRef:
    """Where one pickled blob lives — ``length`` bytes at ``offset`` of
    the segment file ``segment`` (a name inside the head's directory) —
    and the SHA-256 every read of it is checked against."""

    segment: str
    offset: int
    length: int
    sha256: str


@dataclass
class RunCheckpoint:
    """Everything needed to continue a run from a round boundary: a head.

    :func:`capture_run` builds it and a head file holds it, in one form:
    ``client_states`` maps each participant to the :class:`BlobRef` of its
    state, each ``scheduler["events"]`` / ``["buffer"]`` entry pairs a
    queued event's :class:`~repro.server.clock.SpilledEvent` stub with the
    reference of its blob, and ``segments`` records the length of every
    segment those point into.  :func:`load_checkpoint` returns the head
    with ``table`` set: the verified :class:`BlobTable` of its references,
    which every read of a state or event goes through.  Pickling drops the
    table, so ``save_checkpoint(path, load_checkpoint(path))`` rewrites
    the head that was loaded.
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
    #: sparse ``{client_id: BlobRef}`` — participants only
    client_states: Dict[int, BlobRef]
    #: scheduler-specific state (name, aggregation version, clock, events)
    scheduler: Dict[str, Any] = field(default_factory=dict)
    #: ``{segment name: length}`` of every referenced segment
    segments: Dict[str, int] = field(default_factory=dict)
    #: the verified references of a loaded head (never pickled)
    table: Optional["BlobTable"] = field(default=None, compare=False,
                                         repr=False)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("table", None)
        return state


def _event_key(event) -> Tuple[int, int]:
    """A queued event's identity — a client is dispatched once per round —
    for the event itself and for its stub alike."""
    return (event.round_index, event.client_id)


def _read_blob(path: Path, ref: BlobRef,
               pending: Optional[Mapping[int, bytes]]) -> bytes:
    """One blob — from ``pending`` (its segment's ``{offset: blob}``, not
    on disk yet), else from the segment file ``path`` — verified against
    its reference's SHA-256, so a corrupt blob, or a segment missing,
    pruned or replaced since, is a :class:`SegmentError` naming the file,
    and no unverified byte reaches ``pickle.loads``."""
    if pending is None:
        try:
            with open(path, "rb") as handle:
                handle.seek(ref.offset)
                blob = handle.read(ref.length)
        except FileNotFoundError:
            raise SegmentError(
                f"checkpoint segment {path} is missing") from None
    else:
        blob = pending.get(ref.offset, b"")
    if (len(blob) != ref.length
            or hashlib.sha256(blob).hexdigest() != ref.sha256):
        raise SegmentError(
            f"checkpoint segment {path} does not hold the blob "
            f"{ref.offset}+{ref.length} it was written with (corrupt, or "
            "overwritten by another run writing into the same directory)")
    return blob


class BlobTable:
    """Which blob holds each live client state and queued event.

    The reference table behind incremental checkpoints: ``refs`` maps a key
    (a client id, or an event's ``(round_index, client_id)``) to the
    :class:`BlobRef` of its current serialization, SHA-256 included,
    ``segments`` holds the length of every segment ``refs`` points into,
    and ``pending`` the blobs of the segments not yet on disk, each as
    ``{offset: blob}`` in segment order (more than one segment only while
    ``every > 1`` skips saves).  :func:`capture_run` stages each boundary's
    new blobs here; :func:`save_checkpoint` streams the pending segments to
    disk.  A loaded capsule carries the table of its head, which every
    resume copies to continue from it (:meth:`continue_from`).

    Every blob read after the load goes through :meth:`read`, which
    verifies the one blob against its reference: a spilled entry's
    (:meth:`load`), the FedBuff buffer's at a resume and a blob a
    compaction rewrites.  The table is also the loader of spilled entries:
    ``holder`` is the state store and ``queue`` the event queue that
    spilled against ``refs`` (:meth:`hold`), and :meth:`reset` has both
    read every spilled entry back first, so a spilled entry never outlives
    the reference it reads through.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        #: where the non-pending segments live
        self.directory = Path(directory)
        #: the state store whose spilled entries :meth:`load` reads back
        self.holder = None
        #: the event queue whose spilled events :meth:`load` reads back
        self.queue = None
        self.reset()

    def reset(self) -> None:
        for holder in (self.holder, self.queue):
            if holder is not None:
                holder.unspill()
        self.holder = self.queue = None
        self.refs: Dict[Hashable, BlobRef] = {}
        self.segments: Dict[str, int] = {}
        self.pending: Dict[str, Dict[int, bytes]] = {}
        #: the boundary of the last capture (or of the head loaded)
        self.next_round = 0
        #: where ``refs`` point until the next :meth:`stage` rewrites every
        #: live blob into ``directory`` (:meth:`continue_from`), or None
        self.origin: Optional[Path] = None

    def continue_from(self, loaded: BlobTable,
                      origin: Optional[Path] = None) -> BlobTable:
        """Start over from a copy of ``loaded``'s references (its dicts
        copied, never shared, so one capsule resumes any number of runs).

        ``origin`` is the directory ``loaded`` was read from when this
        table's directory does not hold it: reads go there until the next
        :meth:`stage` compacts every live blob into this directory.
        """
        self.reset()
        self.next_round = loaded.next_round
        self.refs = dict(loaded.refs)
        self.segments = dict(loaded.segments)
        self.origin = origin
        return self

    @property
    def live_bytes(self) -> int:
        return sum(ref.length for ref in self.refs.values())

    def stage(self, next_round: int, states: Dict[int, bytes],
              events: Dict[Hashable, bytes], live: List[Hashable]) -> None:
        """Lay the fresh ``states`` and ``events`` blobs out as this
        boundary's segment, hashing each once.

        ``live`` lists every key alive at the boundary; references to
        anything else are forgotten.  When that leaves the referenced
        segments holding more than ``_GARBAGE_FACTOR`` times the live
        bytes, or while ``origin`` is set, every live blob is rewritten
        into the new segment instead — read back verified, keeping its
        SHA-256 — and the segments it replaces lose their last reference
        and are pruned.
        """
        fresh = {key: (blob, hashlib.sha256(blob).hexdigest())
                 for key, blob in {**states, **events}.items()}
        kept = {key: self.refs[key] for key in live if key not in fresh}
        fresh_bytes = sum(len(blob) for blob, _ in fresh.values())
        live_bytes = fresh_bytes + sum(ref.length for ref in kept.values())
        held_bytes = fresh_bytes + sum(
            self.segments[name]
            for name in {ref.segment for ref in kept.values()})
        if (self.origin is not None
                or held_bytes > _GARBAGE_FACTOR * live_bytes):
            fresh = {key: fresh[key] if key in fresh
                     else (self.read(key), kept[key].sha256)
                     for key in live}
            kept = {}
            self.origin = None
        name = f"blobs-{next_round:06d}.bin"
        # the segment is never joined: its blobs stay separate objects
        blobs: Dict[int, bytes] = {}
        offset = 0
        for key, (blob, digest) in fresh.items():
            kept[key] = BlobRef(name, offset, len(blob), digest)
            blobs[offset] = blob
            offset += len(blob)
        held = {ref.segment for ref in kept.values()}
        self.refs = kept
        self.segments = {held_name: length
                         for held_name, length in self.segments.items()
                         if held_name in held}
        self.pending = {held_name: data
                        for held_name, data in self.pending.items()
                        if held_name in held}
        if blobs:
            self.segments[name] = offset
            self.pending[name] = blobs
        self.next_round = next_round

    def read(self, key: Hashable) -> bytes:
        """The blob of the state or event ``key`` names, verified.

        The blob is found through ``refs`` (which follows a compaction into
        the new segment, pending or not) and checked against its
        reference; a missing or mismatched blob raises
        :class:`SegmentError` naming the file.
        """
        ref = self.refs[key]
        return _read_blob((self.origin or self.directory) / ref.segment, ref,
                          self.pending.get(ref.segment))

    def load(self, key: Hashable) -> Any:
        """A fresh copy of the state or event ``key`` names, unpickled
        from its verified blob (:meth:`read`)."""
        return _unpickle(self.read(key), (self.origin or self.directory)
                         / self.refs[key].segment)

    def hold(self, store, queue) -> None:
        """Become the loader of ``store`` and ``queue`` (None for a
        scheduler without one): each lets go of what it holds clean — every
        blob ``refs`` names is on disk — and reads it back through
        :meth:`load`."""
        store.spill(self.load)
        self.holder = store
        if queue is not None:
            queue.spill(self.load)
            self.queue = queue


def capture_run(core, scheduler, history: TrainingHistory, next_round: int,
                table: BlobTable) -> RunCheckpoint:
    """Snapshot ``core``/``scheduler`` at a round boundary, incrementally.

    Training continues mutating the global parameters and client states in
    place, and a checkpoint that aliased them would silently describe a
    *later* round than it claims — so the strategy attributes and scheduler
    scalars are deep-copied, the history's records (append-only: see
    :meth:`TrainingHistory.append`) are listed, not copied, and every
    client state written since the previous boundary (the store's dirty
    set) and every event new to the queue is pickled *now*, into
    ``table``'s next pending segment.  Everything else keeps the reference
    ``table`` already holds — a spilled state or event is never read back:
    it is clean, and its reference is live.  An event's reference is paired
    with its stub: its heap position and round.  The returned head is what
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
        digest=_digest_of(core),
        next_round=int(next_round),
        method=history.method,
        dataset=history.dataset,
        records=list(history.records),
        strategy_attrs=copy.deepcopy(strategy_attrs),
        rng=rng_state(core.context.rng),
        client_states={},
        scheduler={"name": scheduler.name,
                   **copy.deepcopy(scheduler_state)},
    )
    store = core.clients.state_store
    ids = store.ids()
    dirty = store.take_dirty()
    states: Dict[int, bytes] = {
        client_id: pickle.dumps(store.get(client_id),
                                protocol=_PICKLE_PROTOCOL)
        for client_id in ids
        if client_id in dirty or client_id not in table.refs}
    events: Dict[Hashable, bytes] = {}
    for queued in event_lists.values():
        for event in queued:
            if _event_key(event) not in table.refs:
                events[_event_key(event)] = pickle.dumps(
                    event, protocol=_PICKLE_PROTOCOL)
    # staged last: nothing after this point can fail and leave the table
    # ahead of the head the manager still holds
    table.stage(next_round, states, events,
                [*ids, *(_event_key(event)
                         for queued in event_lists.values()
                         for event in queued)])
    head.client_states = {client_id: table.refs[client_id]
                          for client_id in ids}
    head.scheduler.update(
        (name, [(SpilledEvent(event.finish_time, event.client_id,
                              event.round_index),
                 table.refs[_event_key(event)]) for event in queued])
        for name, queued in event_lists.items())
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

    ``checkpoint`` is a head :func:`load_checkpoint` returned; one
    without its table (built in memory, or unpickled) raises
    :class:`CheckpointError`.  Its states are adopted into the store and
    its queued events pushed into the scheduler's queue *unread*, through
    a copy of its table: the one ``manager`` — the run's checkpointer, if
    it has one — continues from (:meth:`CheckpointManager.resumed`), else
    a copy of its own.  Each is unpickled when the run first reads the
    state or pops the event (the table is installed as the loader of the
    queue ``scheduler.reset()`` made before ``load_state_dict`` pushes
    the stubs into it); only the FedBuff buffer is read here.  So the run
    holds one copy of what it reads, and the same capsule restores again
    unchanged.  Unless the manager's directory holds the capsule, the run
    reads the capsule's segments after this returns: into another
    directory until its first save, without a manager until it has read
    every state and popped every event; one pruned or replaced meanwhile
    fails that read with :class:`SegmentError`.  The state store is left
    *clean* (it now equals the checkpoint).  Nothing restored points back
    at ``checkpoint``, so it lives only as long as the caller's
    reference: the round loop drops its own once this returns.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"checkpoint version {checkpoint.version} != supported "
            f"{CHECKPOINT_VERSION}")
    loaded = checkpoint.table
    if loaded is None:
        raise CheckpointError(
            "restore_run needs a checkpoint load_checkpoint returned "
            "(one built in memory or unpickled has no blob table)")
    digest = _digest_of(core)
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
    table = (manager.resumed(checkpoint) if manager is not None
             else BlobTable(loaded.directory).continue_from(loaded))
    store = core.clients.state_store
    store.adopt_spilled(checkpoint.client_states, table.load)
    table.hold(store, scheduler.queue)
    store.take_dirty()
    scheduler_state = dict(checkpoint.scheduler)
    if "events" in scheduler_state:
        scheduler_state["events"] = [
            stub for stub, _ in scheduler_state["events"]]
    if "buffer" in scheduler_state:
        scheduler_state["buffer"] = [
            table.load(_event_key(stub))
            for stub, _ in scheduler_state["buffer"]]
    history.records = copy.deepcopy(checkpoint.records)
    scheduler.load_state_dict(scheduler_state)
    return checkpoint.next_round


# ----------------------------------------------------------------- on disk
def _write_atomically(path: Path, *chunks: bytes) -> None:
    """Write tmp, fsync, rename: ``path`` is either absent/old or complete.

    The rename itself is durable only once the directory is synced
    (:func:`_sync_directory`), which the caller does when the order of
    renames matters.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _sync_directory(directory: Path) -> None:
    """Make the renames and unlinks done in ``directory`` so far durable."""
    handle = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


def _frame(payload: bytes) -> bytes:
    """The head header for ``payload``."""
    return _HEADER.pack(_MAGIC, CHECKPOINT_VERSION, len(payload),
                        hashlib.sha256(payload).digest())


def save_checkpoint(path: Union[str, Path], checkpoint: RunCheckpoint,
                    pending: Optional[Mapping[str, Mapping[int, bytes]]] = None
                    ) -> Path:
    """Persist one checkpoint: its pending segments, then the head.

    ``pending`` holds the blobs of segments not on disk yet
    (:attr:`BlobTable.pending`, ``{offset: blob}`` in segment order);
    those ``checkpoint`` references are streamed next to ``path`` first,
    blob by blob and each segment atomically, so the head's own rename
    commits a checkpoint whose every reference resolves.  A loaded
    ``checkpoint`` saved without ``pending`` rewrites its head alone: its
    table is not pickled, and its segments must already be next to
    ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = [name for name in checkpoint.segments
               if pending and name in pending]
    for name in written:
        _write_atomically(path.parent / name, *pending[name].values())
    if written:
        # a crash after the head's rename must not find it naming a
        # segment whose own rename was lost
        _sync_directory(path.parent)
    payload = pickle.dumps(checkpoint, protocol=_PICKLE_PROTOCOL)
    _write_atomically(path, _frame(payload), payload)
    # the commit is durable before anything prunes what it replaces
    _sync_directory(path.parent)
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


def _blob_refs(head: RunCheckpoint) -> Dict[Hashable, BlobRef]:
    """Every blob reference ``head`` holds, keyed as a running table keys
    them: a state by its client id, an event by ``(round_index,
    client_id)``."""
    refs: Dict[Hashable, BlobRef] = dict(head.client_states)
    for name in _EVENT_LISTS:
        for stub, ref in head.scheduler.get(name, ()):
            refs[_event_key(stub)] = ref
    return refs


def load_checkpoint(path: Union[str, Path]) -> RunCheckpoint:
    """Load one checkpoint (module docstring: trusted input).

    The trust root of every blob read: references resolve against the
    head's own directory.  The head is verified before it is unpickled;
    then every blob it references is read once, one at a time, and checked
    against its reference's SHA-256 — so a corrupt, missing or replaced
    segment fails the load, naming the file — and dropped.  Nothing else
    is unpickled, and bytes no reference names are not read.  The head
    comes back as it was written, with the references in its ``table``:
    each read of a state or event through it re-reads, re-verifies and
    unpickles a fresh one, so the capsule holds none of its own.
    """
    path = Path(path)
    head = read_head(path)
    table = BlobTable(path.parent)
    table.next_round = head.next_round
    table.segments = dict(head.segments)
    table.refs = _blob_refs(head)
    for ref in table.refs.values():
        if ref.segment not in head.segments:
            raise CheckpointError(
                f"reference into unlisted segment {ref.segment!r}")
        _read_blob(path.parent / ref.segment, ref, None)
    head.table = table
    return head


class CheckpointManager:
    """Round-boundary checkpointing into one directory.

    ``every`` selects which round boundaries persist (1 = every round).
    The directory keeps the ``_KEEP_HEADS`` newest *heads* (oldest pruned
    after a successful write, so at least one complete checkpoint always
    survives a crash mid-save thanks to the atomic rename) — and with them
    every segment a kept head or the running table references, nothing
    else.  Heads beyond the boundary just saved (a directory reused without
    resume) are not "newest": they are removed, never the head just
    written.  ``stop_after_round`` turns the manager into a deterministic
    preemption: once that round's checkpoint is on disk,
    :class:`TrainingInterrupted` aborts the run — the CI resume-smoke job
    and the golden resume suite interrupt runs this way.

    ``saves`` counts the saves and ``last_bytes`` is the head plus the
    segments the last one wrote; the time they take is ``bench/``'s to
    measure.
    """

    def __init__(self, directory: Union[str, Path], *, every: int = 1,
                 stop_after_round: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.every = positive_int(every, "every")
        self.stop_after_round = non_negative_int(
            stop_after_round, "stop_after_round", optional=True)
        self.last_bytes = 0
        self.saves = 0
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
        return (round_index + 1) % self.every == 0 or self._stops(round_index)

    def _stops(self, round_index: int) -> bool:
        """Whether the run is interrupted after ``round_index``."""
        return (self.stop_after_round is not None
                and round_index >= self.stop_after_round)

    def save(self, checkpoint: RunCheckpoint) -> Path:
        pending = self._table.pending
        segment_bytes = sum(checkpoint.segments[name]
                            for name in checkpoint.segments if name in pending)
        path = save_checkpoint(self.path_for(checkpoint.next_round),
                               checkpoint, pending)
        pending.clear()
        if checkpoint is self._unsaved:
            self._unsaved = None
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
        ``every > 1`` skips the save.  Once a save has committed — every
        blob the table references is then on disk — the state store lets
        go of every state outside the boundary's dirty set and the event
        queue of every queued event, whatever the fleet size, and
        :meth:`BlobTable.load` reads one back when the run next reads the
        state or pops the event.  Between saves, the states and events of
        the pending boundaries stay resident.
        """
        self._unsaved = capture_run(core, scheduler, history,
                                    round_index + 1, self._table)
        if self.due(round_index):
            self.save(self._unsaved)
            self._table.hold(core.clients.state_store, scheduler.queue)
        if self._stops(round_index):
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

    def resumed(self, checkpoint: RunCheckpoint) -> BlobTable:
        """The run continues from the loaded ``checkpoint`` (called by
        ``restore_run``): the manager's table becomes a copy of the
        capsule's, returned for ``restore_run`` to adopt every state and
        queued event through it unread.  The manager keeps the copy, never
        the capsule.

        When this directory still holds what the capsule was loaded from
        (:meth:`_holds`) — after ``"auto"``, or a path to a head or to the
        directory, unless a later run here pruned or replaced it — the
        next save writes only what changes.  Otherwise the table reads
        from the capsule's directory until the first save rewrites every
        live blob, verified, into its own segment here, so a blob gone
        since the load raises :class:`SegmentError` before anything is
        written.
        """
        loaded = checkpoint.table
        return self._table.continue_from(
            loaded, None if self._holds(loaded) else loaded.directory)

    def _holds(self, loaded: BlobTable) -> bool:
        """Whether this directory still holds what ``loaded`` was read
        from: its head, with the same references (SHA-256s included) and
        segment lengths, each segment still its recorded length.  A later
        run here removes that head when it replaces or prunes one of them,
        unless it writes the same head again."""
        try:
            head = read_head(self.path_for(loaded.next_round))
            return (head.segments == loaded.segments
                    and _blob_refs(head) == loaded.refs
                    and all((self.directory / name).stat().st_size == length
                            for name, length in loaded.segments.items()))
        except (CheckpointError, FileNotFoundError):
            return False

    def latest(self) -> Optional[RunCheckpoint]:
        """The newest complete checkpoint in the directory, or None."""
        paths = self.checkpoint_paths()
        return load_checkpoint(paths[-1]) if paths else None

    def _prune(self, saved_round: int) -> None:
        """Drop every head but the ``_KEEP_HEADS`` newest up to ``saved_round``
        (the boundary just saved), then every segment that neither a kept
        head nor the live table references (superseded ones and orphans).
        The ``.tmp`` files of a crashed save go first: every save of this
        manager has renamed its own by the time it prunes.

        A head *beyond* ``saved_round`` is the future of a history this run
        is rewriting — a directory started into again without resume — and
        goes first: counted among the newest it would push out the head
        just written, and this run replaces the segments it names anyway.
        """
        for entry in self.directory.iterdir():
            if _TMP_PATTERN.match(entry.name):
                _unlink(entry)
        heads = self._heads()
        kept = [path for next_round, path in heads
                if next_round <= saved_round][-_KEEP_HEADS:]
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
        os.unlink(path)
    except OSError:  # pragma: no cover - benign cleanup race
        pass


def resolve_resume(resume_from, manager: Optional[CheckpointManager]
                   ) -> Optional[RunCheckpoint]:
    """Turn a ``resume_from`` argument into a checkpoint (or None).

    Accepted forms:

    * ``None`` — no resume;
    * ``"auto"`` — the latest checkpoint in the manager's
      directory, or a fresh start when there is none yet (so "always run
      with resume" is a safe spot/preemptible idiom);
    * a loaded :class:`RunCheckpoint` — used as-is; it can resume any
      number of runs, each reading fresh states from its segments (which
      must still be on disk);
    * a path to a checkpoint file, or to a directory of them (latest wins;
      an empty or missing explicit path is an error, unlike ``"auto"``).
    """
    if resume_from is None:
        return None
    if isinstance(resume_from, RunCheckpoint):
        return resume_from
    if resume_from == "auto":
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
