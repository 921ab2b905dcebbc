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
  only, so a checkpoint is O(cohort) on disk, never O(fleet);
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

The on-disk format is one pickle per checkpoint
(``checkpoint-<next_round>.pkl``) written atomically (tmp + rename) into a
directory; :class:`CheckpointManager` prunes old files, resolves the latest
checkpoint and memoizes loads.  Pickles are trusted input: load checkpoints
only from directories you wrote.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .systems.metrics import RoundRecord, TrainingHistory
from .util import BoundedLRU, canonicalize

#: bump whenever the checkpoint layout — or the set of config fields the run
#: digest hashes — changes incompatibly (2: ``FleetConfig.lazy`` removed)
CHECKPOINT_VERSION = 2

#: checkpoint files are ``checkpoint-<next_round>.pkl`` inside the directory
_FILE_PATTERN = re.compile(r"^checkpoint-(\d+)\.pkl$")

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class CheckpointError(RuntimeError):
    """Base class of every checkpoint failure."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different run than the one resuming."""


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
@dataclass
class RunCheckpoint:
    """Everything needed to continue a run from a round boundary."""

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
    client_states: Dict[int, Dict[str, Any]]
    #: scheduler-specific state (name, aggregation version, clock, events)
    scheduler: Dict[str, Any] = field(default_factory=dict)


def capture_run(core, scheduler, history: TrainingHistory,
                next_round: int) -> RunCheckpoint:
    """Snapshot ``core``/``scheduler`` at a round boundary.

    Everything is deep-copied out of the live objects: training continues
    mutating the global parameters and client states in place, and a
    checkpoint that aliased them would silently describe a *later* round
    than it claims.
    """
    strategy_attrs = {key: value
                      for key, value in core.strategy.__dict__.items()
                      if key != "context"}
    return RunCheckpoint(
        version=CHECKPOINT_VERSION,
        digest=run_digest(core),
        next_round=int(next_round),
        method=history.method,
        dataset=history.dataset,
        records=copy.deepcopy(history.records),
        strategy_attrs=copy.deepcopy(strategy_attrs),
        rng=rng_state(core.context.rng),
        client_states=copy.deepcopy(core.clients.state_store.snapshot()),
        scheduler={"name": scheduler.name,
                   **copy.deepcopy(scheduler.state_dict())},
    )


def restore_run(core, scheduler, checkpoint: RunCheckpoint,
                history: TrainingHistory) -> int:
    """Apply ``checkpoint`` to a freshly set-up core/scheduler pair.

    Must be called *after* ``strategy.setup(context)`` and
    ``scheduler.reset()`` — restoration overwrites the fresh-run state that
    setup installed.  Returns the round index the caller should continue
    from.  Raises :class:`CheckpointMismatch` when the checkpoint does not
    belong to this run (different config/seed/strategy/dataset/model) or to
    this scheduler.
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
    history.records = copy.deepcopy(checkpoint.records)
    scheduler.load_state_dict(checkpoint.scheduler)
    return checkpoint.next_round


# ----------------------------------------------------------------- on disk
def save_checkpoint(path: Union[str, Path],
                    checkpoint: RunCheckpoint) -> Path:
    """Atomically persist one checkpoint (write tmp, fsync, rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(checkpoint, handle, protocol=_PICKLE_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    return path


def load_checkpoint(path: Union[str, Path]) -> RunCheckpoint:
    """Load one checkpoint file (see module docstring: trusted input)."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint file at {path}") from None
    except (pickle.UnpicklingError, EOFError) as error:
        raise CheckpointError(
            f"corrupt checkpoint file {path}: {error}") from error
    if not isinstance(checkpoint, RunCheckpoint):
        raise CheckpointError(
            f"{path} does not contain a RunCheckpoint "
            f"(got {type(checkpoint).__name__})")
    return checkpoint


class CheckpointManager:
    """Round-boundary checkpointing into one directory.

    ``every`` selects which round boundaries persist (1 = every round);
    ``keep`` bounds the files on disk (oldest pruned after a successful
    write, so at least one complete checkpoint always survives a crash
    mid-save thanks to the atomic rename).  ``stop_after_round`` turns the
    manager into a deterministic preemption: once that round's checkpoint
    is on disk, :class:`TrainingInterrupted` aborts the run — the CI
    resume-smoke job and the golden resume suite interrupt runs this way.

    The manager records its last/total save wall-clock and bytes
    (``last_save_seconds``, ``last_bytes``, ...) so the benchmark harness
    can gate checkpoint cost without instrumenting the trainer.
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
        # last round-boundary capsule, kept in memory even when the boundary
        # is not due() for disk — the emergency() path persists it when the
        # run dies between scheduled saves
        self._last_capsule: Optional[RunCheckpoint] = None
        self._last_saved_round: Optional[int] = None

    # ----------------------------------------------------------------- paths
    def path_for(self, next_round: int) -> Path:
        return self.directory / f"checkpoint-{next_round:06d}.pkl"

    def checkpoint_paths(self) -> List[Path]:
        """Existing checkpoint files, oldest (lowest next_round) first."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _FILE_PATTERN.match(entry.name)
            if match is not None:
                found.append((int(match.group(1)), entry))
        return [path for _, path in sorted(found)]

    # ------------------------------------------------------------------- api
    def due(self, round_index: int) -> bool:
        """Whether the boundary after ``round_index`` should persist."""
        if (round_index + 1) % self.every == 0:
            return True
        return (self.stop_after_round is not None
                and round_index >= self.stop_after_round)

    def save(self, checkpoint: RunCheckpoint) -> Path:
        started = time.perf_counter()
        path = save_checkpoint(self.path_for(checkpoint.next_round),
                               checkpoint)
        self.last_save_seconds = time.perf_counter() - started
        self.total_save_seconds += self.last_save_seconds
        self.last_bytes = path.stat().st_size
        self.saves += 1
        self._prune()
        return path

    def after_round(self, core, scheduler, history: TrainingHistory,
                    round_index: int) -> None:
        """The scheduler hook: capture/save when due, then maybe interrupt.

        The capsule is captured at *every* boundary (capture is in-memory
        deep copies, no disk) so :meth:`emergency` always has the most
        recent boundary to persist even when ``every > 1`` skips the save.
        """
        capsule = capture_run(core, scheduler, history, round_index + 1)
        self._last_capsule = capsule
        if self.due(round_index):
            self.save(capsule)
            self._last_saved_round = capsule.next_round
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
        capsule = self._last_capsule
        if capsule is None or self._last_saved_round == capsule.next_round:
            return None
        path = self.save(capsule)
        self._last_saved_round = capsule.next_round
        return path

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
        hit = self._load_memo.get(key)
        if hit is not None:
            return hit
        checkpoint = load_checkpoint(path)
        self._load_memo.put(key, checkpoint)
        return checkpoint

    def _prune(self) -> None:
        paths = self.checkpoint_paths()
        for stale in paths[:-self.keep]:
            try:
                stale.unlink()
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
