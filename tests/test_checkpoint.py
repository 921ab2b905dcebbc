"""Checkpoint/resume: interrupted runs must continue bit-identically.

The acceptance bar is byte equality, not approximation: every golden
fixture is re-run with a deterministic interruption at a round boundary
(``stop_after_round``) followed by a resume, and the stitched history must
match the committed fixture JSON exactly — on the virtual and on the
hand-built eager-data federation, and for the fedasync/fedbuff schedulers (whose in-flight event pools
and FedBuff buffers cross the checkpoint).  No golden fixture is
regenerated by this PR: resume correctness is proven against the histories
that predate the checkpoint subsystem.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import pickle
import re
import stat
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import checkpoint as checkpoint_module
from repro.baselines import build_strategy
from repro.checkpoint import (BlobTable, CheckpointError, CheckpointManager,
                              CheckpointMismatch, RunCheckpoint, SegmentError,
                              TrainingInterrupted, load_checkpoint,
                              read_head, resolve_resume, restore_run,
                              save_checkpoint)
from repro.experiments import preset_for, run_method, scaled
from repro.experiments.presets import build_experiment
from repro.federated import FederatedTrainer, FleetConfig
from repro.federated.fleet import _SPILLED, FleetStateStore
from repro.parallel import ThreadPoolExecutor
from repro.server import scheduler as scheduler_module
from repro.server.clock import EventQueue, SpilledEvent
from repro.server.core import ServerCore
from repro.server.scheduler import build_scheduler
from repro.systems.metrics import TrainingHistory

from eager_data import on_both_federations

_SPEC = importlib.util.spec_from_file_location(
    "golden_fixtures",
    Path(__file__).resolve().parent / "fixtures" / "regenerate_golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

SPECS = golden.golden_specs()


def history_json(history) -> str:
    """Canonical byte-comparable serialization of a history."""
    return json.dumps(history.to_dict(), sort_keys=True)


def run_resumed(method, preset_builder, tmp_path, *, stop_after_round=0,
                run=run_method, **run_kwargs):
    """Interrupt a run at a round boundary, then resume it to completion."""
    directory = tmp_path / "ckpt"
    with pytest.raises(TrainingInterrupted):
        run(method, preset_builder(), checkpoint_dir=directory,
            stop_after_round=stop_after_round, **run_kwargs)
    return run(method, preset_builder(), checkpoint_dir=directory,
               resume=True, **run_kwargs)


class TestGoldenResumeParity:
    """Every pinned run resumes bit-for-bit against its committed fixture."""

    @on_both_federations
    @pytest.mark.parametrize("name,method,scenario,aggregation,codec", SPECS,
                             ids=[spec[0] for spec in SPECS])
    def test_interrupt_resume_matches_fixture(self, name, method, scenario,
                                              aggregation, codec, run,
                                              tmp_path):
        payload = json.loads(golden.fixture_path(name).read_text())
        resumed = run_resumed(
            method,
            lambda: golden.golden_preset(scenario, aggregation, codec),
            tmp_path, run=run)
        assert json.loads(history_json(resumed)) == payload["history"], (
            f"resumed history diverged from the golden fixture for "
            f"{method!r} ({scenario}, {aggregation}, {codec}, "
            f"{run.__name__})")


def async_preset(aggregation: str):
    """A run long enough that in-flight events cross the interruption."""
    return scaled(preset_for("mnist"), num_clients=8, num_rounds=6,
                  clients_per_round=3, examples_per_client=20,
                  local_iterations=2, batch_size=8, seed=7,
                  scenario="flaky", aggregation=aggregation)


class TestEventDrivenResume:
    """fedasync/fedbuff carry queue/clock/buffer state across the boundary."""

    @pytest.mark.parametrize("aggregation", ["fedasync", "fedbuff"])
    @pytest.mark.parametrize("method", ["fedavg", "fedlps"])
    def test_resume_matches_uninterrupted(self, aggregation, method,
                                          tmp_path):
        reference = run_method(method, async_preset(aggregation))
        resumed = run_resumed(method, lambda: async_preset(aggregation),
                              tmp_path, stop_after_round=2)
        assert history_json(resumed) == history_json(reference)

    def test_interrupted_checkpoint_holds_in_flight_events(self, tmp_path):
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            run_method("fedavg", async_preset("fedasync"),
                       checkpoint_dir=directory, stop_after_round=2)
        checkpoint = CheckpointManager(directory).latest()
        # the flaky scenario's stragglers leave work in flight at round
        # boundaries; the checkpoint must carry it (else resume would
        # silently drop those clients' updates)
        assert checkpoint.scheduler["name"] == "fedasync"
        events = [stub for stub, _ in checkpoint.scheduler["events"]]
        assert {e.client_id for e in events} \
            == set(checkpoint.scheduler["in_flight"])
        finish_times = [e.finish_time for e in events]
        assert finish_times == sorted(finish_times)
        assert checkpoint.scheduler["clock_now"] > 0.0
        assert checkpoint.scheduler["version"] > 0

    def test_a_fedasync_head_without_a_buffer_resumes(self, tmp_path):
        # fedasync heads from before fedasync shared fedbuff's buffer have
        # no "buffer" entry (same CHECKPOINT_VERSION): it reads as empty
        reference = run_method("fedavg", async_preset("fedasync"))
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            run_method("fedavg", async_preset("fedasync"),
                       checkpoint_dir=directory, stop_after_round=2)
        manager = CheckpointManager(directory)
        head = manager.latest()
        assert head.scheduler.pop("buffer") == []
        save_checkpoint(manager.path_for(head.next_round), head)
        assert "buffer" not in manager.latest().scheduler
        resumed = run_method("fedavg", async_preset("fedasync"),
                             checkpoint_dir=directory, resume=True)
        assert history_json(resumed) == history_json(reference)


class TestThreadBackendResume:
    """A checkpoint written under one backend resumes under another."""

    def test_serial_checkpoint_resumes_on_thread_pool(self, tmp_path):
        from repro.parallel import ThreadPoolExecutor

        preset = lambda: golden.golden_preset("ideal")
        reference = run_method("fedavg", preset())
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            run_method("fedavg", preset(), checkpoint_dir=directory,
                       stop_after_round=0)
        with ThreadPoolExecutor(2) as executor:
            resumed = run_method("fedavg", preset(), checkpoint_dir=directory,
                                 resume=True, executor=executor)
        assert history_json(resumed) == history_json(reference)


class TestDigestRefusal:
    """A checkpoint must never resume into a run it does not belong to."""

    def _checkpoint_for(self, tmp_path, **overrides):
        directory = tmp_path / "ckpt"
        preset = golden.golden_preset("ideal")
        if overrides:
            preset = scaled(preset, **overrides)
        with pytest.raises(TrainingInterrupted):
            run_method("fedavg", preset, checkpoint_dir=directory,
                       stop_after_round=0)
        return directory

    def test_seed_mismatch_is_refused(self, tmp_path):
        directory = self._checkpoint_for(tmp_path)
        with pytest.raises(CheckpointMismatch, match="different run"):
            run_method("fedavg", scaled(golden.golden_preset("ideal"),
                                        seed=12),
                       checkpoint_dir=directory, resume=True)

    def test_method_mismatch_is_refused(self, tmp_path):
        directory = self._checkpoint_for(tmp_path)
        with pytest.raises(CheckpointMismatch):
            run_method("fedprox", golden.golden_preset("ideal"),
                       checkpoint_dir=directory, resume=True)

    def test_aggregation_mismatch_is_refused(self, tmp_path):
        # the digest covers the full config, so a sync checkpoint can never
        # resume a fedasync run of the otherwise-identical spec
        directory = self._checkpoint_for(tmp_path)
        with pytest.raises(CheckpointMismatch):
            run_method("fedavg", scaled(golden.golden_preset("ideal"),
                                        aggregation="fedasync"),
                       checkpoint_dir=directory, resume=True)

    def test_tampered_scheduler_name_is_refused(self, tmp_path):
        # the scheduler-name backstop fires even when the digest matches
        directory = self._checkpoint_for(tmp_path)
        manager = CheckpointManager(directory)
        checkpoint = manager.latest()
        checkpoint.scheduler = dict(checkpoint.scheduler, name="fedasync")
        save_checkpoint(manager.path_for(checkpoint.next_round), checkpoint)
        with pytest.raises(CheckpointMismatch, match="scheduler"):
            run_method("fedavg", golden.golden_preset("ideal"),
                       checkpoint_dir=directory, resume=True)

    def test_version_1_capsule_is_refused_by_version(self, tmp_path):
        # version 1 digests hashed ``fleet.lazy``; the refusal must name
        # the version, not tell the user to "fix the config"
        directory = self._checkpoint_for(tmp_path)
        manager = CheckpointManager(directory)
        checkpoint = manager.latest()
        checkpoint.version = 1
        save_checkpoint(manager.path_for(checkpoint.next_round), checkpoint)
        with pytest.raises(CheckpointMismatch,
                           match="checkpoint version 1 != supported 4"):
            run_method("fedavg", golden.golden_preset("ideal"),
                       checkpoint_dir=directory, resume=True)


class TestCheckpointManager:
    def _dummy(self, next_round: int) -> RunCheckpoint:
        return RunCheckpoint(version=1, digest="d", next_round=next_round,
                             method="m", dataset="d", records=[],
                             strategy_attrs={}, rng={"bit_generator": "PCG64"},
                             client_states={}, scheduler={"name": "sync"})

    def test_keep_prunes_oldest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint_module, "_KEEP_HEADS", 2)
        manager = CheckpointManager(tmp_path)
        for next_round in (1, 2, 3, 4):
            manager.save(self._dummy(next_round))
        names = [path.name for path in manager.checkpoint_paths()]
        assert names == ["checkpoint-000003.pkl", "checkpoint-000004.pkl"]
        assert manager.latest().next_round == 4

    def test_every_selects_round_boundaries(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=3)
        assert [r for r in range(9) if manager.due(r)] == [2, 5, 8]
        manager = CheckpointManager(tmp_path, every=3, stop_after_round=4)
        # the interruption round always persists, aligned or not
        assert manager.due(4)

    @pytest.mark.parametrize("value,error", [
        (-1, ValueError), (1.5, TypeError), ("3", TypeError)])
    def test_a_bad_stop_after_round_fails_before_any_round(
            self, value, error, tmp_path, monkeypatch):
        with pytest.raises(error, match="stop_after_round"):
            CheckpointManager(tmp_path, stop_after_round=value)
        selected = []
        monkeypatch.setattr(ServerCore, "select_clients",
                            lambda core, round_index: selected.append(
                                round_index))
        with pytest.raises(error, match="stop_after_round"):
            run_method("fedavg", golden.golden_preset("ideal"),
                       checkpoint_dir=tmp_path, stop_after_round=value)
        assert selected == []
        assert not any(tmp_path.iterdir())

    def test_save_is_atomic_and_ignores_tmp_litter(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(self._dummy(1))
        # a crash mid-save leaves only a tmp file; it must be invisible
        (tmp_path / "checkpoint-000009.pkl.tmp").write_bytes(b"garbage")
        assert [p.name for p in manager.checkpoint_paths()] \
            == ["checkpoint-000001.pkl"]
        assert manager.latest().next_round == 1
        assert manager.last_bytes \
            == (tmp_path / "checkpoint-000001.pkl").stat().st_size

    def test_the_next_save_removes_a_crashed_saves_tmp_files(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(self._dummy(1))
        # what a save killed between write and rename leaves behind
        litter = ["checkpoint-000002.pkl.tmp", "blobs-000002.bin.tmp"]
        for name in litter:
            (tmp_path / name).write_bytes(b"partial")
        # a file of another name is not the manager's to remove
        (tmp_path / "notes.tmp").write_bytes(b"keep")
        manager.save(self._dummy(2))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "checkpoint-000001.pkl", "checkpoint-000002.pkl", "notes.tmp"]
        assert manager.latest().next_round == 2

    def test_corrupt_and_foreign_files_raise_checkpoint_error(self, tmp_path):
        from repro.checkpoint import _frame

        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"\x80\x05 definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(corrupt)
        # a well-formed file (header matches payload) of something else
        foreign = tmp_path / "foreign.pkl"
        payload = pickle.dumps({"not": "a checkpoint"})
        foreign.write_bytes(_frame(payload) + payload)
        with pytest.raises(CheckpointError, match="RunCheckpoint"):
            load_checkpoint(foreign)
        truncated = tmp_path / "truncated.pkl"
        truncated.write_bytes((_frame(payload) + payload)[:-1])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(truncated)
        with pytest.raises(CheckpointError, match="no checkpoint file"):
            load_checkpoint(tmp_path / "missing.pkl")

    def test_pickle_roundtrip(self, tmp_path):
        path = save_checkpoint(tmp_path / "checkpoint-000002.pkl",
                               self._dummy(2))
        loaded = load_checkpoint(path)
        assert loaded.next_round == 2
        assert loaded.scheduler == {"name": "sync"}


class TestResolveResume:
    def test_auto_with_empty_directory_starts_fresh(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert resolve_resume("auto", manager) is None
        assert resolve_resume(None, manager) is None

    @pytest.mark.parametrize("form", ["read_head", "unpickled"])
    def test_a_capsule_without_its_table_is_refused(self, tmp_path, form):
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            spill_trainer("sync").run(checkpoint_dir=directory,
                                      stop_after_round=1)
        path = CheckpointManager(directory).checkpoint_paths()[-1]
        head = (read_head(path) if form == "read_head"
                else pickle.loads(pickle.dumps(load_checkpoint(path))))
        assert head.table is None
        assert resolve_resume(head, None) is head
        before = {item.name: item.read_bytes()
                  for item in directory.iterdir()}
        # restore_run, the one reader of the table, refuses it
        with pytest.raises(CheckpointError, match="load_checkpoint"):
            spill_trainer("sync").run(resume_from=head)
        with pytest.raises(CheckpointError, match="load_checkpoint"):
            spill_trainer("sync").run(checkpoint_dir=directory,
                                      resume_from=head)
        assert {item.name: item.read_bytes()
                for item in directory.iterdir()} == before

    def test_explicit_paths_are_strict(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CheckpointError, match="no checkpoints"):
            resolve_resume(empty, None)
        with pytest.raises(CheckpointError):
            resolve_resume(tmp_path / "nowhere.pkl", None)

    def test_stop_without_checkpoint_dir_is_an_error(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_method("fedavg", golden.golden_preset("ideal"),
                       stop_after_round=0)


class TestSweepRetries:
    def test_failed_cell_resumes_from_its_checkpoint(self, monkeypatch,
                                                     tmp_path):
        from repro.experiments import runner

        preset = golden.golden_preset("ideal")
        reference = run_method("fedavg", preset)
        real = run_method
        attempts = []

        def flaky(method, p, **kwargs):
            attempts.append(kwargs.get("resume", False))
            if len(attempts) == 1:
                # first attempt: checkpoint round 0, then die like a
                # preempted worker would
                with pytest.raises(TrainingInterrupted):
                    real(method, p, **{**kwargs, "stop_after_round": 0})
                raise RuntimeError("simulated preemption")
            return real(method, p, **kwargs)

        monkeypatch.setattr(runner, "run_method", flaky)
        histories = runner.run_jobs([("fedavg", preset, None)],
                                    checkpoint_root=tmp_path, retries=1)
        assert len(attempts) == 2
        assert attempts == [True, True]  # every attempt offers to resume
        assert history_json(histories[0]) == history_json(reference)
        cell = runner.sweep_cell_dir(tmp_path, ("fedavg", preset, None))
        assert CheckpointManager(cell).latest() is not None

    def test_exhausted_retries_reraise(self, monkeypatch, tmp_path):
        from repro.experiments import runner

        def always_fails(method, p, **kwargs):
            raise RuntimeError("permanent failure")

        monkeypatch.setattr(runner, "run_method", always_fails)
        with pytest.raises(RuntimeError, match="permanent failure"):
            runner.run_jobs([("fedavg", golden.golden_preset("ideal"), None)],
                            checkpoint_root=tmp_path, retries=2)

    def test_negative_retries_rejected(self):
        from repro.experiments import runner

        with pytest.raises(ValueError):
            runner.run_jobs([], retries=-1)


def build_trainer(method, preset, executor=None):
    dataset, model_builder, config, fleet = build_experiment(preset)
    return FederatedTrainer(build_strategy(method), dataset, model_builder,
                            config=config, fleet=fleet, executor=executor)


def _backend(name):
    return (ThreadPoolExecutor(2) if name == "thread"
            else contextlib.nullcontext())


def _tamper(value):
    """Mutate every array and dict reachable from ``value`` in place."""
    if isinstance(value, np.ndarray) and value.size:
        value[...] = value.flat[0] + 1
    elif isinstance(value, dict):
        for item in list(value.values()):
            _tamper(item)
        value["tampered"] = True
    elif isinstance(value, (list, tuple)):
        for item in value:
            _tamper(item)


def states_of(capsule) -> dict:
    """A loaded capsule's ``{client_id: state}``, each read through its
    table."""
    return {client_id: capsule.table.load(client_id)
            for client_id in capsule.client_states}


def assert_same_head(head, other) -> None:
    """Two heads hold the same references, stubs, segments, records and
    scalars (the strategy attributes compared as pickles: numpy arrays)."""
    for spec in dataclasses.fields(RunCheckpoint):
        if spec.compare and spec.name != "strategy_attrs":
            assert getattr(head, spec.name) == getattr(other, spec.name), \
                spec.name
    assert pickle.dumps(head.strategy_attrs) \
        == pickle.dumps(other.strategy_attrs)


class TestCapsuleReuse:
    """A loaded capsule holds references: each read unpickles fresh states,
    so a restore adopts them without a copy and the capsule stays reusable."""

    METHOD = "fedlps"

    @pytest.fixture(params=["sync", "fedbuff"])
    def interrupted(self, request, tmp_path):
        """(uninterrupted history, directory interrupted after round 2)."""
        preset = lambda: async_preset(request.param)
        reference = history_json(run_method(self.METHOD, preset()))
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            run_method(self.METHOD, preset(), checkpoint_dir=directory,
                       stop_after_round=2)
        return reference, preset, directory

    def _resume(self, preset, capsule, executor=None):
        return history_json(build_trainer(self.METHOD, preset(), executor)
                            .run(resume_from=capsule))

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_two_resumes_from_one_capsule(self, interrupted, backend):
        reference, preset, directory = interrupted
        capsule = load_checkpoint(
            CheckpointManager(directory).checkpoint_paths()[-1])
        with _backend(backend) as executor:
            assert self._resume(preset, capsule, executor) == reference
            assert self._resume(preset, capsule, executor) == reference

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_two_resumes_through_one_manager(self, interrupted, backend):
        """Each ``latest()`` loads the head afresh (the manager keeps no
        memo of loaded capsules); a capsule it handed out resumes twice,
        and so does the one a second ``latest()`` loads."""
        reference, preset, directory = interrupted
        manager = CheckpointManager(directory)
        with _backend(backend) as executor:
            first = manager.latest()
            assert self._resume(preset, first, executor) == reference
            second = manager.latest()
            assert second is not first
            assert (second.digest, second.next_round) \
                == (first.digest, first.next_round)
            assert self._resume(preset, first, executor) == reference
            assert self._resume(preset, second, executor) == reference

    def test_a_restored_run_never_writes_into_the_capsule(self, interrupted):
        _, preset, directory = interrupted
        capsule = CheckpointManager(directory).latest()
        before = {client_id: pickle.dumps(state)
                  for client_id, state in states_of(capsule).items()}
        core = build_trainer(self.METHOD, preset())
        scheduler = build_scheduler(core.config)
        core.strategy.setup(core.context)
        scheduler.reset()
        restore_run(core, scheduler, capsule,
                    TrainingHistory(method=self.METHOD, dataset="mnist"))
        restored = core.clients.state_store.snapshot()
        assert sorted(restored) == sorted(before)
        for state in restored.values():
            _tamper(state)
        for client_id, state in restored.items():
            assert pickle.dumps(state) != before[client_id]
        assert {client_id: pickle.dumps(state)
                for client_id, state in states_of(capsule).items()} == before

    def test_pickling_a_loaded_capsule_yields_its_head(self, interrupted):
        """... without the table: a loaded capsule is its verified head
        plus the references it read, and only the head is data."""
        _, _, directory = interrupted
        path = CheckpointManager(directory).checkpoint_paths()[-1]
        capsule = load_checkpoint(path)
        copied = pickle.loads(pickle.dumps(capsule))
        assert capsule.table is not None and copied.table is None
        assert b"BlobTable" not in pickle.dumps(capsule)
        assert_same_head(copied, read_head(path))
        assert all(isinstance(ref, checkpoint_module.BlobRef)
                   for ref in copied.client_states.values())
        assert bool(copied.scheduler.get("events")) \
            == (capsule.scheduler["name"] == "fedbuff")

    def test_saving_a_loaded_capsule_rewrites_its_head(self, interrupted):
        """The call the fleet probe times, ``save_checkpoint(path,
        load_checkpoint(path))``: the head loads back the same, and no
        segment is written or touched."""
        _, _, directory = interrupted
        path = CheckpointManager(directory).checkpoint_paths()[-1]
        segments = {segment.name: segment.read_bytes()
                    for segment in directory.glob("blobs-*.bin")}
        before = load_checkpoint(path)
        save_checkpoint(path, load_checkpoint(path))
        after = load_checkpoint(path)
        # fields, not bytes: a re-pickled head may differ in its memo
        assert_same_head(after, before)
        assert after.table.refs == before.table.refs
        assert {segment.name: segment.read_bytes()
                for segment in directory.glob("blobs-*.bin")} == segments

    def test_a_loaded_capsule_saved_without_its_segments_is_refused(
            self, interrupted, tmp_path):
        _, _, directory = interrupted
        capsule = CheckpointManager(directory).latest()
        path = save_checkpoint(tmp_path / "bare" / "checkpoint-000003.pkl",
                               capsule)
        first = next(iter(capsule.client_states.values())).segment
        with pytest.raises(SegmentError, match=re.escape(
                f"checkpoint segment {path.parent / first} is missing")):
            load_checkpoint(path)

    @pytest.mark.parametrize("fate", ["pruned", "overwritten"])
    def test_a_segment_gone_since_the_load_is_named(self, interrupted, fate):
        _, _, directory = interrupted
        path = CheckpointManager(directory).checkpoint_paths()[-1]
        capsule = load_checkpoint(path)
        client_id, ref = next(iter(capsule.client_states.items()))
        segment = directory / ref.segment
        if fate == "pruned":
            segment.unlink()
        else:
            segment.write_bytes(b"another run's blobs")
        with pytest.raises(SegmentError, match=re.escape(str(segment))):
            capsule.table.load(client_id)
        with pytest.raises(SegmentError, match=re.escape(str(segment))):
            states_of(capsule)


class TestTheLoadedCapsuleIsLetGo:
    """Once ``restore_run`` returns, nothing the run holds keeps the capsule
    ``load_checkpoint`` returned: not the manager, not the round loop."""

    def test_no_loaded_capsule_survives_the_first_resumed_round(
            self, monkeypatch, tmp_path):
        preset = lambda: async_preset("fedbuff")
        reference = history_json(run_method("fedlps", preset()))
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", preset(), checkpoint_dir=directory,
                       stop_after_round=2)
        loaded, seen = [], []
        real_load = checkpoint_module.load_checkpoint
        real_after_round = CheckpointManager.after_round

        def load(path):
            capsule = real_load(path)
            loaded.append(weakref.ref(capsule))
            return capsule

        def after_round(manager, core, scheduler, history, round_index):
            real_after_round(manager, core, scheduler, history, round_index)
            if seen:
                return
            gc.collect()
            seen.append([obj for obj in gc.get_objects()
                         if isinstance(obj, RunCheckpoint)
                         and any(obj is ref() for ref in loaded)])
            # the manager was still seeded from the loaded head: the first
            # save after the resume references the blobs already on disk
            head = read_head(manager.path_for(round_index + 1))
            own = f"blobs-{round_index + 1:06d}.bin"
            seen.append(set(head.segments) - {own})

        monkeypatch.setattr(checkpoint_module, "load_checkpoint", load)
        monkeypatch.setattr(CheckpointManager, "after_round", after_round)
        resumed = run_method("fedlps", preset(), checkpoint_dir=directory,
                             resume=True)
        assert history_json(resumed) == reference
        assert len(loaded) == 1
        survivors, carried = seen
        assert survivors == []
        assert carried


def spill_trainer(aggregation="fedbuff"):
    """40 clients, a shard cache of 8 (past the shard switch too); its
    checkpointed runs keep clean client states in their segments, as
    every checkpointed run does."""
    preset = scaled(preset_for("mnist"), num_clients=40, num_rounds=8,
                    clients_per_round=6, examples_per_client=16,
                    local_iterations=1, batch_size=8, seed=3,
                    scenario="flaky", aggregation=aggregation)
    dataset, model_builder, config, fleet = build_experiment(preset)
    config.fleet = FleetConfig(shard_cache=8)
    return FederatedTrainer(build_strategy("fedlps"), dataset, model_builder,
                            config=config, fleet=fleet)


def spilled_ids(store) -> list:
    return [cid for cid in store.ids() if store._states[cid] is _SPILLED]


class TestSpilledStatesOnDisk:
    """A spilled or unread-adopted state is read back from its blob:
    verified first, wherever compaction moved it."""

    @pytest.fixture
    def interrupted(self, tmp_path):
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            spill_trainer().run(checkpoint_dir=directory, stop_after_round=3)
        return directory

    @staticmethod
    def _restored(directory, manager="own"):
        """A fresh core restored from the directory's latest checkpoint,
        and the capsule.  ``manager`` is where the resumed run checkpoints:
        its ``"own"`` directory, ``"another"`` one, or ``"none"``."""
        core = spill_trainer()
        capsule = CheckpointManager(directory).latest()
        manager = {"own": CheckpointManager(directory),
                   "another": CheckpointManager(directory.parent / "other"),
                   "none": None}[manager]
        scheduler = build_scheduler(core.config)
        core.strategy.setup(core.context)
        scheduler.reset()
        restore_run(core, scheduler, capsule,
                    TrainingHistory(method="fedlps", dataset="mnist"),
                    manager)
        return core, capsule

    @pytest.mark.parametrize("manager", ["own", "another", "none"])
    def test_a_resume_unpickles_no_state_until_it_is_read(
            self, interrupted, manager, monkeypatch):
        unpickled = []
        real = checkpoint_module._unpickle

        def counting(blob, source):
            value = real(blob, source)
            if isinstance(value, dict):  # a client state (not a head/event)
                unpickled.append(value)
            return value

        monkeypatch.setattr(checkpoint_module, "_unpickle", counting)
        core, capsule = self._restored(interrupted, manager)
        store = core.clients.state_store
        assert len(store) == len(capsule.client_states) > 0
        assert unpickled == []
        assert spilled_ids(store) == store.ids()
        client_id = store.ids()[0]
        state = store.get(client_id)
        assert unpickled == [state]
        assert spilled_ids(store) == store.ids()[1:]
        assert pickle.dumps(state) \
            == pickle.dumps(capsule.table.load(client_id))

    @pytest.mark.parametrize("manager", ["another", "none"])
    def test_a_resume_elsewhere_reads_the_capsules_segments_lazily(
            self, interrupted, manager, tmp_path):
        """A resume without a checkpoint directory, or into another one,
        reads the capsule's segments until each state is first read (and,
        into another directory, until its first save): a segment gone in
        that window fails the next cold read, naming the file, and the
        run writes nothing."""
        core, capsule = self._restored(interrupted, manager)
        store = core.clients.state_store
        client_id = store.ids()[0]
        segment = interrupted / capsule.client_states[client_id].segment
        segment.unlink()
        with pytest.raises(SegmentError, match=re.escape(str(segment))):
            store.get(client_id)
        for name in capsule.segments:
            (interrupted / name).unlink(missing_ok=True)
        before = {path.name: path.read_bytes()
                  for path in interrupted.iterdir()}
        other = tmp_path / "resumed"
        with pytest.raises(SegmentError) as failure:
            spill_trainer().run(
                checkpoint_dir=other if manager == "another" else None,
                resume_from=capsule)
        assert any(str(interrupted / name) in str(failure.value)
                   for name in capsule.segments)
        assert {path.name: path.read_bytes()
                for path in interrupted.iterdir()} == before
        assert not other.exists() or list(other.iterdir()) == []

    @pytest.mark.parametrize("how", ["resumed", "spilled"])
    def test_a_flipped_byte_in_a_spilled_blob_names_the_file(
            self, interrupted, how, tmp_path):
        if how == "resumed":
            core, _ = self._restored(interrupted)
            directory = interrupted
        else:
            core, directory = spill_trainer(), tmp_path / "run"
            core.run(checkpoint_dir=directory)
        store = core.clients.state_store
        head = read_head(CheckpointManager(directory).checkpoint_paths()[-1])
        client_id = spilled_ids(store)[0]
        ref = head.client_states[client_id]
        segment = directory / ref.segment
        data = bytearray(segment.read_bytes())
        data[ref.offset + ref.length // 2] ^= 0xFF
        segment.write_bytes(data)
        with pytest.raises(SegmentError, match=re.escape(str(segment))):
            store.get(client_id)
        segment.unlink()
        with pytest.raises(SegmentError, match="is missing"):
            store.touch(client_id)

    def test_a_spilled_state_moved_by_compaction_still_loads(
            self, tmp_path, monkeypatch):
        # compact whenever a segment holds any superseded blob
        monkeypatch.setattr(checkpoint_module, "_GARBAGE_FACTOR", 1)
        real = CheckpointManager.after_round
        moved = {}

        def after_round(manager, core, scheduler, history, round_index):
            store, table = core.clients.state_store, manager._table
            before = {cid: table.refs[cid].segment
                      for cid in spilled_ids(store)}
            real(manager, core, scheduler, history, round_index)
            still = set(spilled_ids(store))
            for cid, segment in before.items():
                # untouched (still spilled), yet its blob moved: a
                # compaction relocated it
                if cid in still and table.refs[cid].segment != segment:
                    moved.setdefault(cid, segment)

        monkeypatch.setattr(CheckpointManager, "after_round", after_round)
        reference = history_json(spill_trainer().run())
        trainer = spill_trainer()
        assert history_json(trainer.run(checkpoint_dir=tmp_path)) \
            == reference
        # ... out of a segment that has been pruned since
        gone = [cid for cid, segment in moved.items()
                if not (tmp_path / segment).exists()]
        assert gone
        latest = load_checkpoint(
            CheckpointManager(tmp_path).checkpoint_paths()[-1])
        store = trainer.clients.state_store
        assert set(gone) & set(spilled_ids(store))
        for cid in gone:
            assert pickle.dumps(store.get(cid)) \
                == pickle.dumps(latest.table.load(cid))


    def test_a_table_reset_reads_spilled_states_back_first(self, tmp_path):
        from repro.checkpoint import BlobTable
        from repro.federated.fleet import FleetStateStore

        table, store = BlobTable(tmp_path), FleetStateStore()
        states = {cid: {"params": np.full(3, float(cid))} for cid in (1, 2)}
        for cid, state in states.items():
            store.adopt(cid, state)
        table.stage(1, {cid: pickle.dumps(state)
                        for cid, state in states.items()}, {}, [1, 2])
        store.take_dirty()
        store.take_dirty()
        store.spill(table.load)  # reads ``pending``: nothing is on disk
        table.holder = store
        assert spilled_ids(store) == [1, 2]
        table.reset()
        assert spilled_ids(store) == [] and table.holder is None
        assert {cid: pickle.dumps(state)
                for cid, state in store.snapshot().items()} \
            == {cid: pickle.dumps(state) for cid, state in states.items()}


class TestResumeByPathFromTheRunsOwnDirectory:
    """A resume by the path of a head, or of the directory, that is the
    run's own checkpoint directory continues from the loaded capsule's
    table, as ``"auto"`` does: the first save writes only what changed,
    and the run adopts the saved states unread."""

    @pytest.mark.parametrize("form", ["head", "directory"])
    def test_a_resume_by_path_is_incremental(self, form, tmp_path,
                                             monkeypatch):
        reference = history_json(spill_trainer().run())
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            spill_trainer().run(checkpoint_dir=directory, stop_after_round=3)
        written = {path.name for path in directory.glob("blobs-*.bin")}
        resume_from = {"head": CheckpointManager(directory)
                       .checkpoint_paths()[-1],
                       "directory": directory}[form]
        adopted, carried = [], []
        real_resumed = CheckpointManager.resumed
        real_adopt_spilled = FleetStateStore.adopt_spilled
        real_after_round = CheckpointManager.after_round

        def resumed(manager, checkpoint):
            table = real_resumed(manager, checkpoint)
            assert table is manager._table
            adopted.append(set(checkpoint.client_states))
            return table

        def adopt_spilled(store, client_ids, loader):
            adopted.append(set(client_ids))
            real_adopt_spilled(store, client_ids, loader)

        def after_round(manager, core, scheduler, history, round_index):
            real_after_round(manager, core, scheduler, history, round_index)
            if not carried:
                head = read_head(manager.path_for(round_index + 1))
                carried.append(set(head.segments) & written)

        monkeypatch.setattr(CheckpointManager, "resumed", resumed)
        monkeypatch.setattr(FleetStateStore, "adopt_spilled", adopt_spilled)
        monkeypatch.setattr(CheckpointManager, "after_round", after_round)
        resumed_run = spill_trainer().run(checkpoint_dir=directory,
                                          resume_from=resume_from)
        assert history_json(resumed_run) == reference
        [saved, unread] = adopted
        assert saved and unread == saved
        # the first save references segments written before the resume
        assert carried[0]


class TestACapsuleReusedInItsOwnDirectory:
    """A loaded capsule resumed into its own directory after a later run
    there has pruned or replaced what it references is refused before
    anything is written, or resumes to the uninterrupted history: it never
    leaves a head that cannot be loaded."""

    @staticmethod
    def _resume(trainer, capsule, directory):
        """("refused", None) when the resume raised before writing
        anything, else ("resumed", its history); every head left in
        ``directory`` must load, with all its states read."""
        before = {path.name: path.read_bytes()
                  for path in directory.iterdir()}
        try:
            resumed = trainer().run(checkpoint_dir=directory,
                                    resume_from=capsule)
        except SegmentError:
            assert {path.name: path.read_bytes()
                    for path in directory.iterdir()} == before
            outcome = ("refused", None)
        else:
            outcome = ("resumed", history_json(resumed))
        for path in CheckpointManager(directory).checkpoint_paths():
            states_of(load_checkpoint(path))
        return outcome

    def test_resumed_twice_while_compacting(self, tmp_path, monkeypatch):
        # compact whenever a segment holds any superseded blob
        monkeypatch.setattr(checkpoint_module, "_GARBAGE_FACTOR", 1)
        reference = history_json(spill_trainer().run())
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            spill_trainer().run(checkpoint_dir=directory, stop_after_round=3)
        capsule = CheckpointManager(directory).latest()
        assert self._resume(spill_trainer, capsule, directory) \
            == ("resumed", reference)
        # the first resume ran to the end and pruned the capsule's segments
        assert self._resume(spill_trainer, capsule, directory) \
            == ("refused", None)

    @staticmethod
    def sparse_trainer(seed=3):
        """400 clients, 4 a round, 4 evaluated: the rounds after a resume
        at round 1 never read a state the capsule holds."""
        preset = scaled(preset_for("mnist"), num_clients=400, num_rounds=4,
                        clients_per_round=4, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=seed,
                        scenario="flaky", aggregation="sync")
        dataset, model_builder, config, fleet = build_experiment(preset)
        config.fleet = FleetConfig(shard_cache=8, eval_clients=4)
        return FederatedTrainer(build_strategy("fedlps"), dataset,
                                model_builder, config=config, fleet=fleet)

    def test_resumed_after_another_run_replaced_its_segments(self, tmp_path):
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            self.sparse_trainer().run(checkpoint_dir=directory,
                                      stop_after_round=0)
        capsule = CheckpointManager(directory).latest()
        # a run with another seed, started without resume: it rewrites
        # blobs-000001.bin, which the capsule references
        self.sparse_trainer(seed=4).run(checkpoint_dir=directory)
        assert self._resume(self.sparse_trainer, capsule, directory) \
            == ("refused", None)


class TestACorruptBlobMetByACompaction:
    """A compaction reads every kept blob through the verified per-blob
    read: a blob corrupted on disk fails the save, naming the file, and
    leaves the table as it was."""

    def test_the_save_names_the_file_and_keeps_the_table(self, tmp_path,
                                                         monkeypatch):
        # compact whenever a segment holds any superseded blob
        monkeypatch.setattr(checkpoint_module, "_GARBAGE_FACTOR", 1)
        real = CheckpointManager.after_round
        met = []

        def after_round(manager, core, scheduler, history, round_index):
            table, store = manager._table, core.clients.state_store
            # the states the next stage keeps (clean) and finds on disk
            kept = [cid for cid in store.ids()
                    if cid in table.refs and cid not in store._dirty
                    and table.refs[cid].segment not in table.pending]
            originals = {}
            for cid in kept:
                ref = table.refs[cid]
                path = tmp_path / ref.segment
                if path not in originals:
                    originals[path] = path.read_bytes()
                data = bytearray(path.read_bytes())
                data[ref.offset + ref.length // 2] ^= 0xFF
                path.write_bytes(data)
            before = (dict(table.refs), dict(table.segments))
            try:
                real(manager, core, scheduler, history, round_index)
            except SegmentError as error:
                met.append((str(error), originals, before,
                            (table.refs, table.segments)))
                raise
            # no compaction at this boundary: undo the corruption
            for path, data in originals.items():
                if path.exists():
                    path.write_bytes(data)

        monkeypatch.setattr(CheckpointManager, "after_round", after_round)
        with pytest.raises(SegmentError):
            run_method("fedlps", async_preset("sync"),
                       checkpoint_dir=tmp_path)
        [(message, corrupted, before, after)] = met
        assert any(str(path) in message for path in corrupted)
        assert after == before


def spilled_run(directory, monkeypatch):
    """Run ``spill_trainer("fedbuff")`` to completion checkpointing into
    ``directory``; returns its manager and scheduler, whose queue the last
    committed save spilled."""
    real = CheckpointManager.after_round
    seen = {}

    def after_round(manager, core, scheduler, history, round_index):
        real(manager, core, scheduler, history, round_index)
        seen.update(manager=manager, scheduler=scheduler)

    with monkeypatch.context() as patched:
        patched.setattr(CheckpointManager, "after_round", after_round)
        spill_trainer().run(checkpoint_dir=directory)
    return seen["manager"], seen["scheduler"]


def spilled_events(queue) -> list:
    return [entry for entry in queue.snapshot()
            if isinstance(entry, SpilledEvent)]


class TestSpilledEventsOnDisk:
    """A spilled queued event is read back from its blob when it is
    popped: verified first, wherever compaction moved it."""

    @pytest.mark.parametrize("fate", ["flipped", "missing"])
    def test_a_damaged_spilled_blob_names_the_file_when_popped(
            self, fate, tmp_path, monkeypatch):
        manager, scheduler = spilled_run(tmp_path, monkeypatch)
        queue = scheduler.queue
        queued = queue.snapshot()
        assert queued and spilled_events(queue) == queued
        head = read_head(manager.checkpoint_paths()[-1])
        stub, ref = head.scheduler["events"][0]  # the first to pop
        assert stub == queued[0]
        segment = tmp_path / ref.segment
        if fate == "flipped":
            data = bytearray(segment.read_bytes())
            data[ref.offset + ref.length // 2] ^= 0xFF
            segment.write_bytes(data)
        else:
            segment.unlink()
        with pytest.raises(SegmentError, match=re.escape(str(segment))):
            queue.pop()
        # a failed read leaves the queue as it was
        assert queue.snapshot() == queued

    def test_an_event_moved_by_compaction_still_pops(self, tmp_path,
                                                      monkeypatch):
        # compact whenever a segment holds any superseded blob
        monkeypatch.setattr(checkpoint_module, "_GARBAGE_FACTOR", 1)
        manager, scheduler = spilled_run(tmp_path, monkeypatch)
        queue, refs = scheduler.queue, manager._table.refs
        queued = spilled_events(queue)
        assert queued and queued == queue.snapshot()

        def first_written(entry):
            # an event is first written at the boundary after its dispatch
            return f"blobs-{entry.round_index + 1:06d}.bin"

        # ... out of a segment that has been pruned since
        gone = [entry for entry in queued
                if refs[(entry.round_index, entry.client_id)].segment
                != first_written(entry)
                and not (tmp_path / first_written(entry)).exists()]
        assert gone
        latest = load_checkpoint(manager.checkpoint_paths()[-1])
        assert [pickle.dumps(queue.pop()) for _ in queued] \
            == [pickle.dumps(latest.table.load((stub.round_index,
                                                stub.client_id)))
                for stub, _ in latest.scheduler["events"]]

    def test_a_table_reset_reads_spilled_events_back_first(self, tmp_path):
        from repro.checkpoint import BlobTable
        from repro.federated.strategy import ClientUpdate
        from repro.server.clock import ClientEvent, EventQueue
        from repro.systems.cost import CostBreakdown

        events = [ClientEvent(
            finish_time=float(finish), client_id=client_id, round_index=0,
            dispatch_version=0, cost=CostBreakdown(1.0, 2.0),
            update=ClientUpdate(client_id=client_id,
                                params={"w": np.full(3, float(client_id))},
                                num_examples=4, train_accuracy=0.5,
                                train_loss=1.0))
            for finish, client_id in ((2, 1), (1, 2))]
        table, queue = BlobTable(tmp_path), EventQueue()
        for event in events:
            queue.push(event)
        keys = [(event.round_index, event.client_id) for event in events]
        table.stage(1, {}, {key: pickle.dumps(event)
                            for key, event in zip(keys, events)}, keys)
        queue.spill(table.load)  # reads ``pending``: nothing is on disk
        table.queue = queue
        assert len(spilled_events(queue)) == 2
        table.reset()
        assert spilled_events(queue) == [] and table.queue is None
        assert [pickle.dumps(queue.pop()) for _ in events] \
            == [pickle.dumps(event) for event in events[::-1]]


def flip_byte(path, position):
    data = bytearray(path.read_bytes())
    data[position] ^= 0xFF
    path.write_bytes(data)


class TestOneDigestPerBlob:
    """Each reference carries its blob's SHA-256, the head records only
    segment lengths, and a load checks every referenced blob once and
    unpickles nothing but the head; a resume into its own directory
    rebuilds the queue from the head's stubs, unread."""

    @pytest.fixture(params=["fedasync", "fedbuff"])
    def spilled_resume(self, request, tmp_path):
        """(aggregation, directory interrupted after round 3) of a fleet
        whose checkpointed runs spill."""
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            spill_trainer(request.param).run(checkpoint_dir=directory,
                                             stop_after_round=3)
        return request.param, directory

    def test_a_version_3_head_is_refused_naming_the_file(self, tmp_path):
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            run_method("fedavg", golden.golden_preset("ideal"),
                       checkpoint_dir=directory, stop_after_round=0)
        head = CheckpointManager(directory).checkpoint_paths()[-1]
        data = bytearray(head.read_bytes())
        data[4:8] = (3).to_bytes(4, "little")  # the header's version field
        head.write_bytes(data)
        message = re.escape(f"{head}: checkpoint version 3 != supported 4")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(head)
        with pytest.raises(CheckpointError, match=message):
            run_method("fedavg", golden.golden_preset("ideal"),
                       checkpoint_dir=directory, resume=True)

    def test_a_load_hashes_each_referenced_blob_once_and_unpickles_nothing(
            self, spilled_resume, monkeypatch):
        _, directory = spilled_resume
        path = CheckpointManager(directory).checkpoint_paths()[-1]
        head = read_head(path)
        refs = [*head.client_states.values(),
                *(ref for name in ("events", "buffer")
                  for _, ref in head.scheduler.get(name, ()))]
        assert refs and all(isinstance(ref, checkpoint_module.BlobRef)
                            for ref in refs)
        assert head.segments == {
            name: (directory / name).stat().st_size
            for name in {ref.segment for ref in refs}}
        hashed, unpickled = [], []
        real_sha256, real_unpickle = (hashlib.sha256,
                                      checkpoint_module._unpickle)

        def sha256(data=b""):
            hashed.append(bytes(data))
            return real_sha256(data)

        def unpickle(blob, source):
            unpickled.append(source)
            return real_unpickle(blob, source)

        monkeypatch.setattr(checkpoint_module.hashlib, "sha256", sha256)
        monkeypatch.setattr(checkpoint_module, "_unpickle", unpickle)
        capsule = load_checkpoint(path)
        monkeypatch.undo()
        # the head's payload once, then every referenced blob once
        payload = path.read_bytes()[checkpoint_module._HEADER.size:]
        blobs = []
        for ref in refs:
            with open(directory / ref.segment, "rb") as handle:
                handle.seek(ref.offset)
                blobs.append(handle.read(ref.length))
        assert sorted(hashed) == sorted([payload, *blobs])
        assert unpickled == [path]
        assert [real_sha256(blob).hexdigest() for blob in blobs] \
            == [ref.sha256 for ref in refs]
        assert capsule.scheduler["events"] == head.scheduler["events"]

    def test_a_stage_hashes_each_fresh_blob_once(self, tmp_path,
                                                 monkeypatch):
        blobs = {cid: pickle.dumps({"v": np.full(8, float(cid))})
                 for cid in range(4)}
        table, hashed = BlobTable(tmp_path), []
        real_sha256 = hashlib.sha256

        def sha256(data=b""):
            hashed.append(bytes(data))
            return real_sha256(data)

        monkeypatch.setattr(checkpoint_module.hashlib, "sha256", sha256)
        table.stage(1, blobs, {}, list(blobs))
        assert sorted(hashed) == sorted(blobs.values())
        assert table.segments == {
            "blobs-000001.bin": sum(map(len, blobs.values()))}
        # a compaction reads each kept blob back verified — one hash each
        # — and rewrites it under the SHA-256 its reference carries
        monkeypatch.setattr(checkpoint_module, "_GARBAGE_FACTOR", 1)
        hashed.clear()
        fresh = {0: pickle.dumps({"v": np.zeros(8)})}
        table.stage(2, fresh, {}, list(blobs))
        assert sorted(hashed) == sorted([fresh[0], blobs[1], blobs[2],
                                         blobs[3]])
        assert set(table.segments) == {"blobs-000002.bin"}
        assert {cid: table.read(cid) for cid in blobs} == {**blobs, **fresh}

    def test_a_resume_in_its_own_directory_pops_each_event_from_its_blob(
            self, spilled_resume, monkeypatch):
        aggregation, directory = spilled_resume
        reference = history_json(spill_trainer(aggregation).run())
        head = read_head(CheckpointManager(directory).checkpoint_paths()[-1])
        loads, restored, popped = [], [], []
        real_load, real_pop = BlobTable.load, EventQueue.pop
        real_restore = scheduler_module.restore_run

        def load(table, key):
            loads.append((table, key))
            return real_load(table, key)

        def restore_run(core, scheduler, checkpoint, history, manager):
            start = real_restore(core, scheduler, checkpoint, history,
                                 manager)
            restored.append((manager, scheduler.queue.snapshot(),
                             [key for _, key in loads
                              if isinstance(key, tuple)]))
            return start

        def pop(queue):
            entry = queue._heap[0][2]
            before = len(loads)
            event = real_pop(queue)
            if isinstance(entry, SpilledEvent):
                [(table, key)] = loads[before:]
                popped.append((table, key, entry))
            return event

        monkeypatch.setattr(BlobTable, "load", load)
        monkeypatch.setattr(scheduler_module, "restore_run", restore_run)
        monkeypatch.setattr(EventQueue, "pop", pop)
        resumed = spill_trainer(aggregation).run(checkpoint_dir=directory,
                                                 resume_from="auto")
        assert history_json(resumed) == reference
        [(manager, queued, read_at_restore)] = restored
        # the queue was rebuilt from the head's stubs, none of them read;
        # only the FedBuff buffer was
        assert queued and queued == [stub for stub, _
                                     in head.scheduler["events"]]
        assert read_at_restore == [(stub.round_index, stub.client_id)
                                   for stub, _
                                   in head.scheduler.get("buffer", ())]
        # each stub popped was read then, through the run's own table —
        # the resumed queue's among them (a fedbuff run ends with some
        # still queued)
        assert {entry for _, _, entry in popped} & set(queued)
        for table, key, entry in popped:
            assert table is manager._table
            assert key == (entry.round_index, entry.client_id)

    def test_a_flipped_byte_in_a_queued_events_blob_fails_the_load(
            self, spilled_resume, monkeypatch):
        aggregation, directory = spilled_resume
        path = CheckpointManager(directory).checkpoint_paths()[-1]
        stub, ref = read_head(path).scheduler["events"][-1]
        segment = directory / ref.segment
        flip_byte(segment, ref.offset + ref.length // 2)
        unpickled = []
        real_unpickle = checkpoint_module._unpickle

        def unpickle(blob, source):
            unpickled.append(source)
            return real_unpickle(blob, source)

        monkeypatch.setattr(checkpoint_module, "_unpickle", unpickle)
        with pytest.raises(SegmentError, match=re.escape(str(segment))):
            load_checkpoint(path)
        assert unpickled == [path]
        before = {entry.name: entry.read_bytes()
                  for entry in directory.iterdir()}
        with pytest.raises(SegmentError, match=re.escape(str(segment))):
            spill_trainer(aggregation).run(checkpoint_dir=directory,
                                           resume_from="auto")
        assert {entry.name: entry.read_bytes()
                for entry in directory.iterdir()} == before

    def test_a_flipped_byte_in_a_dead_region_still_resumes(self, tmp_path):
        """Bytes no reference names are never unpickled, so they are not
        checked: the trust scope is the referenced blobs."""
        preset = lambda: async_preset("sync")
        reference = history_json(run_method("fedlps", preset()))
        directory = tmp_path / "ckpt"
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", preset(), checkpoint_dir=directory,
                       stop_after_round=4)
        head = read_head(CheckpointManager(directory).checkpoint_paths()[-1])
        live = {}
        for ref in head.client_states.values():
            live.setdefault(ref.segment, set()).update(
                range(ref.offset, ref.offset + ref.length))
        dead = [(name, position)
                for name, length in sorted(head.segments.items())
                for position in range(length)
                if position not in live[name]]
        assert dead  # superseded blobs, not compacted yet
        name, position = dead[len(dead) // 2]
        flip_byte(directory / name, position)
        resumed = run_method("fedlps", preset(), checkpoint_dir=directory,
                             resume=True)
        assert history_json(resumed) == reference


class TestBoundaryOverheads:
    def test_the_run_digest_is_computed_once_per_core(self, monkeypatch,
                                                      tmp_path):
        calls = []
        real = checkpoint_module.run_digest

        def counting(core):
            calls.append(core)
            return real(core)

        monkeypatch.setattr(checkpoint_module, "run_digest", counting)
        trainer = build_trainer("fedlps", async_preset("fedbuff"))
        with pytest.raises(TrainingInterrupted):
            trainer.run(checkpoint_dir=tmp_path, stop_after_round=2)
        resumed = build_trainer("fedlps", async_preset("fedbuff"))
        resumed.run(checkpoint_dir=tmp_path, resume_from="auto")
        assert calls == [trainer, resumed]
        assert checkpoint_module._digest_of(resumed) == real(resumed)
        assert checkpoint_module._digest_of(trainer) \
            == real(build_trainer("fedlps", async_preset("fedbuff")))

    def test_the_directory_is_synced_after_each_commit_and_before_a_prune(
            self, monkeypatch, tmp_path):
        """Per save: the segment (fsync, rename), a directory fsync so no
        head can name a segment whose rename was lost, the head (fsync,
        rename), a directory fsync so the commit is durable — and only
        then the prune's unlinks."""
        events = []
        real_fsync, real_replace, real_unlink = (os.fsync, os.replace,
                                                 os.unlink)
        ours = re.compile(r"^(checkpoint-\d+\.pkl|blobs-\d+\.bin)$")

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            real_fsync(fd)

        def replace(source, target, **kwargs):
            if ours.match(Path(target).name):
                events.append(("replace", Path(target).name))
            real_replace(source, target, **kwargs)

        def unlink(path, **kwargs):
            if ours.match(Path(path).name):
                events.append(("unlink", Path(path).name))
            real_unlink(path, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        run_method("fedlps", async_preset("fedbuff"), checkpoint_dir=tmp_path)
        monkeypatch.undo()
        position, unlinked = 0, 0
        for boundary in range(1, 7):
            assert events[position:position + 6] == [
                ("fsync", "file"), ("replace", f"blobs-{boundary:06d}.bin"),
                ("fsync", "dir"),
                ("fsync", "file"),
                ("replace", f"checkpoint-{boundary:06d}.pkl"),
                ("fsync", "dir")], events[position:]
            position += 6
            while position < len(events) and events[position][0] == "unlink":
                position, unlinked = position + 1, unlinked + 1
        assert position == len(events)
        assert unlinked >= 4  # two heads kept: each save from the third prunes
