"""The incremental checkpoint layout: dirty-set soundness and lifecycle.

A boundary writes only the client states touched and the events first
queued since the previous one (a *segment*); the *head* references them.
That is sound only if nothing mutates a state without marking it dirty and
nothing mutates a queued event at all — so the first suite keeps the old
full deep-copy capture verbatim as an oracle and compares it, after *every*
round of every registry method, with what ``load_checkpoint`` reads back
from disk.  That comparison is per blob, so it cannot see a mutable object
aliased *across* states or events (one deep copy kept such aliasing, one
pickle per blob splits it); the oracle therefore also asserts, on the live
objects at every boundary, that there is none.  The rest drives the layout
through its lifecycle: skipped saves + crash, a kill between segment and
head, pruning, resuming from another directory, rerunning without resume
in a used directory, the garbage bound, a directory another run died in,
the bytes a save costs against the cohort and the fleet, and seeded
corruption.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import shutil

import numpy as np
import pytest

from repro import checkpoint as checkpoint_module
from repro.baselines import available_strategies, build_strategy
from repro.checkpoint import (CHECKPOINT_VERSION, BlobRef, CheckpointError,
                              CheckpointManager, RunCheckpoint,
                              TrainingInterrupted, load_checkpoint,
                              read_head, rng_state, run_digest)
from repro.experiments import preset_for, run_method, scaled
from repro.experiments.presets import build_experiment
from repro.federated import FederatedTrainer
from repro.parallel import ProcessPoolExecutor
from repro.server.clock import SpilledEvent
from repro.server.core import ServerCore


def history_json(history) -> str:
    return json.dumps(history.to_dict(), sort_keys=True)


def small_preset(aggregation="sync", scenario="ideal", **extra):
    """Six clients, two per round: some re-touched, some never touched."""
    overrides = dict(num_clients=6, num_rounds=5, clients_per_round=2,
                     examples_per_client=20, local_iterations=2,
                     batch_size=8, seed=5)
    overrides.update(extra)
    return scaled(preset_for("mnist"), scenario=scenario,
                  aggregation=aggregation, **overrides)


def segment_files(directory):
    return sorted(path.name for path in directory.glob("blobs-*.bin"))


# ---------------------------------------------------------------- the oracle
def _mutable_ids(value, found=None) -> set:
    """``id`` of every mutable object reachable from ``value`` (arrays by
    their owning buffer, so two views of one array count as shared)."""
    found = set() if found is None else found
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        found.add(id(value))
        return found
    if isinstance(value, (str, bytes, int, float, complex, bool, type(None),
                          np.generic)):
        return found
    if not isinstance(value, (tuple, frozenset)):
        if id(value) in found:
            return found
        found.add(id(value))
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:  # a generator is a leaf; anything else is its attributes
        children = list(getattr(value, "__dict__", {}).values())
    for child in children:
        _mutable_ids(child, found)
    return found


def assert_blobs_share_nothing(blobs) -> None:
    """No mutable object is reachable from two of ``blobs``.

    The old capture deep-copied the store snapshot — and the scheduler
    state — in one call each, which preserved such aliasing; one pickle
    per blob would split it.  The per-blob byte comparison below cannot
    see that, so the assumption is pinned here, on the live objects.
    """
    owner = {}
    for label, blob in blobs:
        for identity in _mutable_ids(blob):
            assert owner.setdefault(identity, label) == label, (
                f"{label} and {owner[identity]} share a mutable object")


def reference_capture(core, scheduler, history, next_round,
                      table) -> RunCheckpoint:
    """The full deep-copy capture this layout replaced, kept verbatim —
    plus the one property of it the per-blob comparison cannot see.

    A queued event spilled by an earlier save is read back through the
    manager's ``table`` first, as the queue's pop would read it; each
    event was compared live at the boundary that first queued it.
    """

    def state_dict():
        state = scheduler.state_dict()
        if "events" in state:  # the FedBuff buffer is never spilled
            state["events"] = [
                table.load((entry.round_index, entry.client_id))
                if isinstance(entry, SpilledEvent) else entry
                for entry in state["events"]]
        return state

    states = core.clients.state_store.snapshot()
    assert_blobs_share_nothing(
        (f"state {client_id}", state) for client_id, state in states.items())
    scheduler_state = state_dict()
    events = [(f"{name} {index}", event)
              for name in ("events", "buffer")
              for index, event in enumerate(scheduler_state.pop(name, ()))]
    assert_blobs_share_nothing([*events, ("scheduler", scheduler_state)])
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
                   **copy.deepcopy(state_dict())},
    )


def _canonical_pickle(value) -> bytes:
    """``value``'s pickle after one load: what any checkpoint read back
    from disk re-pickles to.  (A first-generation pickle can differ in its
    memo references only: loading interns attribute names, which splits a
    string the live object shared between a dict key and a field name.)"""
    return pickle.dumps(pickle.loads(pickle.dumps(value)))


def capsule_parts(capsule: RunCheckpoint):
    """The capsule as labelled pickles, one per blob plus the small rest.

    A loaded capsule's states and events are read through its table; the
    oracle holds them in place of the references.  Byte equality is
    asserted per part, not on one pickle of the whole capsule: pickle
    memoizes by object identity, and the deep-copied oracle shares its
    interned key strings (``"params"``, ...) *across* client states where
    independently loaded blobs cannot.
    """
    table = capsule.table  # None for the oracle, built in memory

    def read(key, entry):
        return entry if table is None else table.load(key)

    scheduler = dict(capsule.scheduler)
    events = {name: scheduler.pop(name) for name in ("events", "buffer")
              if name in scheduler}
    parts = {"rest": _canonical_pickle(dataclasses.replace(
        capsule, client_states=list(capsule.client_states),
        scheduler=scheduler, segments={}, table=None))}
    for client_id, entry in capsule.client_states.items():
        parts[f"state {client_id}"] = _canonical_pickle(
            read(client_id, entry))
    for name, entries in events.items():
        for index, entry in enumerate(entries):
            stub = entry if table is None else entry[0]
            parts[f"{name} {index}"] = _canonical_pickle(
                read((stub.round_index, stub.client_id), entry))
    return parts


@pytest.fixture
def at_every_boundary(monkeypatch):
    """Call ``check(manager, round_index, oracle)`` after each boundary.

    The same harness guards the write path's second consumer, the
    evaluation memo: a state that differs from the previous boundary's full
    capture when a sweep starts must have no remembered accuracy left.
    """
    real = CheckpointManager.after_round
    real_evaluate = ServerCore.evaluate_personalized
    checks = []
    # the store the last boundary captured, and each state's pickle then
    boundary = {"store": None, "states": {}}

    def evaluate_personalized(core):
        store = core.clients.state_store
        # before this run's first boundary there is nothing to compare with
        states = store.snapshot() if boundary["store"] is store else {}
        for client_id, state in states.items():
            if _canonical_pickle(state) != boundary["states"].get(client_id):
                assert store.remembered_accuracy(client_id) is None, (
                    f"state {client_id} was written past adopt/touch: its "
                    "remembered accuracy survived the write")
        return real_evaluate(core)

    def after_round(self, core, scheduler, history, round_index):
        oracle = reference_capture(core, scheduler, history, round_index + 1,
                                   self._table)
        boundary["store"] = core.clients.state_store
        boundary["states"] = {
            client_id: _canonical_pickle(state)
            for client_id, state in oracle.client_states.items()}
        try:
            real(self, core, scheduler, history, round_index)
        finally:
            for check in checks:
                check(self, round_index, oracle)

    monkeypatch.setattr(CheckpointManager, "after_round", after_round)
    monkeypatch.setattr(ServerCore, "evaluate_personalized",
                        evaluate_personalized)
    return checks.append


@pytest.fixture
def oracle_checked(at_every_boundary):
    """Every boundary's head must read back equal to the full capture."""
    boundaries = []

    def check(manager, round_index, oracle):
        loaded = load_checkpoint(manager.path_for(round_index + 1))
        # the head lists exactly the segments its references point into
        assert set(loaded.segments) \
            == {ref.segment for ref in loaded.table.refs.values()}
        assert capsule_parts(loaded) == capsule_parts(oracle)
        boundaries.append(round_index)

    at_every_boundary(check)
    return boundaries


def run_interrupted_then_resumed(method, preset_builder, directory, *,
                                 stop_after_round=1, **kwargs):
    with pytest.raises(TrainingInterrupted):
        run_method(method, preset_builder(), checkpoint_dir=directory,
                   stop_after_round=stop_after_round, **kwargs)
    return run_method(method, preset_builder(), checkpoint_dir=directory,
                      resume=True, **kwargs)


class TestEquivalenceWithFullCapture:
    """(i) what is on disk after every round equals the old full capture."""

    @pytest.mark.parametrize("method", available_strategies())
    def test_every_registry_method_under_sync(self, method, tmp_path,
                                              oracle_checked):
        run_interrupted_then_resumed(method, small_preset, tmp_path)
        assert oracle_checked == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("aggregation", ["fedasync", "fedbuff"])
    def test_fedlps_event_driven_under_flaky(self, aggregation, tmp_path,
                                             oracle_checked,
                                             at_every_boundary):
        carried = []

        def check(manager, round_index, oracle):
            head = read_head(manager.path_for(round_index + 1))
            entries = (head.scheduler["events"]
                       + head.scheduler.get("buffer", []))
            events = (oracle.scheduler["events"]
                      + oracle.scheduler.get("buffer", []))
            # each entry pairs the event's stub — heap position and round
            # — with the reference of its blob
            assert [stub for stub, _ in entries] == [
                SpilledEvent(event.finish_time, event.client_id,
                             event.round_index) for event in events]
            assert all(isinstance(ref, BlobRef) for _, ref in entries)
            own = f"blobs-{round_index + 1:06d}.bin"
            carried.append(sum(ref.segment != own for _, ref in entries))

        at_every_boundary(check)
        preset = lambda: small_preset(aggregation, "flaky", num_clients=24,
                                      num_rounds=8, clients_per_round=4)
        run_interrupted_then_resumed("fedlps", preset, tmp_path,
                                     stop_after_round=3)
        assert oracle_checked == list(range(8))
        if aggregation == "fedbuff":
            # buffered arrivals outlive boundaries: the run really carried
            # events by reference — before the interruption and after the
            # resume (fedasync consumes this preset's arrivals at once)
            assert any(carried[:4]) and any(carried[4:])

    def test_supervised_chaos(self, tmp_path, oracle_checked):
        preset = lambda: small_preset("fedbuff", "flaky", num_clients=8,
                                      clients_per_round=3,
                                      fault_plan="chaos", max_retries=1)
        run_interrupted_then_resumed("fedlps", preset, tmp_path)
        assert oracle_checked == [0, 1, 2, 3, 4]

    def test_process_pool(self, tmp_path, oracle_checked):
        with ProcessPoolExecutor(2) as executor:
            run_interrupted_then_resumed("fedlps", small_preset, tmp_path,
                                         executor=executor)
        assert oracle_checked == [0, 1, 2, 3, 4]


class _Killed(BaseException):
    """Not an ``Exception``: escapes the emergency guard like a SIGKILL."""


class TestLifecycle:
    def test_skipped_saves_crash_emergency_resume(self, monkeypatch,
                                                  tmp_path):
        """(ii) ``every=3``: the pending segments are what survives."""
        preset = lambda: small_preset("fedbuff", "flaky", num_clients=8,
                                      num_rounds=8, clients_per_round=3)
        reference = run_method("fedlps", preset())
        original = ServerCore.run_local_updates

        def boom(self, round_index, selected, **kwargs):
            if round_index == 5:
                raise RuntimeError("mid-run crash")
            return original(self, round_index, selected, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(ServerCore, "run_local_updates", boom)
            with pytest.raises(RuntimeError, match="mid-run crash"):
                run_method("fedlps", preset(), checkpoint_dir=tmp_path,
                           checkpoint_every=3)
        manager = CheckpointManager(tmp_path)
        # the scheduled save after round 2, the emergency one after round 4
        assert [path.name for path in manager.checkpoint_paths()] \
            == ["checkpoint-000003.pkl", "checkpoint-000005.pkl"]
        # boundary 4 was captured but never saved: its segment was pending
        # when the crash came and is referenced by the emergency head
        assert "blobs-000004.bin" in read_head(
            manager.path_for(5)).segments
        resumed = run_method("fedlps", preset(), checkpoint_dir=tmp_path,
                             checkpoint_every=3, resume=True)
        assert history_json(resumed) == history_json(reference)

    def test_killed_between_segment_and_head(self, monkeypatch, tmp_path):
        """(iii) the orphan is ignored, overwritten, and never outlives a
        prune."""
        reference = run_method("fedlps", small_preset())
        real = checkpoint_module._write_atomically

        def dying(path, *chunks):
            if path.name == "checkpoint-000003.pkl":
                raise _Killed()
            real(path, *chunks)

        with monkeypatch.context() as patched:
            patched.setattr(checkpoint_module, "_write_atomically", dying)
            with pytest.raises(_Killed):
                run_method("fedlps", small_preset(), checkpoint_dir=tmp_path)
        assert "blobs-000003.bin" in segment_files(tmp_path)
        (tmp_path / "blobs-000003.bin").write_bytes(b"half-written orphan")
        (tmp_path / "blobs-000077.bin").write_bytes(b"stray orphan")
        manager = CheckpointManager(tmp_path)
        assert manager.latest().next_round == 2
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", small_preset(), checkpoint_dir=tmp_path,
                       resume=True, stop_after_round=2)
        # the retry of round 2 replaced the orphan under its own name and
        # the prune took the stray one
        assert "blobs-000003.bin" in read_head(manager.path_for(3)).segments
        assert load_checkpoint(manager.path_for(3)).next_round == 3
        assert "blobs-000077.bin" not in segment_files(tmp_path)
        resumed = run_method("fedlps", small_preset(),
                             checkpoint_dir=tmp_path, resume=True)
        assert history_json(resumed) == history_json(reference)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_keep_never_deletes_a_referenced_segment(self, keep, tmp_path,
                                                     monkeypatch,
                                                     at_every_boundary):
        """(iv) every kept head stays loadable; nothing else stays."""
        monkeypatch.setattr(checkpoint_module, "_KEEP_HEADS", keep)
        seen = []

        def check(manager, round_index, oracle):
            heads = manager.checkpoint_paths()
            assert len(heads) == min(keep, round_index + 1)
            referenced = set()
            for path in heads:
                load_checkpoint(path)
                referenced |= set(read_head(path).segments)
            assert set(segment_files(manager.directory)) == referenced
            seen.append(round_index)

        at_every_boundary(check)
        preset = lambda: small_preset("fedbuff", "flaky", num_rounds=12)
        run_interrupted_then_resumed("fedlps", preset, tmp_path,
                                     stop_after_round=5)
        assert seen == list(range(12))

    @pytest.mark.parametrize("aggregation", ["sync", "fedasync", "fedbuff"])
    def test_resume_from_another_directory_is_self_sufficient(
            self, aggregation, tmp_path):
        """(v) the first save after a foreign resume references nothing
        outside its own directory: it rewrote every live blob there."""
        preset = lambda: small_preset(aggregation, "flaky")
        reference = run_method("fedlps", preset())
        first, second = tmp_path / "first", tmp_path / "second"
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", preset(), checkpoint_dir=first,
                       stop_after_round=1)
        source = CheckpointManager(first).checkpoint_paths()[-1]

        def trainer():
            dataset, model_builder, config, fleet = build_experiment(
                preset())
            return FederatedTrainer(build_strategy("fedlps"), dataset,
                                    model_builder, config=config,
                                    fleet=fleet)

        with pytest.raises(TrainingInterrupted):
            trainer().run(checkpoint_dir=str(second),
                          resume_from=str(source), stop_after_round=2)
        shutil.rmtree(first)
        head = read_head(CheckpointManager(second).checkpoint_paths()[-1])
        assert set(head.segments) == {"blobs-000003.bin"}
        assert len(head.client_states) > 2  # more than round 2's cohort
        resumed = trainer().run(checkpoint_dir=str(second),
                                resume_from="auto")
        assert history_json(resumed) == history_json(reference)

    def test_garbage_stays_bounded(self, tmp_path, monkeypatch,
                                   at_every_boundary):
        """(vi) 6 clients re-touched for 40 rounds: segments on disk never
        exceed twice the live blobs, and compaction really ran."""
        monkeypatch.setattr(checkpoint_module, "_KEEP_HEADS", 1)
        written = []

        def check(manager, round_index, oracle):
            on_disk = sum(path.stat().st_size
                          for path in manager.directory.glob("blobs-*.bin"))
            assert 0 < manager.live_bytes <= on_disk \
                <= 2 * manager.live_bytes
            written.append(manager.last_bytes)

        at_every_boundary(check)
        run_method("fedlps", small_preset(num_rounds=40, local_iterations=1),
                   checkpoint_dir=tmp_path)
        assert len(written) == 40
        # amortized O(1): the rewrites are rare, and the run as a whole
        # wrote a small multiple of one-cohort-per-round
        cohort_bytes = sorted(written)[len(written) // 2]
        assert sum(size > 2 * cohort_bytes for size in written) <= 10
        assert sum(written) <= 3 * 40 * cohort_bytes
        assert len(segment_files(tmp_path)) < 10

    def test_segment_overwritten_by_another_run_is_refused(self, tmp_path,
                                                           monkeypatch):
        """(vii) another run killed between its first segment and head
        leaves its ``blobs-000001.bin`` under the old heads: refused."""
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", small_preset(), checkpoint_dir=tmp_path,
                       stop_after_round=1)
        real = checkpoint_module._write_atomically

        def dying(path, *chunks):
            if path.suffix == ".pkl":
                raise _Killed()
            real(path, *chunks)

        with monkeypatch.context() as patched:
            patched.setattr(checkpoint_module, "_write_atomically", dying)
            with pytest.raises(_Killed):
                run_method("fedlps", small_preset(seed=6),
                           checkpoint_dir=tmp_path)
        # the newest head is still the first run's checkpoint-000002
        with pytest.raises(CheckpointError, match="blobs-000001.bin"):
            CheckpointManager(tmp_path).latest()
        with pytest.raises(CheckpointError, match="another run"):
            run_method("fedlps", small_preset(), checkpoint_dir=tmp_path,
                       resume=True)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_rerun_without_resume_in_a_used_directory(self, keep, tmp_path,
                                                      monkeypatch,
                                                      at_every_boundary):
        """A finished run's heads are a future the rerun rewrites: they go
        at its first save, its own newest heads stay loadable through
        every compaction, and it can be interrupted and resumed."""
        monkeypatch.setattr(checkpoint_module, "_KEEP_HEADS", keep)
        preset = lambda **extra: small_preset(
            num_clients=10, num_rounds=16, clients_per_round=3,
            local_iterations=1, **extra)
        run_method("fedlps", preset(), checkpoint_dir=tmp_path)
        stale = {path.name: path.read_bytes()
                 for path in CheckpointManager(tmp_path).checkpoint_paths()}
        assert "checkpoint-000016.pkl" in stale
        reference = run_method("fedlps", preset(seed=6))
        compactions = []

        class CompactionSpy(checkpoint_module.BlobTable):
            reads = 0

            def stage(self, *args):
                self.reads = 0
                super().stage(*args)
                if self.reads:  # only a compaction reads blobs back
                    compactions.append(self.directory)

            def read(self, key):
                self.reads += 1
                return super().read(key)

        monkeypatch.setattr(checkpoint_module, "BlobTable", CompactionSpy)

        def check(manager, round_index, oracle):
            heads = manager.checkpoint_paths()
            assert [path.name for path in heads] == [
                manager.path_for(next_round).name
                for next_round in range(1, round_index + 2)][-keep:]
            assert capsule_parts(load_checkpoint(heads[-1])) \
                == capsule_parts(oracle)

        at_every_boundary(check)
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", preset(seed=6), checkpoint_dir=tmp_path,
                       stop_after_round=11)
        # the rerun read its own segments back from disk, and will again
        assert len(compactions) == 1
        rerun = run_method("fedlps", preset(seed=6), checkpoint_dir=tmp_path,
                           resume=True)
        assert history_json(rerun) == history_json(reference)
        assert len(compactions) == 2
        manager = CheckpointManager(tmp_path)
        assert manager.latest().next_round == 16
        assert all(path.read_bytes() != stale.get(path.name)
                   for path in manager.checkpoint_paths())

    def test_missing_segment_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", small_preset(), checkpoint_dir=tmp_path,
                       stop_after_round=0)
        (tmp_path / "blobs-000001.bin").unlink()
        with pytest.raises(CheckpointError, match="is missing"):
            CheckpointManager(tmp_path).latest()


class TestCostTracksTheCohort:
    """A save writes the round's cohort: never the fleet, never the run so
    far.  FedLPS (the registry's heaviest per-client state) on a lazy fleet,
    one head kept, a save every round."""

    ROUNDS = 6
    COHORT = 32
    #: slack of every byte clause; the fleet comparison may instead exceed
    #: the small fleet by the absolute allowance, whichever is larger
    GATE_BYTES_FACTOR = 2
    GATE_BYTES_SLACK = 1_000_000

    @pytest.fixture
    def save_sizes(self, monkeypatch):
        """``(last_bytes, live_bytes)`` of the manager after every save."""
        monkeypatch.setattr(checkpoint_module, "_KEEP_HEADS", 1)
        sizes = []
        real = CheckpointManager.save

        def save(manager, checkpoint):
            path = real(manager, checkpoint)
            sizes.append((manager.last_bytes, manager.live_bytes))
            return path

        monkeypatch.setattr(CheckpointManager, "save", save)
        return sizes

    def run_fleet(self, num_clients, directory, save_sizes):
        save_sizes.clear()
        preset = scaled(preset_for("mnist"), num_clients=num_clients,
                        examples_per_client=16, num_rounds=self.ROUNDS,
                        clients_per_round=self.COHORT, local_iterations=1,
                        eval_clients=0, seed=7)
        run_method("fedlps", preset, checkpoint_dir=directory)
        assert len(save_sizes) == self.ROUNDS
        return {
            "first_save_bytes": save_sizes[0][0],
            "last_save_bytes": save_sizes[-1][0],
            "live_blob_bytes": save_sizes[-1][1],
            "directory_bytes": sum(path.stat().st_size
                                   for path in directory.iterdir()),
            "client_states": len(
                CheckpointManager(directory).latest().client_states),
        }

    def test_bytes_track_cohort_not_fleet_nor_rounds(self, tmp_path,
                                                     save_sizes):
        small = self.run_fleet(40, tmp_path / "small", save_sizes)
        large = self.run_fleet(4_000, tmp_path / "large", save_sizes)
        # a 100x fleet with the same cohort writes no more per save
        assert large["last_save_bytes"] <= max(
            self.GATE_BYTES_FACTOR * small["last_save_bytes"],
            small["last_save_bytes"] + self.GATE_BYTES_SLACK)
        for cell in (small, large):
            # flat in the round index (the full-copy layout's sixth save
            # rewrote all six cohorts) — the first save is one cohort
            assert cell["last_save_bytes"] \
                <= self.GATE_BYTES_FACTOR * cell["first_save_bytes"]
            # bounded garbage: superseded blobs are compacted away
            assert cell["directory_bytes"] \
                <= self.GATE_BYTES_FACTOR * cell["live_blob_bytes"] \
                + cell["first_save_bytes"]
            # states track participation, never the fleet
            assert cell["client_states"] <= self.ROUNDS * self.COHORT
        # many cohorts' states are live, one cohort's worth was written
        assert large["live_blob_bytes"] > 4 * large["last_save_bytes"]


class TestCorruption:
    """Corrupt input fails as ``CheckpointError`` — or does not fail."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", small_preset("fedbuff", "flaky"),
                       checkpoint_dir=directory, stop_after_round=2)
        return directory

    @staticmethod
    def _fuzz(victim, reload, trials, seed):
        pristine = victim.read_bytes()
        expected = pickle.dumps(reload())
        rng = np.random.default_rng(seed)
        outcomes = {"refused": 0, "identical": 0}
        try:
            for _ in range(trials):
                position = int(rng.integers(min(4096, len(pristine))))
                mutated = bytearray(pristine)
                mutated[position] = int(rng.integers(256))
                victim.write_bytes(mutated)
                try:
                    loaded = reload()
                except CheckpointError:
                    outcomes["refused"] += 1
                else:
                    # any other exception type fails the test right here
                    assert pickle.dumps(loaded) == expected
                    assert bytes(mutated) == pristine
                    outcomes["identical"] += 1
        finally:
            victim.write_bytes(pristine)
        return outcomes

    def test_byte_flips_in_a_head(self, directory):
        head = CheckpointManager(directory).checkpoint_paths()[-1]
        outcomes = self._fuzz(head, lambda: load_checkpoint(head),
                              trials=300, seed=0)
        assert outcomes["refused"] >= 290

    def test_byte_flips_in_a_segment(self, directory):
        head = CheckpointManager(directory).checkpoint_paths()[-1]
        segment = directory / sorted(read_head(head).segments)[0]
        outcomes = self._fuzz(segment, lambda: load_checkpoint(head),
                              trials=100, seed=2)
        assert outcomes["refused"] >= 95

    def test_version_2_file_is_refused_by_version(self, tmp_path):
        # what the previous format wrote: one bare pickle, no header
        legacy = tmp_path / "checkpoint-000001.pkl"
        legacy.write_bytes(pickle.dumps(RunCheckpoint(
            version=2, digest="d", next_round=1, method="m", dataset="d",
            records=[], strategy_attrs={}, rng={}, client_states={})))
        with pytest.raises(CheckpointError, match="version 2 or older"):
            load_checkpoint(legacy)

    def test_unloadable_payload_is_a_checkpoint_error(self, tmp_path):
        # verified bytes that name a class this code does not have
        payload = pickle.dumps(RunCheckpoint).replace(b"RunCheckpoint",
                                                      b"RunCheckpoinX")
        path = tmp_path / "checkpoint-000001.pkl"
        path.write_bytes(checkpoint_module._frame(payload) + payload)
        with pytest.raises(CheckpointError, match="AttributeError"):
            load_checkpoint(path)
