"""The client fleet: O(cohort) materialization.

Contracts under test:

* **Equivalence** — for every registered partitioner and any fleet size,
  the virtual dataset and virtual device fleet produce shards, device
  profiles and histories element-identical to the eager builders, which
  stay as the reference (hypothesis property tests plus directed cases).
* **O(cohort)** — a training run materializes shards, clients and state
  entries only for clients that were dispatched or evaluated; untouched
  clients are never built (counting hooks), whether the federation is
  virtual or hand-built; a 100k-client federation reaches its first
  dispatch within 1 s and 100 MB traced.
* **No config mutation** — scenario over-selection reaches the strategy as
  an explicit ``count`` argument; ``config.clients_per_round`` is never
  observed widened (regression for the old patch/restore hack).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import pickle
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_data import run_method_eager_data, sample_device_fleet
from repro import checkpoint as checkpoint_module
from repro.baselines import build_strategy
from repro.data import LazyShardMap, build_federated_dataset
from repro.data.partition import VirtualFederatedDataset
from repro.experiments import preset_for, run_method, scaled
from repro.experiments.presets import build_experiment
from repro.federated import FederatedConfig, FederatedTrainer, FleetConfig
from repro.checkpoint import (BlobTable, CheckpointManager,
                              TrainingInterrupted)
from repro.federated.fleet import _SPILLED, ClientFleet, FleetStateStore
from repro.federated.strategy import Strategy
from repro.models import build_model_for_dataset
from repro.parallel import ProcessPoolExecutor, ThreadPoolExecutor
from repro.server.clock import SpilledEvent
from repro.server.core import ServerCore
from repro.systems.devices import (CAPABILITY_LEVELS, HETEROGENEITY_PRESETS,
                                   VirtualDeviceFleet, sample_device_profile)

#: every partitioner registered with ``build_federated_dataset``
PARTITIONERS = ("pathological", "dirichlet", "iid")


def assert_same_shards(eager, lazy, client_ids):
    for cid in client_ids:
        a, b = eager.client(cid), lazy.client(cid)
        np.testing.assert_array_equal(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.train.y, b.train.y)
        np.testing.assert_array_equal(a.test.x, b.test.x)
        np.testing.assert_array_equal(a.test.y, b.test.y)


class TestShardEquivalence:
    @given(num_clients=st.integers(min_value=2, max_value=12),
           examples=st.integers(min_value=8, max_value=24),
           seed=st.integers(min_value=0, max_value=500),
           partition=st.sampled_from(PARTITIONERS))
    @settings(max_examples=25, deadline=None)
    def test_lazy_shards_match_eager_for_every_partitioner(
            self, num_clients, examples, seed, partition):
        kwargs = dict(partition=partition, examples_per_client=examples,
                      seed=seed)
        eager = build_federated_dataset("mnist", num_clients, **kwargs)
        lazy = build_federated_dataset("mnist", num_clients, lazy=True,
                                       **kwargs)
        assert isinstance(lazy, VirtualFederatedDataset)
        assert lazy.num_classes == eager.num_classes
        assert tuple(lazy.input_shape) == tuple(eager.input_shape)
        assert list(lazy.client_ids) == list(eager.client_ids)
        assert_same_shards(eager, lazy, eager.client_ids)

    @given(num_clients=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_lazy_reddit_matches_eager(self, num_clients, seed):
        eager = build_federated_dataset("reddit", num_clients,
                                        examples_per_client=24, seed=seed)
        lazy = build_federated_dataset("reddit", num_clients,
                                       examples_per_client=24, seed=seed,
                                       lazy=True)
        assert_same_shards(eager, lazy, eager.client_ids)

    def test_materialization_order_does_not_matter(self):
        lazy = build_federated_dataset("mnist", 8, examples_per_client=12,
                                       seed=3, lazy=True)
        backwards = {cid: lazy.client(cid) for cid in reversed(range(8))}
        eager = build_federated_dataset("mnist", 8, examples_per_client=12,
                                        seed=3)
        for cid in range(8):
            np.testing.assert_array_equal(eager.client(cid).train.x,
                                          backwards[cid].train.x)

    def test_lru_bound_holds_and_rebuilds_identically(self):
        lazy = build_federated_dataset("mnist", 10, examples_per_client=12,
                                       seed=5, lazy=True, shard_cache=2)
        first = lazy.client(0).train.x.copy()
        for cid in range(10):  # evict client 0
            lazy.client(cid)
        assert len(lazy.shard_map._cache) <= 2
        np.testing.assert_array_equal(lazy.client(0).train.x, first)


class TestDeviceEquivalence:
    @pytest.mark.parametrize("level", sorted(HETEROGENEITY_PRESETS))
    @pytest.mark.parametrize("seed", [0, 7, 11, 123])
    def test_lazy_profiles_match_eager_sampling(self, level, seed):
        levels = HETEROGENEITY_PRESETS[level]
        eager = sample_device_fleet(200, levels=levels, seed=seed)
        lazy = VirtualDeviceFleet(200, levels=levels, seed=seed)
        for cid in range(200):
            assert lazy[cid].capability == eager[cid].capability
            assert lazy[cid].bandwidth_scale == eager[cid].bandwidth_scale

    @given(client_id=st.integers(min_value=0, max_value=3000),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_profile_is_pure_in_seed_and_client(self, client_id, seed):
        a = sample_device_profile(client_id, levels=CAPABILITY_LEVELS,
                                  seed=seed)
        b = sample_device_profile(client_id, levels=CAPABILITY_LEVELS,
                                  seed=seed)
        assert (a.capability, a.bandwidth_scale) == (b.capability,
                                                     b.bandwidth_scale)

    def test_virtual_fleet_pickles_without_memo(self):
        import pickle

        fleet = VirtualDeviceFleet(1_000_000, seed=3)
        fleet[123_456]  # populate the memo
        wire = pickle.dumps(fleet, pickle.HIGHEST_PROTOCOL)
        assert len(wire) < 1024
        clone = pickle.loads(wire)
        assert clone[123_456].capability == fleet[123_456].capability


class TestHistoryEquivalence:
    @pytest.mark.parametrize("method", ["fedavg", "fedlps", "fedmp", "refl"])
    def test_lazy_and_eager_histories_are_bit_identical(self, method):
        overrides = dict(num_clients=6, num_rounds=2, clients_per_round=2,
                         examples_per_client=20, local_iterations=2,
                         batch_size=8, seed=5)
        preset = scaled(preset_for("mnist"), **overrides)
        lazy = run_method(method, preset)
        eager = run_method_eager_data(method, preset)
        assert lazy.to_dict() == eager.to_dict()

    def test_lazy_and_eager_agree_under_over_selection_scenario(self):
        overrides = dict(num_clients=6, num_rounds=2, clients_per_round=2,
                         examples_per_client=20, local_iterations=2,
                         batch_size=8, seed=5, scenario="deadline-tight")
        preset = scaled(preset_for("mnist"), **overrides)
        lazy = run_method("fedlps", preset)
        eager = run_method_eager_data("fedlps", preset)
        assert lazy.to_dict() == eager.to_dict()


class TestOCohortMaterialization:
    def test_untouched_clients_are_never_built(self):
        preset = scaled(preset_for("mnist"), num_clients=40, num_rounds=3,
                        clients_per_round=3, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=9,
                        eval_clients=0)
        dataset, model_builder, config, fleet = build_experiment(preset)
        trainer = FederatedTrainer(build_strategy("fedlps"), dataset,
                                   model_builder, config=config, fleet=fleet)
        history = trainer.run()
        dispatched = set()
        for record in history.records:
            dispatched.update(record.selected_clients)
        built = dataset.shard_map.materialized_ids
        # the counting hook: only dispatched clients were ever materialized
        assert built == dispatched
        assert dataset.shard_map.materializations <= len(dispatched)
        # and the sparse store holds exactly the participants
        participants = dispatched - {
            cid for record in history.records for cid in record.dropped}
        store_ids = set(trainer.clients.state_store.snapshot())
        assert participants <= store_ids <= dispatched

    def test_evaluation_sweep_does_not_grow_state_store(self):
        preset = scaled(preset_for("mnist"), num_clients=20, num_rounds=2,
                        clients_per_round=2, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=9)
        dataset, model_builder, config, fleet = build_experiment(preset)
        trainer = FederatedTrainer(build_strategy("fedlps"), dataset,
                                   model_builder, config=config, fleet=fleet)
        history = trainer.run()
        dispatched = set()
        for record in history.records:
            dispatched.update(record.selected_clients)
        # every client was evaluated (eval_clients=None) and therefore
        # materialized — but only participants entered the store
        assert dataset.shard_map.materialized_ids == set(range(20))
        assert set(trainer.clients.state_store.snapshot()) <= dispatched

    def test_broadcast_runs_materialize_nothing_server_side(self):
        """With the broadcast transport, shard builds are fully worker-side.

        Both dispatch and evaluation payloads carry stored state (or None
        for first-time clients, which workers initialize themselves), so
        the server's own shard map never builds a single shard — even with
        a full evaluation sweep every round.  (Strategies whose post_round
        touches ``context.clients`` still materialize their participants
        server-side; fedavg's does not.)
        """
        preset = scaled(preset_for("mnist"), num_clients=20, num_rounds=2,
                        clients_per_round=2, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=9)
        dataset, model_builder, config, fleet = build_experiment(preset)
        with ThreadPoolExecutor(2) as executor:
            trainer = FederatedTrainer(build_strategy("fedavg"), dataset,
                                       model_builder, config=config,
                                       fleet=fleet, executor=executor)
            trainer.run()
        assert dataset.shard_map.materialized_ids == set()

    def test_eval_subset_is_deterministic_and_capped(self):
        preset = scaled(preset_for("mnist"), num_clients=30, num_rounds=1,
                        clients_per_round=2, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=4,
                        eval_clients=5)
        dataset, model_builder, config, fleet = build_experiment(preset)
        trainer = FederatedTrainer(build_strategy("fedavg"), dataset,
                                   model_builder, config=config, fleet=fleet)
        first = trainer.evaluation_client_ids()
        assert len(first) == 5
        assert trainer.evaluation_client_ids() == first
        # a fresh identically-configured core draws the same subset
        dataset2, mb2, config2, fleet2 = build_experiment(preset)
        other = FederatedTrainer(build_strategy("fedavg"), dataset2, mb2,
                                 config=config2, fleet=fleet2)
        assert other.evaluation_client_ids() == first


class TestHundredThousandClientBudget:
    """Standing up a federation costs the cohort, not the fleet.

    Everything a run pays before its first local update — dataset, device
    fleet, server core, strategy setup, round-0 selection and the first
    cohort's shards — fits a fixed budget at 100k clients, where
    materializing every client's shard would be O(GB).
    """

    FLEET = 100_000
    COHORT = 32
    #: the contract's budget to first dispatch
    GATE_SECONDS = 1.0
    GATE_MEGABYTES = 100.0

    def test_first_dispatch_within_budget(self):
        preset = scaled(preset_for("mnist"), num_clients=self.FLEET,
                        examples_per_client=16, num_rounds=2,
                        clients_per_round=self.COHORT, local_iterations=1,
                        eval_clients=self.COHORT, seed=7)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            dataset, model_builder, config, fleet = build_experiment(preset)
            trainer = FederatedTrainer(build_strategy("fedavg"), dataset,
                                       model_builder, config=config,
                                       fleet=fleet)
            trainer.strategy.setup(trainer.context)
            selected = trainer.select_clients(0)
            cohort = [trainer.clients[cid] for cid in selected]
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cohort) == self.COHORT
        assert seconds <= self.GATE_SECONDS
        assert peak / 2**20 <= self.GATE_MEGABYTES
        assert dataset.shard_map.materializations <= len(selected)
        assert len(trainer.clients.state_store) <= len(selected)


class _SelectionProbe(Strategy):
    """Records what ``clients_per_round`` looks like during selection."""

    name = "selection-probe"

    def __init__(self) -> None:
        super().__init__()
        self.observed_config_values = []
        self.observed_counts = []

    def select_clients(self, round_index, count=None):
        self.observed_config_values.append(
            self.context.config.clients_per_round)
        self.observed_counts.append(count)
        return super().select_clients(round_index, count)


class TestSelectionConfigIsNeverMutated:
    def test_over_selection_passes_count_without_touching_config(self):
        preset = scaled(preset_for("mnist"), num_clients=8, num_rounds=2,
                        clients_per_round=2, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=2,
                        scenario="flaky")  # over_selection=1.5
        dataset, model_builder, config, fleet = build_experiment(preset)
        probe = _SelectionProbe()
        trainer = FederatedTrainer(probe, dataset, model_builder,
                                   config=config, fleet=fleet)
        trainer.run()
        # the strategy saw the widened budget explicitly...
        assert probe.observed_counts and all(count == 3 for count
                                             in probe.observed_counts)
        # ...and never observed the shared config mutated
        assert all(value == 2 for value in probe.observed_config_values)
        assert config.clients_per_round == 2

    def test_no_scenario_passes_no_count(self):
        preset = scaled(preset_for("mnist"), num_clients=6, num_rounds=1,
                        clients_per_round=2, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=2)
        dataset, model_builder, config, fleet = build_experiment(preset)
        probe = _SelectionProbe()
        FederatedTrainer(probe, dataset, model_builder, config=config,
                         fleet=fleet).run()
        assert all(count is None for count in probe.observed_counts)


class TestFleetView:
    def test_state_survives_a_rebuilt_client(self):
        """Every access builds a new ``Client``; the state is the store's."""
        dataset = build_federated_dataset("mnist", 6, examples_per_client=12,
                                          seed=1, lazy=True)
        fleet = ClientFleet(dataset, VirtualDeviceFleet(6, seed=1))
        fleet.bind_state_initializer(
            lambda client: client.state.setdefault("marker",
                                                   client.client_id * 10))
        first = fleet[3]
        assert first.state["marker"] == 30
        first.state["marker"] = 99
        dataset.shard_map.clear()  # the shard is rebuilt too
        rebuilt = fleet[3]
        assert rebuilt is not first
        assert rebuilt.state is first.state
        assert rebuilt.state["marker"] == 99
        assert fleet.observer(3).state["marker"] == 99

    def test_observer_state_is_transient_until_participation(self):
        dataset = build_federated_dataset("mnist", 6, examples_per_client=12,
                                          seed=1, lazy=True)
        fleet = ClientFleet(dataset, VirtualDeviceFleet(6, seed=1))
        fleet.bind_state_initializer(
            lambda client: client.state.setdefault("marker", 1))
        assert fleet.observer(2).state["marker"] == 1
        assert len(fleet.state_store) == 0
        fleet.client(2)
        assert list(fleet.state_store.snapshot()) == [2]

    def test_dirty_set_tracks_participant_access_only(self):
        """What the checkpoint layer rewrites: every way a state can be
        written marks its id, no way of reading it does."""
        dataset = build_federated_dataset("mnist", 6, examples_per_client=12,
                                          seed=1, lazy=True)
        fleet = ClientFleet(dataset, VirtualDeviceFleet(6, seed=1))
        fleet.bind_state_initializer(
            lambda client: client.state.setdefault("marker", 1))
        store = fleet.state_store
        fleet.observer(1)
        assert fleet.peek_state(1) is None
        assert fleet.participant_state(1) is None
        assert store.take_dirty() == set()
        fleet.client(2)
        assert store.take_dirty() == {2}
        assert store.take_dirty() == set()  # taking starts the set over
        # repeat access hands out the same dict for in-place training
        fleet[2].state["marker"] = 5
        assert store.take_dirty() == {2}
        fleet.observer(2), fleet.peek_state(2), list(fleet.values())
        assert store.take_dirty() == set()
        fleet.participant_state(2)["marker"] = 6
        assert store.take_dirty() == {2}
        fleet.update_state(4, {"marker": 7})
        assert store.take_dirty() == {4}
        fleet.client(3)
        fleet.bind_state_initializer(None)  # a fresh run starts clean
        assert store.take_dirty() == set()

    @pytest.mark.parametrize("method", ["fedlps", "efd", "ditto", "fedrep"])
    def test_rebinding_starts_from_fresh_states(self, method):
        """A second setup() must not leak the previous run's client state.

        Re-binding must not hand run-1's state dicts back out —
        initializers only overwrite their own keys, so a reused dict leaks
        keys like ``personal_params`` or ``pattern`` that only local updates
        write (efd/ditto/fedrep expose this; fedlps's initializer happens to
        reset everything it reads).  After a run, a second setup must hand
        run-1's participants the state keys a never-run trainer hands them
        (and the training fan-out, which reads ``peek_state``, no state).
        """
        preset = scaled(preset_for("mnist"), num_clients=8, num_rounds=2,
                        clients_per_round=2, examples_per_client=16,
                        local_iterations=1, batch_size=8, seed=5)

        def trainer():
            dataset, mb, config, fleet = build_experiment(preset)
            return FederatedTrainer(build_strategy(method), dataset, mb,
                                    config=config, fleet=fleet)

        reused, fresh = trainer(), trainer()
        history = reused.run()
        for each in (reused, fresh):
            each.strategy.setup(each.context)
        assert len(reused.clients.state_store) == 0
        for record in history.records:
            for cid in record.selected_clients:
                assert (set(reused.clients[cid].state)
                        == set(fresh.clients[cid].state))

    def test_hand_built_eager_federation_gets_the_sparse_store(self):
        """Eager dataset + sampled devices go through the one fleet view."""
        dataset = build_federated_dataset("mnist", 8, examples_per_client=16,
                                          seed=1)
        config = FederatedConfig(num_rounds=2, clients_per_round=2,
                                 local_iterations=1, batch_size=8, seed=1)
        core = ServerCore(build_strategy("fedlps"), dataset,
                          lambda: build_model_for_dataset("mnist", seed=1),
                          config=config, fleet=sample_device_fleet(8, seed=1))
        assert sorted(core.clients) == list(range(8))
        history = core.run()
        dispatched = {cid for record in history.records
                      for cid in record.selected_clients}
        # the full evaluation sweep touched all 8 clients every round, yet
        # only participants hold state
        store = core.clients.state_store
        assert set(store.snapshot()) <= dispatched
        assert 0 < len(store) and len(dispatched) < 8
        untouched = next(cid for cid in range(8) if cid not in dispatched)
        assert core.clients.observer(untouched).state["ratio"] > 0
        assert core.clients.peek_state(untouched) is None
        assert untouched not in store
        with pytest.raises(KeyError):
            core.clients[9]

    def test_fleet_size_mismatch_raises(self):
        dataset = build_federated_dataset("mnist", 4, examples_per_client=12,
                                          seed=1)
        with pytest.raises(ValueError):
            ClientFleet(dataset, sample_device_fleet(5, seed=1))


class TestCloseReleasesCaches:
    @pytest.mark.parametrize("method", ["fedavg", "fedlps"])
    def test_a_finished_run_holds_no_shard(self, method):
        dataset, model_builder, config, fleet = build_experiment(
            scaled(preset_for("mnist"), num_clients=8, num_rounds=2,
                   clients_per_round=3, local_iterations=1))
        trainer = FederatedTrainer(build_strategy(method), dataset,
                                   model_builder, config=config, fleet=fleet)
        shard_map = dataset.shard_map
        built, builder = [], shard_map._builder

        def recording_builder(client_id):
            shard = builder(client_id)
            built.append(weakref.ref(shard))
            return shard

        shard_map._builder = recording_builder
        history = trainer.run()
        assert len(shard_map._cache) == 0
        # no Client outlived its chunk to pin a shard past the cache: every
        # shard the run built is garbage once the run is over
        gc.collect()
        assert built and all(shard() is None for shard in built)
        # the shards rebuild on demand; the state store stayed
        assert (trainer.evaluate_personalized()
                == history.records[-1].test_accuracy)


@pytest.fixture
def shard_maps(monkeypatch):
    """Every ``LazyShardMap`` a run builds (server and worker sessions),
    and the cached ids of each, snapshot when the server core closes."""
    built, snapshots = [], []
    real_init, real_close = LazyShardMap.__init__, ServerCore.close

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    def close(core):
        snapshots.append([{cid for cid in range(shard_map.num_clients)
                           if cid in shard_map._cache}
                          for shard_map in built])
        real_close(core)

    monkeypatch.setattr(LazyShardMap, "__init__", init)
    monkeypatch.setattr(ServerCore, "close", close)
    return built, snapshots


def _history_digest(history) -> str:
    canonical = json.dumps(history.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _run_fedlps(preset, workers, fleet_config=None):
    dataset, model_builder, config, fleet = build_experiment(preset)
    if fleet_config is not None:
        config.fleet = fleet_config
    with (ThreadPoolExecutor(workers) if workers
          else contextlib.nullcontext()) as executor:
        trainer = FederatedTrainer(build_strategy("fedlps"), dataset,
                                   model_builder, config=config, fleet=fleet,
                                   executor=executor)
        return trainer.run(), trainer


class TestTrainingShardsAreNotPinned:
    """In a fleet larger than ``shard_cache`` a training chunk's shards live
    as long as the chunk: the LRU keeps what the evaluation sweep reads."""

    #: 40 clients, a cache of 8, a sweep capped at 5: 24 dispatches
    CAPPED = scaled(preset_for("mnist"), num_clients=40, num_rounds=4,
                    clients_per_round=6, examples_per_client=16,
                    local_iterations=1, batch_size=8, seed=11,
                    eval_clients=5)
    #: recorded on the code that pinned every training shard
    CAPPED_DIGEST = ("57b9871760e04dbdde90bab2d075274b"
                     "fbaf43b9bb0b903c1e0e287ef8993e52")

    @pytest.mark.parametrize("workers", [0, 2], ids=["inline", "thread2"])
    def test_the_lru_holds_only_swept_clients(self, shard_maps, workers):
        _, snapshots = shard_maps
        history, trainer = _run_fedlps(
            self.CAPPED, workers, FleetConfig(shard_cache=8, eval_clients=5))
        assert _history_digest(history) == self.CAPPED_DIGEST
        swept = set(trainer.evaluation_client_ids())
        trained = {cid for record in history.records
                   for cid in record.selected_clients}
        assert trained - swept  # training read shards the sweep never does
        (cached,) = snapshots
        assert all(ids <= swept for ids in cached)
        # the sweep's shards stayed pinned where the sweep ran them (on a
        # pool, whichever worker took each chunk)
        assert set().union(*cached) == swept

    #: the mnist preset's 16 clients fit the default cache of 256
    FITS = scaled(preset_for("mnist"), num_rounds=3, local_iterations=2)
    FITS_DIGEST = ("aff33dab3e05ec4351ed6e852e9f2bbc"
                   "2127344899e0ff2c23dcb72e0ee8ee4e")

    @pytest.mark.parametrize("workers", [0, 2], ids=["inline", "thread2"])
    def test_a_fleet_that_fits_builds_each_shard_once(self, shard_maps,
                                                      workers):
        built, _ = shard_maps
        history, _ = _run_fedlps(self.FITS, workers)
        assert _history_digest(history) == self.FITS_DIGEST
        for shard_map in built:
            assert shard_map.materializations \
                == len(shard_map.materialized_ids)
        if not workers:
            # recorded on the code that pinned every training shard
            assert [shard_map.materializations for shard_map in built] \
                == [16]

    def test_a_transient_read_pins_only_what_fits(self):
        lazy = build_federated_dataset("mnist", 10, examples_per_client=12,
                                       seed=5, lazy=True, shard_cache=2)
        shard_map = lazy.shard_map
        shard = shard_map.transient(3)
        assert 3 not in shard_map._cache and shard_map.materializations == 1
        assert shard_map.transient(3) is not shard
        np.testing.assert_array_equal(shard_map.transient(3).train.x,
                                      shard.train.x)
        pinned = lazy.client(3)
        assert 3 in shard_map._cache
        assert shard_map.transient(3) is pinned  # a hit is a hit
        shard_map.resize(10)
        shard_map.transient(4)
        assert 4 in shard_map._cache  # the whole fleet fits now


def _resident_events(queue) -> list:
    """The queue's resident events in pop order — spilled ones left out."""
    return [entry for entry in queue.snapshot()
            if not isinstance(entry, SpilledEvent)]


def _resident(store) -> dict:
    """The store's resident ``{client_id: state}`` — spilled ones left out."""
    return {cid: state for cid, state in store._states.items()
            if state is not _SPILLED}


class TestStoreSpill:
    """``FleetStateStore``'s spill mechanics, with a stand-in loader."""

    def _store(self, ids):
        store = FleetStateStore()
        for cid in ids:
            store.adopt(cid, {"v": cid})
        return store

    def test_spill_keeps_the_working_set_and_reads_back_on_use(self):
        store = self._store(range(6))
        store.take_dirty()
        store.adopt(1, {"v": 10})
        store.take_dirty()  # boundary: {1} is the working set
        loads = []

        def loader(cid):
            loads.append(cid)
            return {"v": cid, "loaded": True}

        store.spill(loader)
        assert sorted(_resident(store)) == [1]
        assert len(store) == 6 and 3 in store
        assert store.ids() == list(range(6))
        assert store.get(3) == {"v": 3, "loaded": True}
        assert store.get(3) is store.get(3)  # resident until the next spill
        assert store.touch(5)["loaded"] and loads == [3, 5]
        assert store.take_dirty() == {5}

    def test_a_spill_visits_only_what_became_resident_since_the_last(self):
        store = self._store(range(50))
        store.take_dirty()
        store.take_dirty()  # a boundary that wrote nothing
        store.spill(lambda cid: {"v": cid})
        assert _resident(store) == {} and store._resident == set()
        store.get(7)
        store.adopt(60, {"v": 60})
        assert store._resident == {7, 60}  # what the next spill visits
        store.take_dirty()  # {60}: kept, and visited again next time
        store.spill(lambda cid: {"v": cid})
        assert sorted(_resident(store)) == [60] and store._resident == {60}
        store.take_dirty()
        store.spill(lambda cid: {"v": cid})
        assert _resident(store) == {} and len(store) == 51

    def test_unspill_and_adopt_spilled(self):
        store = FleetStateStore()
        store.adopt_spilled([2, 3], lambda cid: {"v": cid})
        assert len(store) == 2 and _resident(store) == {}
        assert store.take_dirty() == set()
        store.unspill()
        assert _resident(store) == {2: {"v": 2}, 3: {"v": 3}}
        assert store.snapshot() == {2: {"v": 2}, 3: {"v": 3}}


class TestSpilledStates:
    """A checkpointed fleet keeps only its working set of client states
    resident, and none of its queued events, whatever its size against
    ``fleet.shard_cache``: a clean state or a queued event lives in its
    verified segment and is read back when the run next reads the state or
    pops the event."""

    ROUNDS = 6

    def _trainer(self, aggregation, executor=None, shard_cache=8):
        preset = scaled(preset_for("mnist"), num_clients=40,
                        num_rounds=self.ROUNDS, clients_per_round=6,
                        examples_per_client=16, local_iterations=1,
                        batch_size=8, seed=3, scenario="flaky",
                        aggregation=aggregation)
        dataset, model_builder, config, fleet = build_experiment(preset)
        config.fleet = FleetConfig(shard_cache=shard_cache)
        return FederatedTrainer(build_strategy("fedlps"), dataset,
                                model_builder, config=config, fleet=fleet,
                                executor=executor)

    @pytest.fixture(scope="class")
    def references(self):
        return {aggregation: _history_digest(self._trainer(aggregation).run())
                for aggregation in ("sync", "fedasync", "fedbuff")}

    @pytest.mark.parametrize("backend,every", [
        pytest.param(backend, every,
                     id=backend if every == 1 else f"{backend}-every{every}")
        for every in (1, 2) for backend in ("inline", "thread", "process")])
    @pytest.mark.parametrize("aggregation", ["sync", "fedasync", "fedbuff"])
    def test_spilled_and_resumed_histories_equal_the_plain_run(
            self, aggregation, backend, every, references, tmp_path,
            monkeypatch):
        loads = []
        real_load = BlobTable.load

        def load(table, key):
            loads.append(key)
            return real_load(table, key)

        monkeypatch.setattr(BlobTable, "load", load)
        real_after_round = CheckpointManager.after_round

        def after_round(manager, core, scheduler, history, round_index):
            try:
                real_after_round(manager, core, scheduler, history,
                                 round_index)
            finally:
                # every reference the table keeps carries a digest to
                # verify
                assert all(re.fullmatch(r"[0-9a-f]{64}", ref.sha256)
                           for ref in manager._table.refs.values())

        monkeypatch.setattr(CheckpointManager, "after_round", after_round)
        pool = {"inline": contextlib.nullcontext,
                "thread": lambda: ThreadPoolExecutor(2),
                "process": lambda: ProcessPoolExecutor(2)}[backend]
        with pool() as executor:
            whole = self._trainer(aggregation, executor)
            spilled = whole.run(checkpoint_dir=tmp_path / "whole",
                                checkpoint_every=every)
            store = whole.clients.state_store
            # the run spilled, and read spilled states back — and popped
            # spilled events through the table
            assert len(_resident(store)) < len(store)
            assert any(isinstance(key, int) for key in loads)
            assert any(isinstance(key, tuple) for key in loads) \
                == (aggregation != "sync")
            with pytest.raises(TrainingInterrupted):
                self._trainer(aggregation, executor).run(
                    checkpoint_dir=tmp_path / "resumed", stop_after_round=2,
                    checkpoint_every=every)
            resumed = self._trainer(aggregation, executor).run(
                checkpoint_dir=tmp_path / "resumed", resume_from="auto",
                checkpoint_every=every)
        assert _history_digest(spilled) == references[aggregation]
        assert _history_digest(resumed) == references[aggregation]

    @pytest.mark.parametrize("every,shard_cache", [
        pytest.param(1, 8, id="1"), pytest.param(2, 8, id="2"),
        # a fleet that fits the cache spills the same way
        pytest.param(1, 40, id="fits-the-cache")])
    def test_after_a_save_only_the_boundarys_dirty_set_is_resident(
            self, every, shard_cache, tmp_path, monkeypatch):
        real = CheckpointManager.after_round
        real_load = BlobTable.load
        seen, loads = [], []
        # the states the last committed save spilled, and ``loads`` then
        spilled, mark = set(), 0

        def load(table, key):
            loads.append(key)
            return real_load(table, key)

        def after_round(manager, core, scheduler, history, round_index):
            nonlocal mark
            store = core.clients.state_store
            dirty = set(store._dirty)
            before = _resident(store)
            # a spilled state came back only through the table
            assert spilled & set(before) <= set(loads[mark:])
            queued = _resident_events(scheduler.queue)
            real(manager, core, scheduler, history, round_index)
            resident = _resident(store)
            events = _resident_events(scheduler.queue)
            if manager.due(round_index):
                # the working set stays resident, the very same objects
                assert set(resident) == dirty
                assert all(resident[cid] is before[cid] for cid in dirty)
                # every queued event, this boundary's fresh ones too
                assert events == []
                spilled.clear()
                spilled.update(set(store.ids()) - dirty)
                mark = len(loads)
            else:  # the pending boundary's states and events stay resident
                assert set(resident) == set(before)
                assert [id(event) for event in events] \
                    == [id(event) for event in queued]
            seen.append((len(store), len(resident), len(scheduler.queue),
                         len(queued)))

        monkeypatch.setattr(BlobTable, "load", load)
        monkeypatch.setattr(CheckpointManager, "after_round", after_round)
        trainer = self._trainer("fedbuff", shard_cache=shard_cache)
        history = trainer.run(checkpoint_dir=tmp_path,
                              checkpoint_every=every)
        assert _history_digest(history) == _history_digest(
            self._trainer("fedbuff", shard_cache=shard_cache).run())
        assert any(isinstance(key, int) for key in loads)
        assert len(seen) == self.ROUNDS
        assert seen[-1][1] < seen[-1][0]
        # the queue carried events across boundaries, resident until a save
        assert all(length for _, _, length, _ in seen)
        assert any(queued for _, _, _, queued in seen)

    def test_a_cold_read_from_a_pending_segment_returns_its_blob(
            self, tmp_path, monkeypatch):
        """``every=2`` with a compaction at every boundary: a skipped
        save's compaction moves spilled blobs into its pending segment, and
        a read through the table reaches one blob there, unjoined."""
        monkeypatch.setattr(checkpoint_module, "_GARBAGE_FACTOR", 1)
        real = BlobTable.load
        pending_reads = []

        def load(table, key):
            value = real(table, key)
            ref = table.refs[key]
            blobs = table.pending.get(ref.segment)
            if blobs is not None:
                pending_reads.append(key)
                assert pickle.dumps(value) == pickle.dumps(
                    pickle.loads(blobs[ref.offset]))
                # the state or event the last committed head holds
                head = CheckpointManager(table.directory).latest()
                expected = (head.client_states[key] if isinstance(key, int)
                            else next(event for event
                                      in head.scheduler["events"]
                                      if (event.round_index,
                                          event.client_id) == key))
                assert pickle.dumps(value) == pickle.dumps(expected)
            return value

        monkeypatch.setattr(BlobTable, "load", load)
        trainer = self._trainer("fedbuff")
        assert _history_digest(trainer.run(checkpoint_dir=tmp_path,
                                           checkpoint_every=2)) \
            == _history_digest(self._trainer("fedbuff").run())
        assert any(isinstance(key, tuple) for key in pending_reads)
        assert any(isinstance(key, int) for key in pending_reads)


class TestFleetConfigValidation:
    def test_rejects_bad_shard_cache(self):
        with pytest.raises(ValueError):
            FleetConfig(shard_cache=0)

    def test_rejects_negative_eval_clients(self):
        with pytest.raises(ValueError):
            FleetConfig(eval_clients=-1)

    def test_rejects_non_fleet_config(self):
        with pytest.raises(TypeError):
            FederatedConfig(fleet={"shard_cache": 4})


def test_the_lazy_switch_family_is_gone():
    """No spelling of the removed eager/lazy switch is silently accepted."""
    dataset = build_federated_dataset("mnist", 4, examples_per_client=12,
                                      seed=1)
    devices = sample_device_fleet(4, seed=1)
    with pytest.raises(TypeError):
        FleetConfig(lazy=False)
    with pytest.raises(TypeError):
        scaled(preset_for("mnist"), lazy_fleet=False)
    with pytest.raises(TypeError):
        ClientFleet(dataset, devices, lazy=False)
    with pytest.raises(TypeError):
        VirtualDeviceFleet(4, seed=1, lazy=True)
