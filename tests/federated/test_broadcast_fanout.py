"""Regression suite for the shared-memory round broadcast.

The contract under test: with a pool backend, the round-invariant payload
(global parameters, model, strategy template, config) crosses the worker
boundary **at most once per worker per round** — never once per client — and
per-task payloads shrink to ``(client_ids, client states)`` plus two small
handles.  The thread backend is the instrument of choice because its workers
share the server process, so both the submission-side payload witness and
the worker-side materialization counters are observable in-process, while
the payload objects are byte-for-byte what the process backend would ship.
"""

from __future__ import annotations

import pickle

from repro.experiments import preset_for, scaled
from repro.federated.trainer import FederatedTrainer
from repro.baselines import build_strategy
from repro.experiments.presets import build_experiment
from repro.parallel import (ThreadPoolExecutor, broadcast_stats,
                            reset_broadcast_stats)

from eager_data import build_eager_experiment, on_both_federations

WORKERS = 2
TINY = dict(num_clients=5, num_rounds=2, clients_per_round=4,
            examples_per_client=20, local_iterations=2, batch_size=8, seed=11)


def tiny_preset():
    return scaled(preset_for("mnist"), **TINY)


def _dumps_size(obj) -> int:
    return len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


class TestBytesPerRound:
    def test_global_params_serialized_once_per_worker_per_round(self):
        preset = tiny_preset()
        dataset, model_builder, config, fleet = build_experiment(preset)
        strategy = build_strategy("fedavg")
        task_payload_sizes = []
        reset_broadcast_stats()
        with ThreadPoolExecutor(WORKERS) as executor:
            executor.payload_witness = \
                lambda item: task_payload_sizes.append(_dumps_size(item))
            trainer = FederatedTrainer(strategy, dataset, model_builder,
                                       config=config, fleet=fleet,
                                       executor=executor)
            trainer.run()
        stats = broadcast_stats()
        params_size = _dumps_size(strategy.global_params)
        rounds = config.num_rounds

        # 1. per-task payloads no longer carry the global parameters: every
        #    submitted payload is a small fraction of the parameter pickle
        assert task_payload_sizes, "witness saw no fan-out payloads"
        assert max(task_payload_sizes) < params_size / 4

        # 2. the parameters are packed server-side exactly once per fan-out
        #    (one local-update + one evaluation broadcast per round), not
        #    once per client; the session broadcast contributes one more
        #    pack for the dataset blocks, once per run
        assert stats["param_packs"] == 2 * rounds + 1

        # 3. worker-side, each broadcast is deserialized at most once per
        #    worker; with clients_per_round > workers this is strictly fewer
        #    materializations than the per-client legacy behaviour.  The
        #    session broadcast adds one materialization per worker for the
        #    whole run.
        publishes = stats["publishes"]
        assert publishes == 2 * rounds + 1  # rounds x (update, eval) + session
        per_client_would_be = rounds * (config.clients_per_round
                                        + dataset.num_clients)
        assert stats["materializations"] <= publishes * WORKERS
        assert stats["materializations"] < per_client_would_be
        # cache hits prove reuse actually happened within workers
        assert stats["materialize_hits"] > 0

    def test_round_traffic_stays_below_one_parameter_pickle(self):
        preset = tiny_preset()
        dataset, model_builder, config, fleet = build_experiment(preset)
        strategy = build_strategy("fedavg")
        sizes = []
        reset_broadcast_stats()
        with ThreadPoolExecutor(WORKERS) as executor:
            executor.payload_witness = \
                lambda item: sizes.append(_dumps_size(item))
            trainer = FederatedTrainer(strategy, dataset, model_builder,
                                       config=config, fleet=fleet,
                                       executor=executor)
            trainer.run()
            blob_bytes = broadcast_stats()["blob_bytes"]
            # the session blob (model architecture, fleet, config) is a
            # once-per-run payload, not round traffic
            session_blob = trainer._session_handle().blob_nbytes
            trainer.close()
        per_round = (sum(sizes) + blob_bytes - session_blob) / config.num_rounds
        # the acceptance bar: everything pickled for a round — every update
        # and evaluation task payload plus both strategy-template blobs (the
        # same payloads the process backend would ship) — weighs less than
        # ONE pickled copy of the global parameters, which every single task
        # of the pre-broadcast per-client dispatch carried
        assert per_round < _dumps_size(strategy.global_params)


class TestReadOnlyFanout:
    """No strategy mutates broadcast-shared arrays during fan-out.

    ``materialize`` hands workers read-only views (see
    tests/parallel/test_broadcast.py for the unit-level guard); this sweep
    proves the property the ROADMAP asked for before enabling it — that no
    registry strategy's local update or evaluation writes into the shared
    global parameters or dataset blocks in place.  Any such write now
    raises ``ValueError: assignment destination is read-only`` and would
    fail the run.
    """

    @on_both_federations
    def test_every_registry_strategy_runs_on_read_only_views(self, run):
        from repro.baselines import available_strategies

        # the eager-data variant is the one that actually ships dataset
        # arrays as read-only blocks; the virtual one covers the spec
        # transport
        preset = scaled(tiny_preset(), num_rounds=1)
        with ThreadPoolExecutor(WORKERS) as executor:
            for method in available_strategies():
                run(method, preset, executor=executor)


class TestSessionDatasetBlocks:
    """The dataset rides the session manifest as raw blocks, not the blob."""

    def test_session_blob_excludes_dataset_arrays(self):
        from repro.server.core import dataset_to_blocks

        # a hand-built eager dataset: every client's arrays on the manifest
        dataset, model_builder, config, fleet = build_eager_experiment(
            tiny_preset())
        strategy = build_strategy("fedavg")
        with ThreadPoolExecutor(WORKERS) as executor:
            trainer = FederatedTrainer(strategy, dataset, model_builder,
                                       config=config, fleet=fleet,
                                       executor=executor)
            handle = trainer._session_handle()
            blocks, _ = dataset_to_blocks(dataset)
            array_bytes = sum(block.nbytes for block in blocks.values())
            try:
                # every dataset array is on the manifest, never pickled
                manifest_keys = {spec.key for spec in handle.manifest}
                assert set(blocks) <= manifest_keys
                assert sum(spec.nbytes for spec in handle.manifest) \
                    >= array_bytes
                # the pickled session blob shrinks to the skeleton + model +
                # fleet/config: a small fraction of the pickled dataset
                assert handle.blob_nbytes < _dumps_size(dataset) / 2
                assert handle.blob_nbytes < array_bytes
            finally:
                trainer.close()

    def test_virtual_session_ships_spec_not_shards(self):
        """The default (virtual) fleet's session payload is O(1)."""
        from repro.data.partition import VirtualFederatedDataset
        from repro.server.core import dataset_to_blocks

        preset = tiny_preset()
        dataset, model_builder, config, fleet = build_experiment(preset)
        assert isinstance(dataset, VirtualFederatedDataset)
        strategy = build_strategy("fedavg")
        with ThreadPoolExecutor(WORKERS) as executor:
            trainer = FederatedTrainer(strategy, dataset, model_builder,
                                       config=config, fleet=fleet,
                                       executor=executor)
            try:
                handle = trainer._session_handle()
                blocks, skeleton = dataset_to_blocks(dataset)
                # generated federations ship no dataset arrays at all —
                # the spec rebuilds any client worker-side
                assert blocks == {}
                assert skeleton["kind"] == "virtual"
                assert skeleton["spec"] == dataset.spec
                assert skeleton["overrides"]["name"] == dataset.name
                assert not any(spec.key.startswith("dataset/")
                               for spec in handle.manifest)
                # untouched by publishing: no shard was materialized
                assert dataset.shard_map.materializations == 0
            finally:
                trainer.close()

    def test_dataset_round_trips_through_blocks(self):
        import numpy as np

        from repro.server.core import dataset_from_blocks, dataset_to_blocks

        dataset, _, _, _ = build_eager_experiment(tiny_preset())
        blocks, skeleton = dataset_to_blocks(dataset)
        rebuilt = dataset_from_blocks(skeleton, blocks)
        assert rebuilt.name == dataset.name
        assert rebuilt.num_classes == dataset.num_classes
        assert rebuilt.input_shape == tuple(dataset.input_shape)
        assert list(rebuilt.client_ids) == list(dataset.client_ids)
        for cid in dataset.client_ids:
            original, copy = dataset.client(cid), rebuilt.client(cid)
            np.testing.assert_array_equal(original.train.x, copy.train.x)
            np.testing.assert_array_equal(original.train.y, copy.train.y)
            np.testing.assert_array_equal(original.test.x, copy.test.x)
            np.testing.assert_array_equal(original.test.y, copy.test.y)

    def test_virtual_dataset_round_trips_through_blocks(self):
        """Both virtual transports rebuild shards element-identically."""
        import numpy as np

        from repro.data import build_federated_dataset
        from repro.server.core import dataset_from_blocks, dataset_to_blocks

        for partition in ("pathological", "dirichlet"):
            eager = build_federated_dataset(
                "mnist", 5, partition=partition, examples_per_client=20,
                seed=11)
            virtual = build_federated_dataset(
                "mnist", 5, partition=partition, examples_per_client=20,
                seed=11, lazy=True)
            blocks, skeleton = dataset_to_blocks(virtual)
            rebuilt = dataset_from_blocks(skeleton, blocks)
            for cid in eager.client_ids:
                original, copy = eager.client(cid), rebuilt.client(cid)
                np.testing.assert_array_equal(original.train.x, copy.train.x)
                np.testing.assert_array_equal(original.train.y, copy.train.y)
                np.testing.assert_array_equal(original.test.x, copy.test.x)
                np.testing.assert_array_equal(original.test.y, copy.test.y)
