"""Tests for the strategy interface, the client container and the trainer."""

import numpy as np
import pytest

from repro.data import build_federated_dataset
from repro.federated import (Client, FederatedConfig, FederatedTrainer,
                             Strategy, run_federated)
from repro.models import build_model_for_dataset
from repro.systems import DeviceProfile, sample_device_fleet


class TestFederatedConfig:
    def test_defaults_are_valid(self):
        config = FederatedConfig()
        assert config.num_rounds > 0

    @pytest.mark.parametrize("field,value", [
        ("num_rounds", 0), ("clients_per_round", 0), ("local_iterations", 0),
        ("batch_size", 0), ("learning_rate", 0.0), ("eval_every", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            FederatedConfig(**{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("momentum", 1.0, r"momentum must be in \[0, 1\)"),
        ("momentum", 1.5, r"momentum must be in \[0, 1\)"),
        ("momentum", -0.1, r"momentum must be in \[0, 1\)"),
        ("clip_norm", 0, "clip_norm must be positive"),
        ("clip_norm", -5.0, "clip_norm must be positive"),
        ("prox_mu", -1, "prox_mu must be non-negative"),
        ("importance_lambda", -1, "importance_lambda must be non-negative"),
    ])
    def test_training_hyper_parameters_rejected_at_construction(
            self, field, value, message):
        with pytest.raises(ValueError, match=message):
            FederatedConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("momentum", 0.0), ("momentum", 0.99), ("clip_norm", None),
        ("clip_norm", 1e-3), ("prox_mu", 0.0), ("importance_lambda", 0.0),
    ])
    def test_boundary_training_hyper_parameters_accepted(self, field, value):
        assert getattr(FederatedConfig(**{field: value}), field) == value


class TestClient:
    def test_client_ids_must_match(self, small_fed_dataset):
        shard = small_fed_dataset.client(0)
        device = DeviceProfile(1, 1.0)
        with pytest.raises(ValueError):
            Client(1, shard, device)

    def test_client_properties(self, small_fed_dataset):
        shard = small_fed_dataset.client(2)
        client = Client(2, shard, DeviceProfile(2, 0.5))
        assert client.capability == 0.5
        assert client.num_train_examples == len(shard.train)
        loader = client.train_loader(8, seed=1)
        assert sum(len(y) for _, y in loader) == len(shard.train)


class TestStrategyDefaults:
    def test_requires_setup_before_use(self):
        strategy = Strategy()
        with pytest.raises(RuntimeError):
            strategy.select_clients(0)

    def test_selection_size_and_determinism(self, small_fed_dataset, tiny_config):
        trainer = FederatedTrainer(Strategy(), small_fed_dataset,
                                   lambda: build_model_for_dataset("mnist"),
                                   config=tiny_config)
        trainer.strategy.setup(trainer.context)
        selected = trainer.strategy.select_clients(0)
        assert len(selected) == tiny_config.clients_per_round
        assert all(cid in small_fed_dataset.clients for cid in selected)

    def test_local_update_reports_footprint(self, small_fed_dataset, tiny_config):
        trainer = FederatedTrainer(Strategy(), small_fed_dataset,
                                   lambda: build_model_for_dataset("mnist"),
                                   config=tiny_config)
        trainer.strategy.setup(trainer.context)
        update = trainer.strategy.local_update(0, trainer.clients[0])
        assert update.flops > 0
        assert update.upload_bytes > 0
        assert update.num_examples == trainer.clients[0].num_train_examples
        assert set(update.params) == set(trainer.strategy.global_params)

    def test_aggregate_moves_global_params(self, small_fed_dataset, tiny_config):
        trainer = FederatedTrainer(Strategy(), small_fed_dataset,
                                   lambda: build_model_for_dataset("mnist"),
                                   config=tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        before = strategy.snapshot_global()
        updates = [strategy.local_update(0, trainer.clients[cid])
                   for cid in (0, 1)]
        strategy.aggregate(0, updates)
        changed = any(not np.array_equal(before[k], strategy.global_params[k])
                      for k in before)
        assert changed

    def test_aggregate_empty_is_noop(self, small_fed_dataset, tiny_config):
        trainer = FederatedTrainer(Strategy(), small_fed_dataset,
                                   lambda: build_model_for_dataset("mnist"),
                                   config=tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        before = strategy.snapshot_global()
        strategy.aggregate(0, [])
        for key in before:
            np.testing.assert_array_equal(before[key], strategy.global_params[key])


class TestTrainer:
    def test_run_produces_history(self, small_fed_dataset, tiny_config):
        history = run_federated(Strategy(), small_fed_dataset,
                                lambda: build_model_for_dataset("mnist"),
                                config=tiny_config)
        assert len(history) == tiny_config.num_rounds
        assert history.total_flops > 0
        assert history.total_time_seconds > 0
        assert all(0.0 <= acc <= 1.0 for acc in history.accuracies)
        # cumulative series are non-decreasing
        assert history.cumulative_flops == sorted(history.cumulative_flops)
        assert history.cumulative_time == sorted(history.cumulative_time)

    def test_fleet_size_mismatch_rejected(self, small_fed_dataset, tiny_config):
        fleet = sample_device_fleet(3, seed=0)
        with pytest.raises(ValueError):
            FederatedTrainer(Strategy(), small_fed_dataset,
                             lambda: build_model_for_dataset("mnist"),
                             config=tiny_config, fleet=fleet)

    def test_eval_every_skips_evaluations(self, small_fed_dataset):
        config = FederatedConfig(num_rounds=4, clients_per_round=2,
                                 local_iterations=1, batch_size=8,
                                 eval_every=2, seed=0)
        history = run_federated(Strategy(), small_fed_dataset,
                                lambda: build_model_for_dataset("mnist"),
                                config=config)
        # rounds 0 and 2 reuse the previous accuracy (0.0 initially)
        assert history.records[0].test_accuracy == 0.0

    def test_carried_accuracy_is_flagged(self, small_fed_dataset):
        config = FederatedConfig(num_rounds=4, clients_per_round=2,
                                 local_iterations=1, batch_size=8,
                                 eval_every=2, seed=0)
        history = run_federated(Strategy(), small_fed_dataset,
                                lambda: build_model_for_dataset("mnist"),
                                config=config)
        # skipped rounds carry the stale value and say so; eval rounds are
        # fresh, and carried values equal the previous fresh one
        assert [r.evaluated for r in history.records] == [False, True,
                                                          False, True]
        assert history.records[2].test_accuracy == \
            history.records[1].test_accuracy

    def test_every_round_evaluated_by_default(self, small_fed_dataset,
                                              tiny_config):
        history = run_federated(Strategy(), small_fed_dataset,
                                lambda: build_model_for_dataset("mnist"),
                                config=tiny_config)
        assert all(record.evaluated for record in history.records)

    def test_reproducible_given_seed(self, small_fed_dataset, tiny_config):
        builder = lambda: build_model_for_dataset("mnist", seed=0)
        a = run_federated(Strategy(), small_fed_dataset, builder, config=tiny_config)
        b = run_federated(Strategy(), small_fed_dataset, builder, config=tiny_config)
        assert a.accuracies == b.accuracies
        assert a.total_flops == b.total_flops

    def test_next_word_task_runs(self, reddit_fed_dataset, tiny_config):
        history = run_federated(
            Strategy(), reddit_fed_dataset,
            lambda: build_model_for_dataset("reddit", seed=0),
            config=tiny_config)
        assert len(history) == tiny_config.num_rounds
