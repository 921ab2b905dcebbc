"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.baselines import build_strategy
from repro.core import FedLPS
from repro.data import build_federated_dataset
from repro.federated import FederatedConfig, run_federated
from repro.models import build_model_for_dataset
from repro.systems import HETEROGENEITY_PRESETS, VirtualDeviceFleet


class TestEndToEnd:
    def test_fedlps_learns_and_saves_compute_on_mnist(self):
        dataset = build_federated_dataset("mnist", 8, examples_per_client=50,
                                          seed=3)
        config = FederatedConfig(num_rounds=8, clients_per_round=3,
                                 local_iterations=6, batch_size=16, seed=3)
        builder = lambda: build_model_for_dataset("mnist", seed=3)
        fedlps = run_federated(FedLPS(), dataset, builder, config=config)
        fedavg = run_federated(build_strategy("fedavg"), dataset, builder,
                               config=config)
        chance = 1.0 / dataset.num_classes
        assert fedlps.final_accuracy() > 2 * chance
        assert fedlps.total_flops < fedavg.total_flops
        assert fedlps.total_time_seconds <= fedavg.total_time_seconds * 1.05

    def test_personalized_methods_beat_conventional_on_noniid(self):
        dataset = build_federated_dataset("cifar10", 8, examples_per_client=50,
                                          seed=5)
        config = FederatedConfig(num_rounds=8, clients_per_round=3,
                                 local_iterations=6, batch_size=16, seed=5)
        builder = lambda: build_model_for_dataset("cifar10", seed=5)
        fedper = run_federated(build_strategy("fedper"), dataset, builder,
                               config=config)
        fedavg = run_federated(build_strategy("fedavg"), dataset, builder,
                               config=config)
        assert fedper.final_accuracy() >= fedavg.final_accuracy() - 0.05

    def test_sparse_ratio_adaptation_records_ratios(self):
        dataset = build_federated_dataset("mnist", 6, examples_per_client=40,
                                          seed=1)
        config = FederatedConfig(num_rounds=5, clients_per_round=3,
                                 local_iterations=3, batch_size=10, seed=1)
        history = run_federated(FedLPS(), dataset,
                                lambda: build_model_for_dataset("mnist", seed=1),
                                config=config)
        for record in history.records:
            assert record.sparse_ratios
            assert all(0.0 < ratio <= 1.0
                       for ratio in record.sparse_ratios.values())

    def test_heterogeneity_levels_affect_round_time(self):
        dataset = build_federated_dataset("mnist", 8, examples_per_client=40,
                                          seed=2)
        config = FederatedConfig(num_rounds=4, clients_per_round=3,
                                 local_iterations=3, batch_size=10, seed=2)
        builder = lambda: build_model_for_dataset("mnist", seed=2)
        times = {}
        for level in ("none", "high"):
            # fix the bandwidth so only the compute capability varies
            fleet = VirtualDeviceFleet(
                dataset.num_clients, levels=HETEROGENEITY_PRESETS[level],
                bandwidth_levels=(1.0,), seed=2)
            history = run_federated(build_strategy("fedavg"), dataset, builder,
                                    config=config, fleet=fleet)
            times[level] = history.total_time_seconds
        # synchronous rounds are slower when weak devices are present
        assert times["high"] >= times["none"]

    def test_reddit_language_model_pipeline(self):
        dataset = build_federated_dataset("reddit", 6, examples_per_client=50,
                                          seed=4)
        config = FederatedConfig(num_rounds=4, clients_per_round=3,
                                 local_iterations=4, batch_size=16,
                                 learning_rate=1.0, seed=4)
        history = run_federated(FedLPS(), dataset,
                                lambda: build_model_for_dataset("reddit", seed=4),
                                config=config)
        assert len(history) == 4
        assert np.isfinite(history.total_flops)
