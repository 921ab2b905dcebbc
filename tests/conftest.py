"""Shared fixtures for the test suite: tiny datasets, models and configs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_federated_dataset
from repro.federated import FederatedConfig
from repro.models import build_cnn

from eager_data import sample_device_fleet
from mlp import build_mlp


@pytest.fixture(scope="session")
def small_fed_dataset():
    """A small synthetic MNIST-style federation shared across tests."""
    return build_federated_dataset("mnist", num_clients=6,
                                   examples_per_client=40, seed=0)


@pytest.fixture(scope="session")
def reddit_fed_dataset():
    """A small synthetic Reddit-style federation shared across tests."""
    return build_federated_dataset("reddit", num_clients=4,
                                   examples_per_client=40, seed=0)


@pytest.fixture()
def tiny_config():
    """A federated config small enough for per-test training runs."""
    return FederatedConfig(num_rounds=3, clients_per_round=2,
                           local_iterations=2, batch_size=8,
                           learning_rate=0.1, seed=0)


@pytest.fixture()
def small_cnn():
    """A small CNN matching the MNIST-style input shape."""
    return build_cnn(1, 16, 10, channels=(4, 8), hidden_dim=16, seed=0)


@pytest.fixture()
def small_mlp():
    """A small MLP for fast gradient and sparsity tests."""
    return build_mlp(12, [16, 8], 4, seed=0)


@pytest.fixture()
def small_fleet(small_fed_dataset):
    """Device fleet matching the small federation."""
    return sample_device_fleet(small_fed_dataset.num_clients, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
