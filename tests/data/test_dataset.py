"""Tests for Dataset and the federated containers."""

import numpy as np
import pytest

from repro.data import ClientData, Dataset, FederatedDataset


def make_dataset(n=20, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, 3)),
                   rng.integers(0, num_classes, size=n))


class TestDataset:
    def test_length_and_classes(self):
        ds = make_dataset(30, 4)
        assert len(ds) == 30
        assert 1 <= ds.num_classes <= 4

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_subset_copies(self):
        ds = make_dataset()
        sub = ds.subset(np.array([0, 1]))
        sub.x[0, 0] = 123.0
        assert ds.x[0, 0] != 123.0

    def test_split_sizes(self):
        ds = make_dataset(20)
        train, test = ds.split(0.25, seed=1)
        assert len(train) + len(test) == 20
        assert len(test) == 5

    def test_split_invalid_fraction(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.split(0.0)
        with pytest.raises(ValueError):
            ds.split(1.0)

    def test_split_deterministic(self):
        ds = make_dataset(20)
        a_train, _ = ds.split(0.2, seed=3)
        b_train, _ = ds.split(0.2, seed=3)
        np.testing.assert_array_equal(a_train.y, b_train.y)


class TestFederatedContainers:
    def test_client_data_counts(self):
        ds = make_dataset(10)
        shard = ClientData(0, ds, ds)
        assert shard.num_train_examples == 10

    def test_federated_dataset_accessors(self, small_fed_dataset):
        assert small_fed_dataset.num_clients == 6
        assert list(small_fed_dataset.client_ids) == list(range(6))
        shard = small_fed_dataset.client(0)
        assert len(shard.train) > 0 and len(shard.test) > 0
        with pytest.raises(KeyError):
            small_fed_dataset.client(99)
