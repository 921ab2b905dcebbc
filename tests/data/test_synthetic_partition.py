"""Tests for the synthetic dataset generators and non-IID partitioners."""

import numpy as np
import pytest

from repro.data import (IMAGE_SPECS, Dataset, build_federated_dataset,
                        dirichlet_partition, iid_partition,
                        make_image_classification,
                        make_personalized_image_shards,
                        partition_to_clients, synthetic_mnist,
                        synthetic_reddit, synthetic_reddit_users)
from repro.data.synthetic import TextSpec


class TestImageGenerators:
    @pytest.mark.parametrize("name", ["mnist", "cifar10", "cifar100",
                                      "tinyimagenet"])
    def test_spec_shapes(self, name):
        spec = IMAGE_SPECS[name]
        ds = make_image_classification(spec, 32, seed=0)
        assert ds.x.shape == (32, spec.channels, spec.image_size, spec.image_size)
        assert ds.y.max() < spec.num_classes

    def test_generation_deterministic(self):
        a = synthetic_mnist(20, seed=5)
        b = synthetic_mnist(20, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            make_image_classification(IMAGE_SPECS["mnist"], 0)

    def test_classes_are_separable_by_prototype_distance(self):
        spec = IMAGE_SPECS["mnist"]
        ds = make_image_classification(spec, 400, seed=0)
        means = np.stack([ds.x[ds.y == c].mean(axis=0)
                          for c in range(spec.num_classes) if np.any(ds.y == c)])
        distances = np.linalg.norm(
            means[:, None] - means[None, :], axis=(2, 3, 4) if means.ndim == 5 else None)
        # class means are distinct (prototypes differ)
        assert np.sum(distances > 1.0) > 0

    def test_personalized_shards_label_skew_and_style(self):
        spec = IMAGE_SPECS["mnist"]
        shards = make_personalized_image_shards(spec, 5, 2, 30, seed=0)
        assert len(shards) == 5
        for shard in shards:
            assert len(np.unique(shard.y)) <= 2
            assert len(shard) == 30

    def test_personalized_shards_invalid_args(self):
        spec = IMAGE_SPECS["mnist"]
        with pytest.raises(ValueError):
            make_personalized_image_shards(spec, 0, 2, 10)
        with pytest.raises(ValueError):
            make_personalized_image_shards(spec, 2, 0, 10)


class TestTextGenerators:
    def test_reddit_users_are_non_iid(self):
        users, spec = synthetic_reddit_users(4, 50, seed=0)
        assert len(users) == 4
        for shard in users:
            assert shard.x.shape[1] == spec.seq_len
            assert shard.y.max() < spec.vocab_size
        # token distributions differ across users
        hist0 = np.bincount(users[0].y, minlength=spec.vocab_size)
        hist1 = np.bincount(users[1].y, minlength=spec.vocab_size)
        assert not np.array_equal(hist0, hist1)

    def test_pooled_reddit_size(self):
        ds = synthetic_reddit(200, num_users=5, seed=1)
        assert len(ds) == 200

    def test_invalid_user_count(self):
        with pytest.raises(ValueError):
            synthetic_reddit_users(0)

    def test_text_spec_defaults(self):
        spec = TextSpec()
        assert spec.vocab_size == 60 and spec.seq_len == 8


def _pooled(n=200, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, 2)), rng.integers(0, classes, n))


class TestPartitioners:
    def test_iid_partition_covers_everything(self):
        ds = _pooled(100)
        parts = iid_partition(ds, 7, seed=0)
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, np.arange(100))

    def test_dirichlet_partition_respects_min_examples(self):
        ds = _pooled(500, classes=5)
        parts = dirichlet_partition(ds, 5, alpha=0.5, seed=0, min_examples=2)
        assert all(len(p) >= 2 for p in parts)

    def test_dirichlet_invalid_alpha(self):
        with pytest.raises(ValueError):
            dirichlet_partition(_pooled(), 4, alpha=0.0)

    def test_partition_to_clients_requires_enough_examples(self):
        ds = _pooled(10)
        with pytest.raises(ValueError):
            partition_to_clients(ds, [np.array([0])])


class TestFederatedBuilder:
    @pytest.mark.parametrize("name", ["mnist", "cifar10", "cifar100",
                                      "tinyimagenet", "reddit"])
    def test_builds_every_dataset(self, name):
        fed = build_federated_dataset(name, 4, examples_per_client=30, seed=0)
        assert fed.num_clients == 4
        assert fed.num_classes > 1
        assert all(len(c.train) > 0 and len(c.test) > 0
                   for c in fed.clients.values())

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            build_federated_dataset("svhn", 4)

    def test_unknown_partition(self):
        with pytest.raises(ValueError):
            build_federated_dataset("mnist", 4, partition="quantity")

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_more_classes_per_client_than_exist_rejected(self, lazy):
        with pytest.raises(ValueError, match="classes_per_client"):
            build_federated_dataset("mnist", 4, classes_per_client=11,
                                    lazy=lazy)

    def test_iid_partition_option(self):
        fed = build_federated_dataset("mnist", 4, partition="iid",
                                      examples_per_client=40, seed=0)
        assert fed.metadata["partition"] == "iid"

    def test_pathological_clients_have_few_classes(self, small_fed_dataset):
        for shard in small_fed_dataset.clients.values():
            labels = np.concatenate([shard.train.y, shard.test.y])
            assert len(np.unique(labels)) <= 2

    def test_deterministic_given_seed(self):
        a = build_federated_dataset("mnist", 3, examples_per_client=20, seed=9)
        b = build_federated_dataset("mnist", 3, examples_per_client=20, seed=9)
        np.testing.assert_array_equal(a.client(0).train.x, b.client(0).train.x)
