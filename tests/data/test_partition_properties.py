"""Property-based tests (hypothesis) for the non-IID partitioners.

The invariants every partitioner must uphold:

* the client index sets are pairwise disjoint,
* together they cover the dataset exactly (no example lost or duplicated),
* the Dirichlet partition honours its ``min_examples`` floor,
* a label-skew client shard holds at most ``classes_per_client`` distinct
  labels and is pure in ``(seed, client_id)``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import IMAGE_SPECS, Dataset
from repro.data.partition import dirichlet_partition, iid_partition
from repro.data.synthetic import image_prototypes, personalized_image_shard


def label_dataset(num_classes: int, examples_per_class: int,
                  seed: int) -> Dataset:
    """A tiny labelled dataset with a balanced, shuffled label vector."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat(np.arange(num_classes), examples_per_class))
    x = rng.standard_normal((len(y), 3))
    return Dataset(x, y)


def assert_exact_cover(partitions, dataset):
    """Disjointness + coverage: the partition is a bijection onto indices."""
    merged = np.concatenate([np.asarray(part) for part in partitions]) \
        if partitions else np.zeros(0, dtype=np.int64)
    assert len(merged) == len(dataset), "examples lost or duplicated"
    assert len(np.unique(merged)) == len(merged), "index assigned twice"
    assert set(merged.tolist()) == set(range(len(dataset)))


@given(num_clients=st.integers(min_value=1, max_value=12),
       num_classes=st.integers(min_value=2, max_value=6),
       examples_per_class=st.integers(min_value=4, max_value=12),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_iid_partition_is_an_exact_cover(num_clients, num_classes,
                                         examples_per_class, seed):
    dataset = label_dataset(num_classes, examples_per_class, seed)
    partitions = iid_partition(dataset, num_clients, seed=seed)
    assert len(partitions) == num_clients
    assert_exact_cover(partitions, dataset)
    # the deal is even: client sizes differ by at most one example
    sizes = [len(part) for part in partitions]
    assert max(sizes) - min(sizes) <= 1


@given(num_clients=st.integers(min_value=2, max_value=8),
       num_classes=st.integers(min_value=2, max_value=5),
       alpha=st.floats(min_value=0.1, max_value=10.0),
       min_examples=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_dirichlet_partition_properties(num_clients, num_classes, alpha,
                                        min_examples, seed):
    # enough data that the retry loop can satisfy the floor
    dataset = label_dataset(num_classes, examples_per_class=20, seed=seed)
    try:
        partitions = dirichlet_partition(dataset, num_clients, alpha,
                                         seed=seed, min_examples=min_examples)
    except RuntimeError:
        # the partitioner is allowed to give up, but never to hand back a
        # partition violating the floor — covered below
        return
    assert len(partitions) == num_clients
    assert_exact_cover(partitions, dataset)
    assert all(len(part) >= min_examples for part in partitions)


def test_dirichlet_raises_rather_than_violating_min_size():
    # 2 examples cannot give 4 clients 2 examples each
    dataset = label_dataset(num_classes=2, examples_per_class=1, seed=0)
    try:
        partitions = dirichlet_partition(dataset, num_clients=4, alpha=0.1,
                                         seed=0, min_examples=2)
    except RuntimeError:
        return
    raise AssertionError(
        f"expected RuntimeError, got partition sizes "
        f"{[len(p) for p in partitions]}")


@given(num_clients=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_partitions_are_deterministic_in_the_seed(num_clients, seed):
    dataset = label_dataset(3, 8, seed)
    first = iid_partition(dataset, num_clients, seed=seed)
    second = iid_partition(dataset, num_clients, seed=seed)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


@given(classes_per_client=st.integers(min_value=1, max_value=10),
       examples_per_client=st.integers(min_value=1, max_value=30),
       client_id=st.integers(min_value=0, max_value=10_000),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_label_skew_shard_properties(classes_per_client, examples_per_client,
                                     client_id, seed):
    spec = IMAGE_SPECS["mnist"]

    def shard():
        return personalized_image_shard(
            spec, client_id, classes_per_client, examples_per_client,
            image_prototypes(spec, seed=seed), seed=seed)

    first, second = shard(), shard()
    assert len(first) == examples_per_client
    # label-skew contract: never more classes than requested
    assert len(np.unique(first.y)) <= classes_per_client
    assert 0 <= first.y.min() and first.y.max() < spec.num_classes
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.y, second.y)
