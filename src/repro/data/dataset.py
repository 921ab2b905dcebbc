"""Dataset containers and batching utilities for federated simulation."""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

# BoundedLRU lives in the neutral ``repro.util`` module (shared with the
# broadcast worker cache and the checkpoint load memo); re-exported here
# because the lazy data layer is where older callers historically found it.
from ..util import BoundedLRU, in_range, positive_int  # noqa: F401  (re-export)


@dataclass
class Dataset:
    """A supervised dataset: features ``x`` and integer labels ``y``.

    ``x`` keeps whatever shape the model expects (images ``(N, C, H, W)``,
    flat features ``(N, D)`` or token windows ``(N, T)``); ``y`` is ``(N,)``.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y)
        if len(self.x) != len(self.y):
            raise ValueError(
                f"feature/label count mismatch: {len(self.x)} vs {len(self.y)}")

    def __len__(self) -> int:
        return int(len(self.y))

    @property
    def num_classes(self) -> int:
        """Number of distinct labels present (0 for an empty dataset)."""
        return int(len(np.unique(self.y))) if len(self.y) else 0

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Dataset restricted to ``indices`` (copying the selected rows)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[indices].copy(), self.y[indices].copy())

    def split(self, test_fraction: float, *, seed: int = 0) -> Tuple["Dataset", "Dataset"]:
        """Random train/test split preserving no particular class balance."""
        train_idx, test_idx = split_indices(len(self), test_fraction,
                                            seed=seed)
        return self.subset(train_idx), self.subset(test_idx)


def split_indices(count: int, test_fraction: float, *,
                  seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(train, test)`` index permutation behind every shard split.

    Single source of truth for the split algorithm: :meth:`Dataset.split`
    applies it to materialized rows and the virtual fleet's
    ``split_client_shard`` composes it with assignment indices — sharing
    this function is what keeps the two paths bit-identical by
    construction.
    """
    in_range(test_fraction, "test_fraction", 0, 1, low_open=True,
             high_open=True)
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    n_test = max(1, int(round(test_fraction * count)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if len(train_idx) == 0:
        raise ValueError("split left no training examples")
    return train_idx, test_idx


class DataLoader:
    """Mini-batch iterator with deterministic shuffling.

    Each call to :meth:`__iter__` reshuffles with a fresh stream drawn from
    the loader's generator, so successive epochs see different orders while
    the whole sequence stays reproducible for a given seed.
    """

    def __init__(self, dataset: Dataset, batch_size: int, *, shuffle: bool = True,
                 seed: int = 0, drop_last: bool = False) -> None:
        positive_int(batch_size, "batch_size")
        if len(dataset) == 0:
            raise ValueError("cannot build a DataLoader over an empty dataset")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            batch = indices[start:start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                break
            yield self.dataset.x[batch], self.dataset.y[batch]


@dataclass
class ClientData:
    """The local train/test shard owned by one simulated client."""

    client_id: int
    train: Dataset
    test: Dataset

    @property
    def num_train_examples(self) -> int:
        return len(self.train)


class LazyShardMap(MappingABC):
    """A ``Mapping[int, ClientData]`` that builds shards on demand.

    Client ids are the contiguous range ``[0, num_clients)``; ``builder`` is
    a pure function of the client id, so any shard can be materialized at any
    time (and on any worker) with identical contents.  Materialized shards
    live in an LRU cache of ``cache_size`` entries, bounding memory by the
    working set (the dispatched cohort plus evaluation clients) instead of
    the fleet size.  ``materializations`` counts builder invocations — tests
    use it to prove untouched clients are never built.  ``materialized_ids``
    records which clients were ever built; like the sparse state store it
    grows with the *cumulative touched* set (a few bytes per touched
    client), never with the fleet size.
    """

    def __init__(self, num_clients: int,
                 builder: Callable[[int], ClientData], *,
                 cache_size: int = 256) -> None:
        self.num_clients = positive_int(num_clients, "num_clients")
        self._builder = builder
        self._cache = BoundedLRU(cache_size)
        self._ids: Optional[np.ndarray] = None
        self.materializations = 0
        self.materialized_ids: set = set()

    @property
    def cache_size(self) -> int:
        return self._cache.bound

    # ------------------------------------------------------------- mapping
    def __getitem__(self, client_id: int) -> ClientData:
        if not 0 <= client_id < self.num_clients:
            raise KeyError(f"no client with id {client_id}")
        hit = self._cache.get(client_id)
        if hit is not None:
            return hit
        shard = self._builder(client_id)
        self.materializations += 1
        self.materialized_ids.add(client_id)
        self._cache.put(client_id, shard)
        return shard

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_clients))

    def __len__(self) -> int:
        return self.num_clients

    def __contains__(self, client_id: object) -> bool:
        # accept numpy integer ids too, like a plain-dict shard mapping does
        return (isinstance(client_id, (int, np.integer))
                and 0 <= client_id < self.num_clients)

    def resize(self, cache_size: int) -> None:
        """Re-bound the LRU (evicting down if shrunk)."""
        self._cache.resize(cache_size)

    def clear(self) -> None:
        self._cache.clear()

    @property
    def client_ids(self) -> np.ndarray:
        if self._ids is None:
            ids = np.arange(self.num_clients, dtype=np.int64)
            ids.flags.writeable = False
            self._ids = ids
        return self._ids


def mapping_client_ids(clients: Mapping) -> np.ndarray:
    """Sorted client ids of any client mapping, as a read-only int64 array.

    Lazy mappings return their *shared* cached ``np.arange`` (copying a
    million-id list per selection round would defeat the O(cohort)
    contract); plain dicts get a freshly sorted array.  Either way the
    result is marked read-only — callers must copy before sorting or
    shuffling in place.
    """
    ids = getattr(clients, "client_ids", None)
    if ids is None:
        ids = np.asarray(sorted(clients.keys()), dtype=np.int64)
        ids.flags.writeable = False
    return ids


@dataclass
class FederatedDataset:
    """All client shards plus dataset-level metadata.

    ``clients`` is any ``Mapping[int, ClientData]`` — a plain dict for the
    classic eager construction, or a :class:`LazyShardMap` for virtual
    federations that materialize shards per cohort.
    """

    name: str
    clients: Mapping[int, ClientData]
    num_classes: int
    input_shape: Tuple[int, ...]
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def client_ids(self) -> np.ndarray:
        return mapping_client_ids(self.clients)

    def client(self, client_id: int) -> ClientData:
        if client_id not in self.clients:
            raise KeyError(f"no client with id {client_id}")
        return self.clients[client_id]
