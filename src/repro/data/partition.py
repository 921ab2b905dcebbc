"""Non-IID partitioning strategies for federated simulation.

The paper's main experiments use the *pathological* partition (every client
holds data from only a few classes).  The Dirichlet partition and the IID
partition are provided for the non-IID-level sweeps and as sanity baselines;
the Reddit-style corpus is partitioned naturally (one user = one client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..util import in_range, non_negative, non_negative_int, positive, positive_int
from .dataset import (ClientData, Dataset, FederatedDataset, LazyShardMap,
                      split_indices)
from .synthetic import (IMAGE_SPECS, TextSpec, image_prototypes,
                        make_image_classification,
                        make_personalized_image_shards,
                        personalized_image_shard, reddit_base_chain,
                        reddit_user_shard, synthetic_reddit_users)


def iid_partition(dataset: Dataset, num_clients: int, *, seed: int = 0
                  ) -> List[np.ndarray]:
    """Shuffle and deal examples evenly across clients."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    return [np.sort(part) for part in np.array_split(order, num_clients)]


def dirichlet_partition(dataset: Dataset, num_clients: int, alpha: float, *,
                        seed: int = 0, min_examples: int = 2) -> List[np.ndarray]:
    """Dirichlet label-skew partition (lower ``alpha`` = more skew)."""
    positive(alpha, "alpha")
    labels = dataset.y.astype(np.int64)
    num_classes = int(labels.max()) + 1
    rng = np.random.default_rng(seed)
    for _ in range(20):
        partitions: List[List[int]] = [[] for _ in range(num_clients)]
        for c in range(num_classes):
            class_indices = rng.permutation(np.where(labels == c)[0])
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            boundaries = (np.cumsum(proportions) * len(class_indices)).astype(int)[:-1]
            for client, piece in enumerate(np.split(class_indices, boundaries)):
                partitions[client].extend(piece.tolist())
        if min(len(part) for part in partitions) >= min_examples:
            return [np.sort(np.array(part, dtype=np.int64)) for part in partitions]
    raise RuntimeError(
        "could not build a Dirichlet partition giving every client at least "
        f"{min_examples} examples; increase data size or alpha")


def split_client_shard(base: Dataset, client_id: int, indices: np.ndarray, *,
                       test_fraction: float = 0.2, seed: int = 0
                       ) -> ClientData:
    """One client's train/test shard as an index-level split over ``base``.

    Bit-identical to ``base.subset(indices).split(test_fraction,
    seed=seed + client_id)`` — the same permutation is drawn and the same
    rows selected — but composed at the index level, so no intermediate
    whole-shard copy is made and the only arrays allocated are the final
    train/test selections (the "zero-copy view" contract of the virtual
    fleet: assignments are index arrays until a cohort materializes them).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) < 2:
        raise ValueError(
            f"client {client_id} received {len(indices)} examples; "
            "every client needs at least 2 to split into train/test")
    train_idx, test_idx = split_indices(len(indices), test_fraction,
                                        seed=seed + client_id)
    train_sel, test_sel = indices[train_idx], indices[test_idx]
    # advanced indexing materializes fresh arrays; no whole-shard copy made
    train = Dataset(base.x[train_sel], base.y[train_sel])
    test = Dataset(base.x[test_sel], base.y[test_sel])
    return ClientData(client_id, train, test)


def partition_to_clients(dataset: Dataset, partitions: List[np.ndarray], *,
                         test_fraction: float = 0.2, seed: int = 0
                         ) -> Dict[int, ClientData]:
    """Turn index partitions into per-client train/test shards."""
    return {client_id: split_client_shard(dataset, client_id, indices,
                                          test_fraction=test_fraction,
                                          seed=seed)
            for client_id, indices in enumerate(partitions)}


# --------------------------------------------------------------------------
# Virtual federations: O(cohort) lazy construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FederationSpec:
    """A pure, picklable description of one federated dataset.

    Every client's shard is a deterministic function of this spec — the
    assignments and per-client generation derive only from ``(seed, spec)``
    — so a virtual federation can be rebuilt anywhere (another process, a
    broadcast worker) and materialize any single client bit-identically to
    the eager :func:`build_federated_dataset` path.
    """

    name: str
    num_clients: int
    partition: str = "pathological"
    classes_per_client: int = 2
    dirichlet_alpha: float = 0.5
    examples_per_client: int = 60
    test_fraction: float = 0.25
    style_scale: float = 2.5
    seed: int = 0

    def __post_init__(self) -> None:
        # fail fast at build time, eager or lazy: a bad spec must not
        # surface as a traceback inside a broadcast worker at round 0
        positive_int(self.num_clients, "num_clients")
        positive_int(self.classes_per_client, "classes_per_client")
        positive(self.dirichlet_alpha, "dirichlet_alpha")
        positive_int(self.examples_per_client, "examples_per_client")
        in_range(self.test_fraction, "test_fraction", 0, 1,
                 low_open=True, high_open=True)
        non_negative(self.style_scale, "style_scale")
        non_negative_int(self.seed, "seed")

    @property
    def generated(self) -> bool:
        """Whether shards are generated per client (no pooled base arrays).

        Generated federations (the personalized pathological shards and the
        naturally-partitioned Reddit corpus) have O(1)-sized transport: the
        spec alone rebuilds any client.  Pooled federations (``dirichlet`` /
        ``iid``) carry a base dataset plus index assignments.
        """
        return self.name == "reddit" or self.partition == "pathological"

    def build(self, *, shard_cache: int = 256) -> "VirtualFederatedDataset":
        return _build_virtual_dataset(self, shard_cache=shard_cache)


#: CSR-style pooled assignment: (base_x, base_y, indices, offsets)
PooledArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _PooledSource:
    """Lazily-built base dataset + index assignments of a pooled partition.

    The partition algorithms (``dirichlet``/``iid``) are global, so the base
    dataset and the full assignment are computed once on first touch — as
    index arrays only, never per-client row copies — and stored in CSR
    form (one concatenated index array + offsets), so ``install``-ing
    transported arrays is O(1) and a client's slice is carved on demand.
    """

    def __init__(self, spec: FederationSpec) -> None:
        self.spec = spec
        self._base: Optional[Dataset] = None
        self._indices: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None

    def _ensure(self) -> None:
        if self._base is not None:
            return
        spec = self.spec
        image_spec = IMAGE_SPECS[spec.name]
        total = spec.examples_per_client * spec.num_clients
        base = make_image_classification(image_spec, total, seed=spec.seed)
        if spec.partition == "dirichlet":
            parts = dirichlet_partition(base, spec.num_clients,
                                        spec.dirichlet_alpha, seed=spec.seed)
        elif spec.partition == "iid":
            parts = iid_partition(base, spec.num_clients, seed=spec.seed)
        else:
            raise ValueError(
                f"unknown partition strategy {spec.partition!r}")
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(part) for part in parts], out=offsets[1:])
        indices = (np.concatenate(parts).astype(np.int64)
                   if parts else np.zeros(0, dtype=np.int64))
        self._base, self._indices, self._offsets = base, indices, offsets

    def base(self) -> Dataset:
        self._ensure()
        return self._base

    def part(self, client_id: int) -> np.ndarray:
        """One client's index slice (a view into the CSR array)."""
        self._ensure()
        return self._indices[self._offsets[client_id]:
                             self._offsets[client_id + 1]]

    def install(self, arrays: PooledArrays) -> None:
        base_x, base_y, indices, offsets = arrays
        self._base = Dataset(base_x, base_y)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._offsets = np.asarray(offsets, dtype=np.int64)

    def arrays(self) -> PooledArrays:
        self._ensure()
        return self._base.x, self._base.y, self._indices, self._offsets


def _shard_builder(spec: FederationSpec,
                   pooled: Optional[_PooledSource]
                   ) -> Callable[[int], ClientData]:
    """The pure per-client shard builder behind a virtual federation."""
    if spec.name == "reddit":
        text_spec = TextSpec()
        cell: Dict[str, np.ndarray] = {}

        def build_reddit(client_id: int) -> ClientData:
            base = cell.get("base")
            if base is None:
                base = cell["base"] = reddit_base_chain(text_spec,
                                                        seed=spec.seed)
            shard = reddit_user_shard(client_id, base, text_spec,
                                      spec.examples_per_client, seed=spec.seed)
            train, test = shard.split(spec.test_fraction,
                                      seed=spec.seed + client_id)
            return ClientData(client_id, train, test)

        return build_reddit

    image_spec = IMAGE_SPECS[spec.name]
    if spec.partition == "pathological":
        proto_cell: Dict[str, np.ndarray] = {}

        def build_generated(client_id: int) -> ClientData:
            prototypes = proto_cell.get("prototypes")
            if prototypes is None:
                prototypes = proto_cell["prototypes"] = image_prototypes(
                    image_spec, seed=spec.seed)
            shard = personalized_image_shard(
                image_spec, client_id, spec.classes_per_client,
                spec.examples_per_client, prototypes,
                style_scale=spec.style_scale, seed=spec.seed)
            train, test = shard.split(spec.test_fraction,
                                      seed=spec.seed + client_id)
            return ClientData(client_id, train, test)

        return build_generated

    assert pooled is not None

    def build_pooled(client_id: int) -> ClientData:
        return split_client_shard(pooled.base(), client_id,
                                  pooled.part(client_id),
                                  test_fraction=spec.test_fraction,
                                  seed=spec.seed)

    return build_pooled


def _spec_metadata(spec: FederationSpec) -> Tuple[int, Tuple[int, ...], Dict]:
    """(num_classes, input_shape, metadata) without materializing a shard."""
    if spec.name == "reddit":
        text_spec = TextSpec()
        return text_spec.vocab_size, (text_spec.seq_len,), {
            "task": "next_word", "vocab_size": text_spec.vocab_size,
            "partition": "natural"}
    image_spec = IMAGE_SPECS[spec.name]
    shape = (image_spec.channels, image_spec.image_size, image_spec.image_size)
    return image_spec.num_classes, shape, {
        "task": "image_classification", "partition": spec.partition,
        "classes_per_client": spec.classes_per_client,
        "dirichlet_alpha": spec.dirichlet_alpha,
        "style_scale": spec.style_scale}


@dataclass
class VirtualFederatedDataset(FederatedDataset):
    """A federated dataset whose shards materialize lazily, O(cohort).

    Construction touches no client data at all: ``clients`` is a
    :class:`~repro.data.dataset.LazyShardMap` over the pure per-client
    builder derived from ``spec``.  ``transport_blocks`` exposes the raw
    arrays a broadcast session must carry (empty for generated federations,
    the pooled base + CSR assignment for ``dirichlet``/``iid``) so workers
    rebuild the federation with the same O(cohort) cost.
    """

    spec: Optional[FederationSpec] = None
    _pooled: Optional[_PooledSource] = None

    @property
    def shard_map(self) -> LazyShardMap:
        if not isinstance(self.clients, LazyShardMap):
            raise TypeError("virtual dataset lost its lazy shard map")
        return self.clients

    def transport_blocks(self) -> Dict[str, np.ndarray]:
        """Raw arrays a broadcast session ships alongside the spec."""
        if self.spec is None or self.spec.generated or self._pooled is None:
            return {}
        base_x, base_y, indices, offsets = self._pooled.arrays()
        return {"dataset/base/x": base_x, "dataset/base/y": base_y,
                "dataset/assign/indices": indices,
                "dataset/assign/offsets": offsets}

    @classmethod
    def from_spec(cls, spec: FederationSpec, *, shard_cache: int = 256,
                  pooled_arrays: Optional[PooledArrays] = None
                  ) -> "VirtualFederatedDataset":
        """Build a virtual federation, optionally from transported arrays."""
        dataset = _build_virtual_dataset(spec, shard_cache=shard_cache)
        if pooled_arrays is not None and dataset._pooled is not None:
            dataset._pooled.install(pooled_arrays)
        return dataset

    def __reduce__(self):
        # a virtual federation pickles as its pure spec — caches, closures
        # and any pooled base arrays are rebuilt on demand at the other
        # end; the plain descriptive fields travel as state so any
        # post-construction change to them survives the round trip
        if self.spec is not None and isinstance(self.clients, LazyShardMap):
            state = {"name": self.name, "num_classes": self.num_classes,
                     "input_shape": self.input_shape,
                     "metadata": self.metadata}
            return (_rebuild_virtual_dataset,
                    (self.spec, self.clients.cache_size), state)
        return super().__reduce__()


def _rebuild_virtual_dataset(spec: FederationSpec,
                             shard_cache: int) -> "VirtualFederatedDataset":
    return _build_virtual_dataset(spec, shard_cache=shard_cache)


def _build_virtual_dataset(spec: FederationSpec, *,
                           shard_cache: int = 256) -> VirtualFederatedDataset:
    if spec.name != "reddit":
        # an image shard is exactly examples_per_client rows and its
        # train/test split needs 2: the eager path fails at build time, so
        # this one does too (reddit user sizes have a floor above 2)
        in_range(spec.examples_per_client, "examples_per_client", 2)
        if spec.name not in IMAGE_SPECS:
            raise ValueError(f"unknown dataset {spec.name!r}")
        if spec.partition not in ("pathological", "dirichlet", "iid"):
            raise ValueError(f"unknown partition strategy {spec.partition!r}")
        num_classes = IMAGE_SPECS[spec.name].num_classes
        if spec.partition == "pathological":
            in_range(spec.classes_per_client, "classes_per_client", 1,
                     num_classes)
    pooled = None if spec.generated else _PooledSource(spec)
    builder = _shard_builder(spec, pooled)
    num_classes, input_shape, metadata = _spec_metadata(spec)
    shards = LazyShardMap(spec.num_clients, builder, cache_size=shard_cache)
    return VirtualFederatedDataset(
        name=spec.name, clients=shards, num_classes=num_classes,
        input_shape=input_shape, metadata=metadata, spec=spec, _pooled=pooled)


def build_federated_dataset(name: str, num_clients: int, *,
                            partition: str = "pathological",
                            classes_per_client: int = 2,
                            dirichlet_alpha: float = 0.5,
                            examples_per_client: int = 60,
                            test_fraction: float = 0.25,
                            style_scale: float = 2.5,
                            seed: int = 0,
                            lazy: bool = False,
                            shard_cache: int = 256) -> FederatedDataset:
    """Build a federated dataset for one of the five paper benchmarks.

    The default ``pathological`` partition combines the paper's label-skew
    shards with a client-specific style shift (see
    :func:`make_personalized_image_shards`), which is what makes the data
    genuinely non-IID for a shared global model.  ``dirichlet`` and ``iid``
    partitions operate on a pooled dataset without styles and are provided
    for sweeps and sanity baselines.  The Reddit stand-in is always
    partitioned naturally (one synthetic user per client) because it is
    inherently non-IID, exactly as in the paper.

    With ``lazy=True`` the returned dataset is a
    :class:`VirtualFederatedDataset`: construction is O(1), shards are
    materialized per client on demand (LRU-bounded by ``shard_cache``) and
    are bit-identical to the eager path for every partition strategy.
    """
    # the spec checks every number, for the eager path too
    name = name.lower()
    federation = FederationSpec(
        name=name, num_clients=num_clients, partition=partition,
        classes_per_client=classes_per_client,
        dirichlet_alpha=dirichlet_alpha,
        examples_per_client=examples_per_client,
        test_fraction=test_fraction, style_scale=style_scale, seed=seed)
    if lazy:
        return federation.build(shard_cache=shard_cache)

    if name == "reddit":
        user_datasets, spec = synthetic_reddit_users(
            num_clients, examples_per_client, seed=seed)
        clients: Dict[int, ClientData] = {}
        for client_id, shard in enumerate(user_datasets):
            train, test = shard.split(test_fraction, seed=seed + client_id)
            clients[client_id] = ClientData(client_id, train, test)
        return FederatedDataset(
            name="reddit", clients=clients, num_classes=spec.vocab_size,
            input_shape=(spec.seq_len,),
            metadata={"task": "next_word", "vocab_size": spec.vocab_size,
                      "partition": "natural"})

    if name not in IMAGE_SPECS:
        raise ValueError(f"unknown dataset {name!r}")
    spec = IMAGE_SPECS[name]

    if partition == "pathological":
        shards = make_personalized_image_shards(
            spec, num_clients, classes_per_client, examples_per_client,
            style_scale=style_scale, seed=seed)
        clients = {}
        for client_id, shard in enumerate(shards):
            train, test = shard.split(test_fraction, seed=seed + client_id)
            clients[client_id] = ClientData(client_id, train, test)
    else:
        total_examples = examples_per_client * num_clients
        dataset = make_image_classification(spec, total_examples, seed=seed)
        if partition == "dirichlet":
            parts = dirichlet_partition(dataset, num_clients, dirichlet_alpha,
                                        seed=seed)
        elif partition == "iid":
            parts = iid_partition(dataset, num_clients, seed=seed)
        else:
            raise ValueError(f"unknown partition strategy {partition!r}")
        clients = partition_to_clients(dataset, parts,
                                       test_fraction=test_fraction, seed=seed)

    return FederatedDataset(
        name=name, clients=clients, num_classes=spec.num_classes,
        input_shape=(spec.channels, spec.image_size, spec.image_size),
        metadata={"task": "image_classification", "partition": partition,
                  "classes_per_client": classes_per_client,
                  "dirichlet_alpha": dirichlet_alpha,
                  "style_scale": style_scale})
