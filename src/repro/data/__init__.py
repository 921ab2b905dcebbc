"""Synthetic datasets, non-IID partitioners and the federated containers."""

from .dataset import ClientData, Dataset, FederatedDataset, LazyShardMap
from .partition import (FederationSpec, VirtualFederatedDataset,
                        build_federated_dataset, dirichlet_partition,
                        iid_partition, partition_to_clients,
                        split_client_shard)
from .synthetic import (DATASET_BUILDERS, IMAGE_SPECS, ImageSpec, TextSpec,
                        image_prototypes, make_image_classification,
                        make_personalized_image_shards,
                        personalized_image_shard, synthetic_cifar10,
                        synthetic_cifar100, synthetic_mnist, synthetic_reddit,
                        synthetic_reddit_users, synthetic_tinyimagenet)

__all__ = [
    "Dataset",
    "ClientData",
    "FederatedDataset",
    "LazyShardMap",
    "FederationSpec",
    "VirtualFederatedDataset",
    "build_federated_dataset",
    "split_client_shard",
    "image_prototypes",
    "personalized_image_shard",
    "iid_partition",
    "dirichlet_partition",
    "partition_to_clients",
    "ImageSpec",
    "TextSpec",
    "IMAGE_SPECS",
    "DATASET_BUILDERS",
    "make_image_classification",
    "make_personalized_image_shards",
    "synthetic_mnist",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "synthetic_tinyimagenet",
    "synthetic_reddit",
    "synthetic_reddit_users",
]
