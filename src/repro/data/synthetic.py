"""Synthetic stand-ins for the paper's benchmark datasets.

The evaluation in the paper uses MNIST, CIFAR-10, CIFAR-100, Tiny-ImageNet
and the LEAF Reddit corpus.  None of those can be downloaded in this offline
environment, so this module generates synthetic datasets that preserve the
properties the experiments rely on:

* image classification with a configurable number of classes, where classes
  are separable but noisy (class-prototype Gaussians with smooth structure),
  so accuracy responds to model capacity, sparsity and data skew the same way
  the real benchmarks do qualitatively;
* a naturally non-IID next-word-prediction corpus where every user has its
  own token distribution (per-user Markov chains), mirroring Reddit's
  "different users speak differently" property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..util import in_range, positive_int
from .dataset import Dataset


@dataclass(frozen=True)
class ImageSpec:
    """Shape and difficulty knobs of a synthetic image classification task."""

    num_classes: int
    channels: int
    image_size: int
    noise_scale: float = 0.6
    prototype_scale: float = 1.0


IMAGE_SPECS: Dict[str, ImageSpec] = {
    # Small class counts / resolutions chosen so CPU-only federated runs stay
    # fast; the class-count ordering (10 < 10 < 20 < 40) and the noise levels
    # mirror the paper's MNIST < CIFAR10 < CIFAR100 < Tiny-ImageNet difficulty
    # ordering.
    "mnist": ImageSpec(num_classes=10, channels=1, image_size=16, noise_scale=1.0),
    "cifar10": ImageSpec(num_classes=10, channels=3, image_size=16, noise_scale=1.2),
    "cifar100": ImageSpec(num_classes=20, channels=3, image_size=16, noise_scale=1.2),
    "tinyimagenet": ImageSpec(num_classes=40, channels=3, image_size=16,
                              noise_scale=1.4),
}


def _smooth_prototype(rng: np.random.Generator, channels: int,
                      size: int) -> np.ndarray:
    """A spatially smooth random pattern acting as one class's prototype."""
    coarse = rng.standard_normal((channels, max(size // 4, 2), max(size // 4, 2)))
    upsampled = np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2)
    return upsampled[:, :size, :size]


def make_image_classification(spec: ImageSpec, num_examples: int, *,
                              seed: int = 0) -> Dataset:
    """Generate a class-prototype Gaussian image classification dataset."""
    positive_int(num_examples, "num_examples")
    rng = np.random.default_rng(seed)
    prototypes = np.stack([
        spec.prototype_scale * _smooth_prototype(rng, spec.channels, spec.image_size)
        for _ in range(spec.num_classes)
    ])
    labels = rng.integers(0, spec.num_classes, size=num_examples)
    noise = rng.standard_normal(
        (num_examples, spec.channels, spec.image_size, spec.image_size))
    images = prototypes[labels] + spec.noise_scale * noise
    return Dataset(images.astype(np.float64), labels.astype(np.int64))


def image_prototypes(spec: ImageSpec, *, seed: int = 0) -> np.ndarray:
    """The class prototypes shared by every client of one federation.

    A pure function of ``(spec, seed)``: the prototypes draw from a fresh
    ``default_rng(seed)`` and nothing else, so eager and lazy shard builders
    agree bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    return np.stack([
        spec.prototype_scale * _smooth_prototype(rng, spec.channels, spec.image_size)
        for _ in range(spec.num_classes)
    ])


def personalized_image_shard(spec: ImageSpec, client_id: int,
                             classes_per_client: int,
                             examples_per_client: int,
                             prototypes: np.ndarray, *,
                             style_scale: float = 1.0,
                             seed: int = 0) -> Dataset:
    """One client's personalized shard, pure in ``(seed, client_id)``.

    This is the loop body of :func:`make_personalized_image_shards` factored
    out so a virtual fleet can materialize a single client without touching
    the other ``num_clients - 1``.
    """
    positive_int(examples_per_client, "examples_per_client")
    in_range(classes_per_client, "classes_per_client", 1, spec.num_classes,
             integral=True)
    client_rng = np.random.default_rng(seed * 99_991 + client_id + 17)
    classes = client_rng.choice(spec.num_classes, size=classes_per_client,
                                replace=False)
    style = style_scale * _smooth_prototype(client_rng, spec.channels,
                                            spec.image_size)
    labels = client_rng.choice(classes, size=examples_per_client)
    noise = client_rng.standard_normal(
        (examples_per_client, spec.channels, spec.image_size, spec.image_size))
    images = prototypes[labels] + style[None] + spec.noise_scale * noise
    return Dataset(images.astype(np.float64), labels.astype(np.int64))


def make_personalized_image_shards(spec: ImageSpec, num_clients: int,
                                   classes_per_client: int,
                                   examples_per_client: int, *,
                                   style_scale: float = 1.0,
                                   seed: int = 0) -> List[Dataset]:
    """Per-client image shards with label skew *and* client-specific style.

    Every client is assigned ``classes_per_client`` classes (pathological
    label skew) and, in addition, a private "style" offset added to all of its
    images.  The style models the user-specific appearance drift that makes
    real federated image data personal (lighting, sensor, handwriting):
    a single global model must become style-invariant, whereas a personalized
    model only has to separate its own classes under its own style.  This is
    the property that drives the personalized-vs-conventional accuracy gap in
    the paper's evaluation.
    """
    positive_int(num_clients, "num_clients")
    prototypes = image_prototypes(spec, seed=seed)
    return [personalized_image_shard(spec, client, classes_per_client,
                                     examples_per_client, prototypes,
                                     style_scale=style_scale, seed=seed)
            for client in range(num_clients)]


def synthetic_mnist(num_examples: int = 2000, *, seed: int = 0) -> Dataset:
    """Synthetic MNIST stand-in: 10 classes, single channel."""
    return make_image_classification(IMAGE_SPECS["mnist"], num_examples, seed=seed)


def synthetic_cifar10(num_examples: int = 2000, *, seed: int = 0) -> Dataset:
    """Synthetic CIFAR-10 stand-in: 10 classes, three channels, noisier."""
    return make_image_classification(IMAGE_SPECS["cifar10"], num_examples, seed=seed)


def synthetic_cifar100(num_examples: int = 2000, *, seed: int = 0) -> Dataset:
    """Synthetic CIFAR-100 stand-in (20 super-classes)."""
    return make_image_classification(IMAGE_SPECS["cifar100"], num_examples, seed=seed)


def synthetic_tinyimagenet(num_examples: int = 2000, *, seed: int = 0) -> Dataset:
    """Synthetic Tiny-ImageNet stand-in (40 classes, highest noise)."""
    return make_image_classification(IMAGE_SPECS["tinyimagenet"], num_examples,
                                     seed=seed)


# --------------------------------------------------------------------------
# Reddit-style next-word prediction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TextSpec:
    """Knobs of the synthetic per-user language-modelling corpus."""

    vocab_size: int = 60
    seq_len: int = 8
    base_concentration: float = 0.3
    user_concentration: float = 0.15


def _user_transition_matrix(rng: np.random.Generator, base: np.ndarray,
                            spec: TextSpec) -> np.ndarray:
    """Mix the shared base Markov chain with a user-specific perturbation."""
    user = rng.dirichlet(np.full(spec.vocab_size, spec.user_concentration),
                         size=spec.vocab_size)
    mixed = 0.5 * base + 0.5 * user
    return mixed / mixed.sum(axis=1, keepdims=True)


def reddit_base_chain(spec: TextSpec, *, seed: int = 0) -> np.ndarray:
    """The shared base Markov chain of one federation (pure in the seed)."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(spec.vocab_size, spec.base_concentration),
                         size=spec.vocab_size)


def reddit_user_shard(user: int, base: np.ndarray, spec: TextSpec,
                      examples_per_user: int, *, seed: int = 0) -> Dataset:
    """One user's next-word shard, pure in ``(seed, user)`` given ``base``."""
    user_rng = np.random.default_rng(seed * 100_003 + user + 1)
    transition = _user_transition_matrix(user_rng, base, spec)
    count = int(np.clip(
        round(examples_per_user * float(np.exp(user_rng.normal(0.0, 0.4)))),
        spec.seq_len + 2, 4 * examples_per_user))
    tokens = np.empty(count + spec.seq_len + 1, dtype=np.int64)
    tokens[0] = user_rng.integers(0, spec.vocab_size)
    for t in range(1, len(tokens)):
        tokens[t] = user_rng.choice(spec.vocab_size, p=transition[tokens[t - 1]])
    windows = np.stack([tokens[i:i + spec.seq_len] for i in range(count)])
    targets = tokens[spec.seq_len:spec.seq_len + count]
    return Dataset(windows, targets)


def synthetic_reddit_users(num_users: int, examples_per_user: int = 120, *,
                           spec: TextSpec | None = None,
                           seed: int = 0) -> Tuple[List[Dataset], TextSpec]:
    """Generate one next-word-prediction dataset per simulated user.

    Every user owns a distinct Markov chain over the shared vocabulary, so the
    federation is inherently non-IID, and users receive different sample
    counts (drawn log-uniformly around ``examples_per_user``) to mirror the
    LEAF Reddit statistics.
    """
    positive_int(num_users, "num_users")
    spec = spec or TextSpec()
    base = reddit_base_chain(spec, seed=seed)
    datasets = [reddit_user_shard(user, base, spec, examples_per_user,
                                  seed=seed)
                for user in range(num_users)]
    return datasets, spec


def synthetic_reddit(num_examples: int = 2000, *, num_users: int = 20,
                     seed: int = 0) -> Dataset:
    """A pooled (non-federated) view of the synthetic Reddit corpus."""
    # per-user sample counts are randomized, so over-generate and trim
    per_user = max(2 * num_examples // num_users, 20)
    datasets, _ = synthetic_reddit_users(num_users, per_user, seed=seed)
    x = np.concatenate([d.x for d in datasets])
    y = np.concatenate([d.y for d in datasets])
    while len(y) < num_examples:
        x = np.concatenate([x, x])
        y = np.concatenate([y, y])
    return Dataset(x[:num_examples], y[:num_examples])


DATASET_BUILDERS = {
    "mnist": synthetic_mnist,
    "cifar10": synthetic_cifar10,
    "cifar100": synthetic_cifar100,
    "tinyimagenet": synthetic_tinyimagenet,
    "reddit": synthetic_reddit,
}
