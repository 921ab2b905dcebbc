"""Model zoo: backbones used by the FedLPS experiments.

The paper trains a 2-conv CNN (MNIST), VGG11/13/16 (CIFAR-10/100,
Tiny-ImageNet) and a 2-layer LSTM language model (Reddit).  This zoo provides
CPU-sized counterparts with the same *structural roles*: convolution channels,
fully-connected neurons and recurrent hidden units are the sparsifiable units
that FedLPS's learnable patterns act on.  Every builder accepts a ``seed`` so
that federated experiments are reproducible, and every model keeps its output
layer dense (non-sparsifiable) as in the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import (LSTM, Conv2d, Dense, Embedding, Flatten, LastTimestep,
                  MaxPool2d, ReLU, Sequential)


def build_cnn(in_channels: int, image_size: int, num_classes: int, *,
              channels: Sequence[int] = (8, 16), hidden_dim: int = 32,
              seed: int = 0, name: str = "cnn") -> Sequential:
    """Two-convolution CNN in the spirit of the paper's MNIST backbone."""
    if len(channels) != 2:
        raise ValueError("build_cnn expects exactly two convolution widths")
    if image_size % 4 != 0:
        raise ValueError("image_size must be divisible by 4 (two 2x2 pools)")
    rng = np.random.default_rng(seed)
    reduced = image_size // 4
    layers = [
        Conv2d(in_channels, channels[0], 3, padding=1, name="conv1", rng=rng),
        ReLU(name="relu1"),
        MaxPool2d(2, name="pool1"),
        Conv2d(channels[0], channels[1], 3, padding=1, name="conv2", rng=rng),
        ReLU(name="relu2"),
        MaxPool2d(2, name="pool2"),
        Flatten(name="flatten"),
        Dense(channels[1] * reduced * reduced, hidden_dim, name="fc1", rng=rng),
        ReLU(name="relu3"),
        Dense(hidden_dim, num_classes, name="head", sparsifiable=False, rng=rng),
    ]
    return Sequential(layers, input_shape=(in_channels, image_size, image_size),
                      name=name)


def build_vgg_style(in_channels: int, image_size: int, num_classes: int, *,
                    blocks: Sequence[int] = (8, 16, 32), hidden_dim: int = 64,
                    seed: int = 0, name: str = "vgg_small") -> Sequential:
    """VGG-style stack of conv blocks (conv-relu-pool), scaled for CPU.

    ``blocks`` gives the channel width of each block; the paper's VGG11/13/16
    map to progressively deeper/wider variants of this builder.
    """
    if image_size % (2 ** len(blocks)) != 0:
        raise ValueError(
            f"image_size {image_size} must be divisible by {2 ** len(blocks)}")
    rng = np.random.default_rng(seed)
    layers = []
    previous = in_channels
    size = image_size
    for index, width in enumerate(blocks):
        layers.append(Conv2d(previous, width, 3, padding=1,
                             name=f"conv{index + 1}", rng=rng))
        layers.append(ReLU(name=f"relu{index + 1}"))
        layers.append(MaxPool2d(2, name=f"pool{index + 1}"))
        previous = width
        size //= 2
    layers.append(Flatten(name="flatten"))
    layers.append(Dense(previous * size * size, hidden_dim, name="fc1", rng=rng))
    layers.append(ReLU(name="relu_fc"))
    layers.append(Dense(hidden_dim, num_classes, name="head",
                        sparsifiable=False, rng=rng))
    return Sequential(layers, input_shape=(in_channels, image_size, image_size),
                      name=name)


def build_lstm_lm(vocab_size: int, *, embed_dim: int = 16, hidden_dim: int = 32,
                  num_layers: int = 2, seq_len: int = 10, seed: int = 0,
                  name: str = "lstm_lm") -> Sequential:
    """Next-word-prediction model: embedding, stacked LSTMs, softmax head.

    The model predicts the token following the input window, matching the
    paper's Reddit setup (2 LSTM layers + softmax layer).
    """
    if num_layers < 1:
        raise ValueError("num_layers must be at least 1")
    rng = np.random.default_rng(seed)
    layers = [Embedding(vocab_size, embed_dim, name="embedding", rng=rng)]
    previous = embed_dim
    for index in range(num_layers):
        layers.append(LSTM(previous, hidden_dim, name=f"lstm{index + 1}", rng=rng))
        previous = hidden_dim
    layers.append(LastTimestep(name="last"))
    layers.append(Dense(previous, vocab_size, name="head",
                        sparsifiable=False, rng=rng))
    return Sequential(layers, input_shape=(seq_len,), name=name)


def build_model_for_dataset(dataset: str, *, seed: int = 0) -> Sequential:
    """Build the default backbone for one of the five paper datasets.

    Supported names: ``mnist``, ``cifar10``, ``cifar100``, ``tinyimagenet``,
    ``reddit`` (synthetic stand-ins, see README "Departures from the paper").
    """
    dataset = dataset.lower()
    if dataset == "mnist":
        return build_cnn(1, 16, 10, channels=(4, 8), hidden_dim=32,
                         seed=seed, name="cnn_mnist")
    if dataset == "cifar10":
        return build_vgg_style(3, 16, 10, blocks=(8, 16), hidden_dim=32,
                               seed=seed, name="vgg11_small")
    if dataset == "cifar100":
        return build_vgg_style(3, 16, 20, blocks=(8, 16, 32), hidden_dim=64,
                               seed=seed, name="vgg13_small")
    if dataset == "tinyimagenet":
        return build_vgg_style(3, 16, 40, blocks=(8, 16, 32), hidden_dim=64,
                               seed=seed, name="vgg16_small")
    if dataset == "reddit":
        return build_lstm_lm(60, embed_dim=12, hidden_dim=24, num_layers=2,
                             seq_len=8, seed=seed, name="lstm_reddit")
    raise ValueError(f"unknown dataset {dataset!r}")
