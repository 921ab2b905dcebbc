"""The multi-layer perceptron the unit tests build (no experiment uses it)."""

from typing import Sequence

import numpy as np

from repro.nn import Dense, ReLU, Sequential


def build_mlp(input_dim: int, hidden_dims: Sequence[int], num_classes: int, *,
              seed: int = 0, name: str = "mlp") -> Sequential:
    """Multi-layer perceptron; hidden neurons are the sparsifiable units."""
    if not hidden_dims:
        raise ValueError("an MLP needs at least one hidden layer")
    rng = np.random.default_rng(seed)
    layers = []
    previous = input_dim
    for index, width in enumerate(hidden_dims):
        layers.append(Dense(previous, width, name=f"fc{index + 1}", rng=rng))
        layers.append(ReLU(name=f"relu{index + 1}"))
        previous = width
    layers.append(Dense(previous, num_classes, name="head",
                        sparsifiable=False, rng=rng))
    return Sequential(layers, input_shape=(input_dim,), name=name)
