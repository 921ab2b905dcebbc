"""Weight initializers for the numpy neural-network substrate."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def glorot_uniform(rng: np.random.Generator, shape: Tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def he_uniform(rng: np.random.Generator, shape: Tuple[int, ...],
               fan_in: int) -> np.ndarray:
    """He/Kaiming uniform initialization (suited to ReLU networks)."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def normal(rng: np.random.Generator, shape: Tuple[int, ...],
           std: float = 0.01) -> np.ndarray:
    """Zero-mean Gaussian initialization."""
    return (rng.standard_normal(size=shape) * std).astype(np.float64)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zeros initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)
