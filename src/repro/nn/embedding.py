"""Token embedding layer for sequence models."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..util import positive_int
from . import initializers
from .base import Array, Layer


class Embedding(Layer):
    """Lookup table mapping integer token ids to dense vectors.

    Input: integer array of shape ``(N, T)``.  Output: ``(N, T, dim)``.
    Embeddings are not structurally sparsified (they carry vocabulary rather
    than representation units), matching how the paper treats the RNN model.
    """

    _scratch = ("_tokens",)

    def __init__(self, vocab_size: int, dim: int, *, name: str = "embedding",
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(name)
        self.vocab_size = positive_int(vocab_size, "vocab_size")
        self.dim = positive_int(dim, "dim")
        rng = rng or np.random.default_rng(0)
        self.params = {"W": initializers.normal(rng, (vocab_size, dim), std=0.1)}
        self.zero_grad()
        self._tokens: Array | None = None

    def forward(self, x: Array, *, train: bool = True) -> Array:
        tokens = np.asarray(x)
        if not np.issubdtype(tokens.dtype, np.integer):
            raise ValueError(f"{self.name}: embedding input must be integer token ids")
        if tokens.min() < 0 or tokens.max() >= self.vocab_size:
            raise ValueError(
                f"{self.name}: token ids must be in [0, {self.vocab_size})")
        self._tokens = tokens
        return self.params["W"][tokens]

    def backward(self, grad_out: Array) -> Array:
        if self._tokens is None:
            raise RuntimeError("backward called before forward")
        flat_tokens = self._tokens.reshape(-1)
        flat_grad = grad_out.reshape(-1, self.dim)
        np.add.at(self.grads["W"], flat_tokens, flat_grad)
        # token inputs have no gradient
        return np.zeros(self._tokens.shape, dtype=np.float64)

    def flops_per_example(self, input_shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        (seq_len,) = input_shape
        return 0, (seq_len, self.dim)
