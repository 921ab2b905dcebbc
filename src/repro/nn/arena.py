"""Flat arenas: one float64 buffer behind a dictionary of per-key views.

A training program keeps its parameters, gradients and gate gradients in
arenas, and every layer holds views into them.  A trainer then runs each
element-wise bookkeeping operation (proximal pull, mask, clip scale,
momentum, SGD step, importance update) as ONE ufunc call over
:attr:`Arena.flat` instead of one small call per key, while every reduction
still runs per key on a view that is byte for byte the C-contiguous stack it
used to reduce.

Layout: each key is one contiguous block, key after key in the order given,
so a key's view is C-contiguous and shaped exactly like a separately
allocated array.  Every block carries the client axis first — ``(C, ...)``
parameter stacks, ``(C, n_units)`` unit rows — which is what
:meth:`Arena.expand` and :func:`cohort_squared_norms` read.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Optional, Tuple

import numpy as np

__all__ = ["Arena", "cohort_squared_norms"]


class Arena(Mapping[str, np.ndarray]):
    """A read-only ``{key: view}`` mapping over one flat float64 buffer.

    The mapping cannot be rebound (``arena[key] = ...`` raises); its views
    are written in place.  :attr:`flat` is the whole buffer.
    """

    def __init__(self, layout: Mapping[str, Tuple[int, ...]],
                 flat: Optional[np.ndarray] = None) -> None:
        blocks, stop = [], 0
        for key, shape in layout.items():
            shape = tuple(int(n) for n in shape)
            start, stop = stop, stop + math.prod(shape)
            blocks.append((key, shape, start, stop))
        self._bind(blocks, np.zeros(stop) if flat is None else flat)

    def _bind(self, blocks: list, flat: np.ndarray) -> None:
        self._blocks = blocks
        self.flat = flat
        self._views = {key: flat[start:stop].reshape(shape)
                       for key, shape, start, stop in blocks}
        self._index: Optional[np.ndarray] = None

    @classmethod
    def of(cls, arrays: Mapping[str, np.ndarray]) -> "Arena":
        """A fresh arena holding float64 copies of ``arrays``, in their order."""
        arena = cls({key: np.shape(value) for key, value in arrays.items()})
        for key, value in arrays.items():
            arena._views[key][...] = value
        return arena

    def like(self) -> "Arena":
        """A fresh zeroed arena with the same layout."""
        arena = object.__new__(Arena)
        arena._bind(self._blocks, np.zeros(self.flat.size))
        return arena

    def load(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the views: every key must be present with
        its view's exact shape (extra keys are ignored)."""
        for key, view in self._views.items():
            if key not in arrays:
                raise KeyError(f"missing parameter {key!r}")
            value = np.asarray(arrays[key], dtype=np.float64)
            if value.shape != view.shape:
                raise ValueError(f"shape mismatch for {key!r}: "
                                 f"{value.shape} vs {view.shape}")
            view[...] = value

    def expand(self, values: np.ndarray) -> np.ndarray:
        """A flat per-element vector from per-client ``(C,)`` values:
        every element of a key's row ``c`` gets ``values[c]``."""
        if self._index is None:
            # every element's client, each block's rows run in memory order
            self._index = np.concatenate(
                [np.repeat(np.arange(shape[0]), math.prod(shape[1:]))
                 for _, shape, _, _ in self._blocks])
        return np.take(np.asarray(values, dtype=np.float64), self._index)

    def __getitem__(self, key: str) -> np.ndarray:
        return self._views[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __reduce__(self):
        # pickles and copies rebuild the views over their own buffer
        return Arena, ({key: shape for key, shape, _, _ in self._blocks},
                       self.flat)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Arena({[block[:2] for block in self._blocks]!r})"


def cohort_squared_norms(values: Arena, out: Arena) -> np.ndarray:
    """Per-client sum of squares of an arena's ``(C, ...)`` blocks.

    One flat ``np.square`` into ``out`` (which may be ``values``), then per
    key the last-axis sum of the ``(C, -1)`` view, accumulated over keys in
    order starting from ``0.0``.  Row ``c`` reproduces ``sum(np.sum(value[c]
    ** 2) for value in ...)`` bit for bit: each key's view is the
    C-contiguous stack, whose rows reduce with the same pairwise tree as the
    sequential full-array ``np.sum``.
    """
    np.square(values.flat, out=out.flat)
    totals = 0.0
    for view in out.values():
        totals = totals + np.add.reduce(view.reshape(len(view), -1), axis=-1)
    return totals
