"""Small neutral utilities shared across otherwise-unrelated layers.

This module deliberately has no intra-package imports: the lazy data layer,
the broadcast transport, the checkpoint subsystem and the experiment cache
all sit at different depths of the dependency graph, yet share one
bounded-LRU eviction policy (so O(cohort) memory accounting is identical
everywhere a cache appears), one canonical-JSON reduction (so every content
hash in the repo agrees on what "the same spec" means) and one meaning of
"a valid number" (:func:`in_range`, for every config, constructor and CLI
option).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import partial
from numbers import Integral, Real
from typing import Mapping, Optional


def in_range(value, name: str, low: Optional[float] = None,
             high: Optional[float] = None, *, low_open: bool = False,
             high_open: bool = False, integral: bool = False,
             optional: bool = False):
    """``value`` unchanged if it is a finite number from ``low`` to ``high``
    (``None``: unbounded; ``*_open``: excluded), or ``None`` and ``optional``.

    NaN, +/-inf and values outside raise ``ValueError``; a ``bool``, ``str``
    or other non-number (non-int if ``integral``) raises ``TypeError``.
    """
    if optional and value is None:
        return value
    if isinstance(value, bool) or not isinstance(
            value, Integral if integral else Real):
        raise TypeError(f"{name} must be {'an int' if integral else 'a number'}"
                        f", got {value!r}")
    if ((integral or math.isfinite(value))
            and (low is None or (value > low if low_open else value >= low))
            and (high is None or (value < high if high_open else value <= high))):
        return value
    if low is None and high is None:
        wanted = ""
    elif low == 0 and high is None:
        wanted = "positive" if low_open else "non-negative"
    else:
        wanted = (f"in {'(' if low_open or low is None else '['}"
                  f"{'-inf' if low is None else low}, "
                  f"{'inf' if high is None else high}"
                  f"{')' if high_open or high is None else ']'}")
    if not integral and None in (low, high):
        wanted = f"{wanted} and finite" if wanted else "finite"
    raise ValueError(f"{name} must be {wanted}, got {value!r}")


positive = partial(in_range, low=0, low_open=True)
non_negative = partial(in_range, low=0)
positive_int = partial(in_range, low=0, low_open=True, integral=True)
non_negative_int = partial(in_range, low=0, integral=True)


class BoundedLRU:
    """A small bounded LRU over an ``OrderedDict``.

    The one cache-eviction policy shared by the lazy layers (shard map,
    broadcast worker cache, socket handle registry, checkpoint load memo):
    touch on hit, insert then evict oldest while over the bound.  Keeping
    it in one place keeps the O(cohort) memory accounting identical
    everywhere it is used.
    """

    def __init__(self, bound: int) -> None:
        self.bound = positive_int(bound, "cache bound")
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key):
        """The cached value (refreshed to most-recent), or None."""
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
        return hit

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._evict()

    def resize(self, bound: int) -> None:
        self.bound = positive_int(bound, "cache bound")
        self._evict()

    def _evict(self) -> None:
        while len(self._entries) > self.bound:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries


def canonicalize(value: object) -> object:
    """Reduce a value to a pure-JSON form independent of construction order.

    ``json.dumps(..., sort_keys=True)`` alone is not enough for stable keys:
    non-string dict keys survive as insertion-ordered after a load/compare
    round trip (``{1: x}`` dumps to ``{"1": x}`` and no longer equals the
    original spec), sets have no defined order, and anything hitting a
    ``default=repr`` fallback keeps whatever ordering its repr uses.  This
    walk makes every mapping string-keyed and sorted, every set sorted, and
    every exotic object an explicit repr — so two specs built with different
    key insertion orders hash to the same cache entry and compare equal
    after a JSON round trip.
    """
    if isinstance(value, Mapping):
        keys = sorted(value, key=str)
        if len({str(key) for key in keys}) != len(keys):
            # e.g. {1: ..., "1": ...} — stringifying would silently drop an
            # entry and make the result depend on insertion order; a loud
            # error beats a wrong cache hit
            raise ValueError(
                f"mapping keys collide after str() conversion: {keys!r}")
        return {str(key): canonicalize(value[key]) for key in keys}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonicalize(item) for item in value), key=repr)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    return repr(value)
