"""Simulated clock and completion-event queue for the event-driven server.

The asynchronous schedulers never look at real wall-clock time: every client
completion is a :class:`ClientEvent` whose ``finish_time`` is derived from
the scenario/cost-model latency of its dispatch, and the
:class:`EventQueue` orders events by the pure sort key ``(finish_time,
client_id)``.  Because both components of the key are deterministic
functions of ``(seed, round_index, client_id)``, the order in which the
server consumes completions — and therefore every aggregation it performs —
is bit-identical across the serial/thread/process executor backends, no
matter in which real-time order the workers actually finished.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List

from ..federated.strategy import ClientUpdate
from ..systems.cost import CostBreakdown


@dataclass(frozen=True)
class ClientEvent:
    """One client's completed local update, scheduled at its sim finish time.

    ``round_index`` is the dispatch round (the global parameters the client
    trained on); ``dispatch_version`` is the server's aggregation version at
    dispatch, from which staleness is measured when the event is consumed.
    """

    finish_time: float
    client_id: int
    round_index: int
    dispatch_version: int
    update: ClientUpdate = field(compare=False)
    cost: CostBreakdown = field(compare=False)


class EventQueue:
    """Min-heap of :class:`ClientEvent` ordered by ``(finish_time, client_id)``.

    A client has at most one event in flight (the schedulers refuse to
    re-dispatch a busy client), so the sort key is a total order and pops are
    fully deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []

    def push(self, event: ClientEvent) -> None:
        heapq.heappush(self._heap, (event.finish_time, event.client_id, event))

    def pop(self) -> ClientEvent:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def snapshot(self) -> List[ClientEvent]:
        """Every queued event in ``(finish_time, client_id)`` order.

        Non-destructive (used by checkpointing); the sort key is a total
        order because a client has at most one event in flight, so the
        snapshot — and a queue rebuilt by pushing it back — is
        deterministic regardless of internal heap layout.
        """
        return [entry[2] for entry in sorted(self._heap)]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimClock:
    """Monotonic simulated wall clock advanced by consumed events."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance_to(self, timestamp: float) -> float:
        """Move forward to ``timestamp`` (never backwards) and return now.

        An event can legitimately carry a finish time in the clock's past —
        a straggler from an old round consumed after newer, faster arrivals
        already advanced the clock — in which case consuming it costs no
        additional sim time.
        """
        self.now = max(self.now, float(timestamp))
        return self.now

    def __repr__(self) -> str:
        return f"SimClock(now={self.now})"
