"""The completion-event queue of the event-driven server.

The asynchronous scheduler never looks at real wall-clock time: every client
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
from typing import (Any, Callable, List, NamedTuple, Optional, Tuple,
                    Union)

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


class SpilledEvent(NamedTuple):
    """What the queue holds in place of an event whose blob is on disk.

    Its fields are the event's heap position ``(finish_time, client_id)``
    and its round, so a checkpoint head stores it as the entry's stub and
    a resume rebuilds the queue from it unread; the loader reads the event
    back by its checkpoint key ``(round_index, client_id)``
    (:meth:`EventQueue.spill`).
    """

    finish_time: float
    client_id: int
    round_index: int


#: reads a spilled event back by its ``(round_index, client_id)`` key
EventLoader = Callable[[Tuple[int, int]], ClientEvent]


class EventQueue:
    """Min-heap of :class:`ClientEvent` ordered by ``(finish_time, client_id)``.

    A client has at most one event in flight (the schedulers refuse to
    re-dispatch a busy client), so the sort key is a total order and pops are
    fully deterministic.

    Each heap entry is ``(finish_time, client_id, entry)``, where ``entry``
    is the event itself or, once the checkpoint layer has spilled it (or a
    resume pushed it unread), a :class:`SpilledEvent` stub that
    :meth:`pop` reads back through the loader :meth:`spill` installed.
    Only this module touches the heap (``tools/invariants.py``:
    ``queue-entries-through-the-queue``), so a stub never reaches code
    that expects an event.  :meth:`snapshot` is
    the one exception: it returns stubs unread, because its caller, a
    checkpoint capture, already references their blobs.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._loader: Optional[EventLoader] = None

    def push(self, event: Union[ClientEvent, SpilledEvent]) -> None:
        heapq.heappush(self._heap, (event.finish_time, event.client_id, event))

    def pop(self) -> ClientEvent:
        """The earliest event, read back first if it was spilled.

        A read that fails (the loader's error) leaves the queue as it was.
        """
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        entry = self._heap[0][2]
        if isinstance(entry, SpilledEvent):
            entry = self._loader((entry.round_index, entry.client_id))
        heapq.heappop(self._heap)
        return entry

    def snapshot(self) -> List[Union[ClientEvent, SpilledEvent]]:
        """Every queued entry in ``(finish_time, client_id)`` order.

        Non-destructive (used by checkpointing); the sort key is a total
        order because a client has at most one event in flight, so the
        snapshot — and a queue rebuilt by pushing it back — is
        deterministic regardless of internal heap layout.  A spilled event
        comes back as its :class:`SpilledEvent` stub, unread.
        """
        return [entry[2] for entry in sorted(self._heap)]

    def spill(self, loader: EventLoader) -> None:
        """Let go of every queued event; ``loader`` reads one back on pop.

        Called by the checkpoint layer once a boundary is on disk, so each
        queued event has a blob ``loader`` can read.  The heap's order is
        untouched: only the entries' payloads change.
        """
        self._loader = loader
        for index, (finish_time, client_id, entry) in enumerate(self._heap):
            if isinstance(entry, ClientEvent):
                self._heap[index] = (finish_time, client_id, SpilledEvent(
                    finish_time, client_id, entry.round_index))

    def unspill(self) -> None:
        """Read every spilled event back (before its loader goes away)."""
        for index, (finish_time, client_id, entry) in enumerate(self._heap):
            if isinstance(entry, SpilledEvent):
                self._heap[index] = (finish_time, client_id, self._loader(
                    (entry.round_index, client_id)))

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
