"""Unit tests for the completion-event queue."""

import pytest

from repro.server.clock import ClientEvent, EventQueue, SpilledEvent
from repro.federated.strategy import ClientUpdate
from repro.systems.cost import CostBreakdown


def event(finish_time, client_id, round_index=0, version=0):
    update = ClientUpdate(client_id=client_id, params={}, num_examples=1,
                          train_accuracy=0.0, train_loss=0.0)
    return ClientEvent(finish_time=finish_time, client_id=client_id,
                       round_index=round_index, dispatch_version=version,
                       update=update, cost=CostBreakdown(0.0, 0.0))


class TestEventQueue:
    def test_orders_by_finish_time(self):
        queue = EventQueue()
        for finish, cid in [(3.0, 1), (1.0, 2), (2.0, 3)]:
            queue.push(event(finish, cid))
        assert [queue.pop().client_id for _ in range(3)] == [2, 3, 1]
        assert not queue

    def test_ties_break_on_client_id(self):
        queue = EventQueue()
        for cid in (5, 1, 3):
            queue.push(event(1.0, cid))
        assert [queue.pop().client_id for _ in range(3)] == [1, 3, 5]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_snapshot_is_ordered_and_does_not_remove(self):
        queue = EventQueue()
        for finish, cid in [(3.0, 1), (1.0, 4), (1.0, 2)]:
            queue.push(event(finish, cid))
        assert [e.client_id for e in queue.snapshot()] == [2, 4, 1]
        assert len(queue) == 3
        # a queue rebuilt from the snapshot pops in the same order
        rebuilt = EventQueue()
        for queued in queue.snapshot():
            rebuilt.push(queued)
        assert [rebuilt.pop().client_id for _ in range(3)] == \
            [queue.pop().client_id for _ in range(3)]

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(event(1.0, 0))
        assert queue and len(queue) == 1


    def test_a_spilled_event_is_read_back_when_popped(self):
        queue = EventQueue()
        events = {cid: event(finish, cid, round_index=3)
                  for finish, cid in [(3.0, 1), (1.0, 4), (1.0, 2)]}
        for queued in events.values():
            queue.push(queued)
        loads = []

        def loader(key):
            loads.append(key)
            return events[key[1]]

        queue.spill(loader)
        # each stub is its event's heap position and round
        assert queue.snapshot() == [SpilledEvent(1.0, 2, 3),
                                    SpilledEvent(1.0, 4, 3),
                                    SpilledEvent(3.0, 1, 3)]
        queue.push(event(0.5, 9))  # queued after the spill: resident
        assert queue.pop().client_id == 9 and loads == []
        # the loader is handed the checkpoint key (round_index, client_id)
        assert queue.pop() is events[2] and loads == [(3, 2)]
        queue.unspill()
        assert queue.snapshot() == [events[4], events[1]]
        assert loads == [(3, 2), (3, 4), (3, 1)]

    def test_a_queue_rebuilt_from_stubs_pops_in_order(self):
        """What a resume that adopts a queue unread pushes: the stubs
        alone order the heap, and each pop reads its event back."""
        events = {cid: event(finish, cid, round_index=2)
                  for finish, cid in [(2.0, 5), (1.0, 7), (2.0, 3)]}
        queue = EventQueue()
        for queued in events.values():
            queue.push(SpilledEvent(queued.finish_time, queued.client_id,
                                    queued.round_index))
        loads = []

        def loader(key):
            loads.append(key)
            return events[key[1]]

        queue.spill(loader)
        assert [queue.pop() for _ in events] \
            == [events[7], events[3], events[5]]
        assert loads == [(2, 7), (2, 3), (2, 5)]

    def test_a_failed_read_leaves_the_queue_as_it_was(self):
        queue = EventQueue()
        for finish, cid in [(2.0, 1), (1.0, 2)]:
            queue.push(event(finish, cid))

        def loader(stub):
            raise OSError(f"no blob for {stub}")

        queue.spill(loader)
        before = queue.snapshot()
        with pytest.raises(OSError, match="no blob"):
            queue.pop()
        assert queue.snapshot() == before and len(queue) == 2
