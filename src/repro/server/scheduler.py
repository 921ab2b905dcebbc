"""Schedulers: one round loop, and the *shape* of training as two hooks.

:meth:`Scheduler.run` is the only round loop in the repo.  Each round it
drives a :class:`~repro.server.core.ServerCore` through: select clients →
split off the unreachable → :meth:`~Scheduler.admit` → fan the local
updates out (``run_local_updates``, results in dispatch order) → bill
costs / flops / bytes → :meth:`~Scheduler.settle` → ``post_round`` →
evaluate-or-carry → one :class:`~repro.systems.metrics.RoundRecord` →
checkpoint hook.  The three shapes differ only in the two hooks — *who may
be dispatched* and *how the round's arrivals are folded into the global
model*:

* :class:`SyncScheduler` — the paper's synchronous round: everyone
  reachable is admitted; ``settle`` lets the scenario cut stragglers and
  aggregates the survivors as one batch.  Its histories are bit-identical
  to the original monolithic trainer loop (the golden fixtures enforce it).
* :class:`AsyncScheduler` — FedAsync-style (Xie et al., asynchronous
  federated optimization): ``settle`` consumes client completions in sim
  order and folds **every arrival** into the global model immediately, with
  the staleness-decayed weight ``alpha / (1 + staleness)^a``.
* :class:`BufferedScheduler` — FedBuff-style (Nguyen et al., buffered
  asynchronous aggregation): arrivals accumulate in a buffer that is
  aggregated every ``buffer_size`` arrivals; a partial buffer at run end is
  never flushed.

Fleet contract
    Schedulers operate on client *ids* against the core's fleet view: the
    only ``Client`` objects that come into existence are the facades the
    core materializes for the dispatched cohort (and the evaluation sweep),
    so a scheduler never needs — and never causes — O(num_clients) work.
    Per-client bookkeeping here (``in_flight``, FedBuff buffers) must stay
    sparse: sets of ids for clients that actually have work outstanding.

Determinism contract
    The fan-out returns a cohort's updates in dispatch order — ascending
    client id, since every ``select_clients`` returns a sorted cohort — on
    every backend, so the loop's float sums never see real completion
    order.  The event-driven ``settle`` then consumes completions in the
    order of the pure sort key ``(finish_time, client_id)`` — never real
    arrival time.  Finish times come from the scenario/cost-model latency
    of the dispatch round, so the consumption order (and every aggregation)
    is a pure function of ``(seed, round, client)`` and histories stay
    bit-identical across the serial/thread/process/socket backends.  The
    pool still runs a dispatch cohort's clients concurrently in *real*
    time; only the simulated order is pinned.

Async round shape
    Each simulated "round" dispatches a fresh cohort (same selection,
    availability and over-selection machinery as sync — ``admit`` skips
    clients still busy with an earlier dispatch) and ``settle`` then
    consumes ``async_arrivals_per_round`` completions from the global
    in-flight pool before the next dispatch.  Because the earliest
    completions win, stragglers no longer gate the round cadence: their
    updates land rounds later with a staleness discount, while the sim
    clock advances at the pace of the fast clients.  In-flight work left at
    run end is discarded (its compute/upload cost was already billed at
    dispatch), matching the synchronous engine's treatment of dropped
    stragglers.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from ..checkpoint import (CheckpointManager, RunCheckpoint,
                          TrainingInterrupted, restore_run)
from ..federated.config import AGGREGATIONS, FederatedConfig
from ..federated.strategy import ClientUpdate
from ..systems.cost import CostBreakdown, LocalCostModel
from ..systems.metrics import RoundRecord, TrainingHistory
from .clock import ClientEvent, EventQueue, SimClock
from .core import ServerCore
from .policy import AggregationPolicy, Arrival


@contextmanager
def _emergency_guard(checkpointer: Optional[CheckpointManager]):
    """Persist the last round boundary before an unrecoverable crash.

    Any exception escaping the round loop (exhausted supervision budget
    with no degradation path, a broken pool on a backend that cannot
    replenish, a genuine bug) first flushes the most recent round-boundary
    capsule to disk — if one exists and is not already saved — so the run
    can be resumed with ``--resume`` instead of restarting from round 0.
    :class:`TrainingInterrupted` is the checkpointer's own control-flow
    signal (``stop_after_round``); it already saved, so it passes through
    untouched.  The exception is re-raised either way.
    """
    try:
        yield
    except TrainingInterrupted:
        raise
    except Exception:
        if checkpointer is not None:
            checkpointer.emergency()
        raise


class Scheduler:
    """The round loop, with two hooks for the shape of training.

    :meth:`run` is the only loop: every round selects, splits off the
    unreachable clients, lets :meth:`admit` hold back busy ones, fans the
    local updates out, bills them, lets :meth:`settle` fold arrivals into
    the global model, then runs ``post_round``, evaluation and the round's
    record.  A subclass is its ``admit`` + ``settle`` (and whatever run
    state those keep).

    Checkpoint contract
        ``run`` accepts an optional :class:`~repro.checkpoint
        .CheckpointManager` (round-boundary snapshots) and an optional
        :class:`~repro.checkpoint.RunCheckpoint` to resume from.  A
        scheduler exposes its *own* mutable run state — beyond what the
        core/strategy/history carry — through ``state_dict`` /
        ``load_state_dict``; restoration happens after ``setup``/``reset``
        and must make the continued run bit-identical to one that never
        stopped (the golden resume suite enforces this per scheduler).
    """

    name = "base"

    def reset(self) -> None:
        """Clear per-run state; called at the start of every :meth:`run`."""

    def state_dict(self) -> Dict[str, Any]:
        """Scheduler-owned mutable state at a round boundary."""
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict`; called on a freshly reset instance."""

    def admit(self, available: List[int]) -> Tuple[List[int], List[int]]:
        """Split the reachable clients into (dispatched now, busy)."""
        return available, []

    def settle(self, core: ServerCore, round_index: int,
               updates: List[ClientUpdate], costs: Dict[int, CostBreakdown],
               history: TrainingHistory
               ) -> Tuple[List[ClientUpdate], Dict[int, CostBreakdown],
                          List[int], Dict[str, Any]]:
        """Fold the round's fan-out into the global model.

        Returns the updates aggregated this round and their costs (what
        ``post_round`` sees), the dispatched clients cut from aggregation,
        and the shape-specific :class:`RoundRecord` fields.
        """
        raise NotImplementedError

    def run(self, core: ServerCore, *,
            checkpointer: Optional[CheckpointManager] = None,
            resume: Optional[RunCheckpoint] = None) -> TrainingHistory:
        with _emergency_guard(checkpointer):
            config = core.config
            history = TrainingHistory(method=core.strategy.name,
                                      dataset=core.dataset.name)
            core.strategy.setup(core.context)
            self.reset()
            start_round = 0
            if resume is not None:
                # after setup/reset: restoration overwrites the fresh-run
                # state they installed (global params, state store, context
                # rng, the scheduler's own queue/clock/buffer)
                start_round = restore_run(core, self, resume, history,
                                          checkpointer)
            for round_index in range(start_round, config.num_rounds):
                # the cumulative counters are read back from the history
                # itself, so they are round-boundary state that never needs
                # separate capture
                last = history.records[-1] if history.records else None
                selected = core.select_clients(round_index)
                available, unavailable = core.split_available(round_index,
                                                              selected)
                ready, busy = self.admit(available)
                updates = core.run_local_updates(round_index, ready)
                # wire byte accounting is present only under a non-dense
                # codec, fault_* counters only under supervision (so default
                # histories stay byte-stable either way); clients that
                # exhausted their retries produced no update and never
                # reach settle/post_round
                extras, failed = core.take_fanout_report()

                costs = core.client_costs(round_index, updates)
                round_flops = float(sum(u.flops for u in updates))
                upload = float(sum(u.upload_bytes for u in updates))
                download = float(sum(u.download_bytes for u in updates))
                # the synchronous Eq. 18 round time of the dispatched cohort,
                # in every shape: it keeps ``cumulative_time_seconds``
                # comparable between sync and the event-driven schedulers
                round_time = LocalCostModel.round_time(costs.values())
                kept_updates, kept_costs, late, fields = self.settle(
                    core, round_index, updates, costs, history)
                core.strategy.post_round(round_index, kept_updates,
                                         kept_costs)

                train_accuracy = (float(np.mean([u.train_accuracy
                                                 for u in kept_updates]))
                                  if kept_updates else 0.0)
                should_eval = ((round_index + 1) % config.eval_every == 0
                               or round_index == config.num_rounds - 1)
                # when evaluation is skipped this round, the last fresh value
                # is carried forward and flagged via ``evaluated=False``
                test_accuracy = (core.evaluate_personalized() if should_eval
                                 else last.test_accuracy if last else 0.0)
                history.append(RoundRecord(
                    round_index=round_index, selected_clients=selected,
                    train_accuracy=train_accuracy, test_accuracy=test_accuracy,
                    round_flops=round_flops, round_time_seconds=round_time,
                    upload_bytes=upload, download_bytes=download,
                    cumulative_flops=(last.cumulative_flops if last else 0.0)
                    + round_flops,
                    cumulative_time_seconds=(last.cumulative_time_seconds
                                             if last else 0.0) + round_time,
                    sparse_ratios={u.client_id: u.sparse_ratio
                                   for u in updates},
                    extras=extras, evaluated=should_eval,
                    dropped=sorted(unavailable) + busy + failed + late,
                    **fields))
                if checkpointer is not None:
                    checkpointer.after_round(core, self, history, round_index)
            # work still in flight (and any partial buffer) at run end is
            # discarded: the server stopped training, exactly like a
            # synchronous round drops stragglers — its compute/upload was
            # billed at dispatch
            return history


class SyncScheduler(Scheduler):
    """The paper's synchronous round: wait for the cohort, merge survivors.

    Every reachable client is dispatched; the scenario's participation
    policy then decides who made the round (``resolve_round``) and the
    survivors are aggregated as one batch.  The goldens pin its histories
    bit-for-bit against the original monolithic trainer loop.
    """

    name = "sync"

    def settle(self, core, round_index, updates, costs, history):
        outcome = core.resolve_round(round_index, costs)
        kept = set(outcome.participants)
        kept_updates = [u for u in updates if u.client_id in kept]
        kept_costs = {u.client_id: costs[u.client_id] for u in kept_updates}
        with core.reduce_context():
            core.strategy.aggregate(round_index, kept_updates)
        elapsed = (history.records[-1].cumulative_sim_time
                   if history.records else 0.0)
        fields = dict(sim_time=outcome.sim_time,
                      cumulative_sim_time=elapsed + outcome.sim_time,
                      straggler_count=len(outcome.stragglers))
        return kept_updates, kept_costs, list(outcome.stragglers), fields


class _EventDrivenScheduler(Scheduler):
    """Shared machinery of the asynchronous (event-consuming) schedulers.

    Subclasses decide what happens per consumed completion
    (:meth:`consume`) and how many completions a round waits for
    (:meth:`arrivals_per_round`); the base class owns the two hooks — who
    is still busy, and pushing a dispatch into the event queue then
    consuming the round's share of completions off the sim clock.
    """

    def __init__(self) -> None:
        self.reset()

    # ------------------------------------------------------------- subclass
    def reset(self) -> None:
        """Clear per-run state; called at the start of every :meth:`run`."""
        self._version = 0
        self._queue = EventQueue()
        self._clock = SimClock()
        self._in_flight: set = set()

    def state_dict(self) -> Dict[str, Any]:
        """Version counter, sim clock, in-flight pool and queued events.

        The events ride in the queue's deterministic ``(finish_time,
        client_id)`` snapshot order, so two checkpoints of the same run
        state are byte-identical regardless of internal heap layout.
        """
        return {
            "version": self._version,
            "clock_now": self._clock.now,
            "in_flight": sorted(self._in_flight),
            "events": self._queue.snapshot(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._version = int(state["version"])
        self._clock = SimClock(state["clock_now"])
        self._in_flight = set(state["in_flight"])
        self._queue = EventQueue()
        for event in state["events"]:
            self._queue.push(event)

    def arrivals_per_round(self, config: FederatedConfig) -> int:
        raise NotImplementedError

    def consume(self, core: ServerCore, policy: AggregationPolicy,
                round_index: int, event: ClientEvent) -> List[Arrival]:
        """Fold one completion in; returns the arrivals aggregated *now*."""
        raise NotImplementedError

    def pending_buffer(self) -> int:
        """Arrivals held back for a future aggregation (FedBuff buffer)."""
        return 0

    def pending_clients(self) -> set:
        """Clients whose consumed arrival has not been aggregated yet.

        They count as busy alongside the in-flight set: at most one
        un-incorporated update per client may exist at any time, so a flush
        batch can never carry the same client twice and the per-round
        ``{client_id: cost}`` bookkeeping handed to ``post_round`` stays
        one-to-one with the aggregated updates.
        """
        return set()

    # ---------------------------------------------------------------- hooks
    def admit(self, available):
        # a client still computing an earlier dispatch — or whose update is
        # still waiting in the aggregation buffer — cannot take a new one;
        # it is reported alongside the unavailable clients
        blocked = self._in_flight | self.pending_clients()
        return ([cid for cid in available if cid not in blocked],
                sorted(cid for cid in available if cid in blocked))

    def settle(self, core, round_index, updates, costs, history):
        config = core.config
        policy = AggregationPolicy(alpha=config.async_alpha,
                                   exponent=config.staleness_exponent)
        clock = self._clock
        round_start = clock.now
        for update in updates:
            client_id = update.client_id
            latency = core.latency(round_index, client_id,
                                   costs[client_id].total_seconds)
            self._queue.push(ClientEvent(
                finish_time=clock.now + latency, client_id=client_id,
                round_index=round_index, dispatch_version=self._version,
                update=update, cost=costs[client_id]))
            self._in_flight.add(client_id)

        aggregated: List[Arrival] = []
        for _ in range(self.arrivals_per_round(config)):
            if not self._queue:
                break
            event = self._queue.pop()
            clock.advance_to(event.finish_time)
            self._in_flight.discard(event.client_id)
            aggregated += self.consume(core, policy, round_index, event)
        fields = dict(
            sim_time=clock.now - round_start,
            # the clock itself, never a running sum of ``sim_time`` — the
            # two are not bit-equal
            cumulative_sim_time=clock.now,
            staleness_mean=(float(np.mean([a.staleness for a in aggregated]))
                            if aggregated else 0.0),
            buffer_size=self.pending_buffer())
        return ([a.update for a in aggregated],
                {a.update.client_id: a.cost for a in aggregated}, [], fields)


class AsyncScheduler(_EventDrivenScheduler):
    """FedAsync: every arrival immediately moves the global model."""

    name = "fedasync"

    def arrivals_per_round(self, config: FederatedConfig) -> int:
        if config.async_arrivals_per_round is not None:
            return config.async_arrivals_per_round
        return max(1, config.clients_per_round)

    def consume(self, core, policy, round_index, event):
        arrival = Arrival(update=event.update,
                          staleness=self._version - event.dispatch_version,
                          cost=event.cost)
        with core.reduce_context():
            policy.merge(core.strategy, round_index, [arrival])
        self._version += 1
        return [arrival]


class BufferedScheduler(_EventDrivenScheduler):
    """FedBuff: aggregate every ``buffer_size`` arrivals as one batch.

    Buffered clients stay blocked until their update is flushed (one
    un-incorporated update per client), so ``buffer_size`` must not exceed
    the number of clients — a larger buffer can never fill and the global
    model would never move.
    """

    name = "fedbuff"

    def reset(self) -> None:
        # a reused scheduler instance must not leak the previous run's
        # never-flushed tail into the next run's first flush
        super().reset()
        self._buffer: List[ClientEvent] = []

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state["buffer"] = list(self._buffer)
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._buffer = list(state["buffer"])

    def arrivals_per_round(self, config: FederatedConfig) -> int:
        if config.async_arrivals_per_round is not None:
            return config.async_arrivals_per_round
        return max(config.buffer_size,
                   math.ceil(config.clients_per_round / 2))

    def pending_buffer(self) -> int:
        return len(self._buffer)

    def pending_clients(self) -> set:
        return {event.client_id for event in self._buffer}

    def consume(self, core, policy, round_index, event):
        self._buffer.append(event)
        if len(self._buffer) < core.config.buffer_size:
            return []
        # staleness is measured at flush time, against the current version
        batch = [Arrival(update=e.update,
                         staleness=self._version - e.dispatch_version,
                         cost=e.cost)
                 for e in self._buffer]
        with core.reduce_context():
            policy.merge(core.strategy, round_index, batch)
        self._version += 1
        self._buffer = []
        return batch


SCHEDULERS: Dict[str, Type[Scheduler]] = {
    "sync": SyncScheduler,
    "fedasync": AsyncScheduler,
    "fedbuff": BufferedScheduler,
}

assert tuple(sorted(SCHEDULERS)) == tuple(sorted(AGGREGATIONS))


def available_aggregations() -> List[str]:
    """Names accepted by ``FederatedConfig.aggregation`` / the CLI."""
    return list(AGGREGATIONS)


def build_scheduler(config: FederatedConfig,
                    aggregation: Optional[str] = None) -> Scheduler:
    """Instantiate the scheduler for a config's aggregation mode."""
    key = (aggregation or config.aggregation).lower()
    if key not in SCHEDULERS:
        raise ValueError(f"unknown aggregation mode {key!r}; "
                         f"choose from {available_aggregations()}")
    return SCHEDULERS[key]()
