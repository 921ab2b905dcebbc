"""Schedulers: one round loop, and the *shape* of training as two hooks.

:meth:`Scheduler.run` is the only round loop in the repo.  Each round it
drives a :class:`~repro.server.core.ServerCore` through: select clients →
split off the unreachable → :meth:`~Scheduler.admit` → fan the local
updates out (``run_local_updates``, results in dispatch order) → bill
costs / flops / bytes → :meth:`~Scheduler.settle` → ``post_round`` →
evaluate-or-carry → one :class:`~repro.systems.metrics.RoundRecord` →
checkpoint hook.  The shapes differ only in the two hooks — *who may be
dispatched* and *how the round's arrivals are folded into the global
model* — and there are two classes:

* :class:`SyncScheduler` — the paper's synchronous round: everyone
  reachable is admitted; ``settle`` lets the scenario cut stragglers and
  aggregates the survivors as one batch.  Its histories are bit-identical
  to the original monolithic trainer loop (the golden fixtures enforce it).
* :class:`EventDrivenScheduler` — the asynchronous modes: ``settle``
  consumes client completions in sim order into a buffer and merges it as
  one staleness-weighted batch every ``flush`` arrivals
  (:func:`async_shape`).  FedBuff (Nguyen et al., buffered asynchronous
  aggregation) flushes every ``buffer_size`` arrivals and never merges a
  partial buffer left at run end; FedAsync (Xie et al., asynchronous
  federated optimization) is FedBuff with a buffer of one: every arrival
  moves the global model by ``alpha / (1 + staleness)^a``.

Fleet contract
    Schedulers operate on client *ids* against the core's fleet view: the
    only ``Client`` objects that come into existence are the ones the
    core binds for the dispatched cohort (and the evaluation sweep),
    so a scheduler never needs — and never causes — O(num_clients) work.
    Per-client bookkeeping here (``in_flight``, the buffer) must stay
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
    clients still in flight or buffered) and ``settle`` then consumes the
    round's share of completions from the global in-flight pool before the
    next dispatch: ``async_arrivals_per_round``, by default
    ``clients_per_round`` for FedAsync and ``max(buffer_size,
    ceil(clients_per_round / 2))`` for FedBuff.  Because the earliest
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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..checkpoint import (CheckpointManager, TrainingInterrupted,
                          resolve_resume, restore_run)
from ..federated.config import AGGREGATIONS, FederatedConfig
from ..federated.strategy import ClientUpdate
from ..systems.cost import CostBreakdown, LocalCostModel
from ..systems.metrics import RoundRecord, TrainingHistory
from .clock import ClientEvent, EventQueue
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
        ``resume_from`` (any form :func:`~repro.checkpoint.resolve_resume`
        takes).  ``run`` resolves it itself, so the one reference to a
        checkpoint it loads is its own local, dropped once restored.  A
        scheduler exposes its *own* mutable run state — beyond what the
        core/strategy/history carry — through ``state_dict`` /
        ``load_state_dict``; restoration happens after ``setup``/``reset``
        and must make the continued run bit-identical to one that never
        stopped (the golden resume suite enforces this per scheduler).
        A scheduler with a :attr:`queue` lets the checkpoint layer spill
        it after a committed save
        (:meth:`~repro.server.clock.EventQueue.spill`).
    """

    name = "base"
    #: the completion events waiting to be consumed (event-driven shapes)
    queue: Optional[EventQueue] = None

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
            resume_from=None) -> TrainingHistory:
        resume = resolve_resume(resume_from, checkpointer)
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
                # the run reads nothing more from the capsule: let it go
                resume = None
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


def async_shape(mode: str, config: FederatedConfig) -> Tuple[int, int]:
    """``(flush, arrivals)`` of an event-driven mode.

    The buffer is merged as one batch each time it holds ``flush``
    arrivals, and each round consumes ``arrivals`` completions
    (``config.async_arrivals_per_round``, or the mode's default).  FedAsync
    is FedBuff with a buffer of one: ``flush`` is 1 and a round waits for a
    whole cohort's worth of arrivals; FedBuff flushes every
    ``buffer_size`` and waits for ``max(buffer_size, ceil(clients_per_round
    / 2))``.  The scheduler reads which async mode runs here alone.
    """
    if mode == "fedasync":
        flush, default = 1, config.clients_per_round
    else:
        flush = config.buffer_size
        default = max(flush, math.ceil(config.clients_per_round / 2))
    arrivals = config.async_arrivals_per_round
    return flush, default if arrivals is None else arrivals


class EventDrivenScheduler(Scheduler):
    """FedAsync and FedBuff: consume completions, merge every ``flush``.

    ``settle`` pushes the dispatched cohort's completions into the event
    queue, pops the round's share of arrivals in ``(finish_time,
    client_id)`` order into the buffer, and merges the buffer as one batch
    each time it holds ``flush`` arrivals (:func:`async_shape`), with each
    arrival's staleness measured at merge time.  The sim clock is a float
    advanced by ``max`` to each consumed finish time, so it never moves
    backwards.

    A buffered client stays blocked until its update is merged (one
    un-incorporated update per client), so a merge never carries a client
    twice and the ``{client_id: cost}`` bookkeeping handed to
    ``post_round`` stays one-to-one with the merged updates; ``buffer_size``
    must therefore not exceed the number of clients.  A partial buffer at
    run end is never merged.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def reset(self) -> None:
        # a reused instance must not leak the previous run's clock, queue
        # or never-merged tail into the next run
        self._version = 0
        self._clock = 0.0
        self._in_flight: set = set()
        self._buffer: List[ClientEvent] = []
        self.queue = EventQueue()

    def state_dict(self) -> Dict[str, Any]:
        """Version counter, sim clock, in-flight pool, queue and buffer.

        The events ride in the queue's deterministic ``(finish_time,
        client_id)`` snapshot order, so two checkpoints of the same run
        state are byte-identical regardless of internal heap layout.  An
        event the checkpoint layer spilled rides as its
        :class:`~repro.server.clock.SpilledEvent` stub, unread: the
        capture that asks already references its blob.
        """
        return {
            "version": self._version,
            "clock_now": self._clock,
            "in_flight": sorted(self._in_flight),
            "events": self.queue.snapshot(),
            "buffer": list(self._buffer),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict`: fills the queue :meth:`reset`
        made.  ``state["events"]`` may hold
        :class:`~repro.server.clock.SpilledEvent` stubs — a resume that
        rebuilds the queue unread — which the loader the checkpoint layer
        installed on that queue first reads back on pop.  A FedAsync head
        written before FedAsync shared FedBuff's buffer has no
        ``"buffer"``: its buffer is empty."""
        self._version = int(state["version"])
        self._clock = float(state["clock_now"])
        self._in_flight = set(state["in_flight"])
        for event in state["events"]:
            self.queue.push(event)
        self._buffer = list(state.get("buffer", ()))

    def admit(self, available):
        # a client still computing an earlier dispatch — or whose update is
        # still waiting in the buffer — cannot take a new one; it is
        # reported alongside the unavailable clients
        blocked = self._in_flight.union(e.client_id for e in self._buffer)
        return ([cid for cid in available if cid not in blocked],
                sorted(cid for cid in available if cid in blocked))

    def settle(self, core, round_index, updates, costs, history):
        config = core.config
        flush, arrivals = async_shape(self.name, config)
        policy = AggregationPolicy(alpha=config.async_alpha,
                                   exponent=config.staleness_exponent)
        round_start = self._clock
        for update in updates:
            client_id = update.client_id
            latency = core.latency(round_index, client_id,
                                   costs[client_id].total_seconds)
            self.queue.push(ClientEvent(
                finish_time=round_start + latency, client_id=client_id,
                round_index=round_index, dispatch_version=self._version,
                update=update, cost=costs[client_id]))
            self._in_flight.add(client_id)

        merged: List[Arrival] = []
        for _ in range(min(arrivals, len(self.queue))):
            event = self.queue.pop()
            self._clock = max(self._clock, float(event.finish_time))
            self._in_flight.discard(event.client_id)
            self._buffer.append(event)
            if len(self._buffer) < flush:
                continue
            batch = [Arrival(update=e.update,
                             staleness=self._version - e.dispatch_version,
                             cost=e.cost)
                     for e in self._buffer]
            with core.reduce_context():
                policy.merge(core.strategy, round_index, batch)
            self._version += 1
            self._buffer = []
            merged += batch
        fields = dict(
            sim_time=self._clock - round_start,
            # the clock itself, never a running sum of ``sim_time`` — the
            # two are not bit-equal
            cumulative_sim_time=self._clock,
            staleness_mean=(float(np.mean([a.staleness for a in merged]))
                            if merged else 0.0),
            buffer_size=len(self._buffer))
        return ([a.update for a in merged],
                {a.update.client_id: a.cost for a in merged}, [], fields)


def available_aggregations() -> List[str]:
    """Names accepted by ``FederatedConfig.aggregation`` / the CLI."""
    return list(AGGREGATIONS)


def build_scheduler(config: FederatedConfig) -> Scheduler:
    """The scheduler for ``config.aggregation`` (which the config checked)."""
    if config.aggregation == "sync":
        return SyncScheduler()
    return EventDrivenScheduler(config.aggregation)
