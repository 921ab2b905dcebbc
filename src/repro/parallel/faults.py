"""Deterministic fault injection for chaos-testing the execution layer.

A :class:`FaultPlan` decides, for every ``(round, client, attempt)`` task
dispatch, whether the task should fail — and how: raise an exception, kill
its worker process, hang, or merely run slow.  Every decision is a pure
function of ``(fault_seed, round, client, attempt)``; nothing consults the
wall clock, worker identity or execution order, so a chaos run is exactly
reproducible: the same plan injects the same faults into the same tasks on
the serial, thread and process backends, and the supervised executor layer
(:mod:`repro.parallel.supervision`) turns them into the same per-round
retry/timeout/restart counters everywhere.

Fault *kinds* and how each backend realizes them:

``exception``
    The task raises :class:`InjectedTaskError` before running its body.
``crash``
    On the process backend the worker dies hard (``os._exit``), breaking
    the pool exactly like a segfault or OOM kill would; supervision detects
    the broken pool, replenishes it and retries the task.  Backends that
    cannot lose a worker (serial, thread) raise :class:`SimulatedCrash`
    instead, which supervision counts as the same ``worker_restarts``
    event — counters stay bit-identical across backends.
``hang``
    The task stalls.  In-process backends raise :class:`SimulatedHang`
    immediately (a zero-cost stand-in); process workers really sleep — wall
    -clock capped by the supervisor's task timeout — before raising, so the
    run exercises the timeout/reclaim path without unbounded waits.  Either
    way supervision counts one ``timeouts`` event and retries.
``slow``
    The task runs to completion after a small injected delay (real sleep
    only where a pool actually runs concurrently).  Slowdowns never fail a
    task and never change its result — they exist to shake out ordering
    assumptions in completion-order consumers.

Because every injected fault fires *before* the task body runs and task
functions are pure in their payload, a retried attempt re-executes the
identical computation: when all retries eventually succeed, the training
history is bit-identical to the fault-free run (the golden-fixture suite
proves this against the committed fixtures).

``poison_rate`` marks tasks that fail on *every* attempt (the draw is
salted without the attempt number), modelling a deterministically bad
input rather than a transient fault — poisoned tasks always exhaust their
retries and degrade into dropped clients.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..util import in_range, non_negative, non_negative_int

#: salt separating fault draws from every other (seed, round, client) stream
_FAULT_SALT = 0xFA17

#: salt of the attempt-independent poisoned-task draw
_POISON_SALT = 0xBADD

#: exit status of a worker killed by an injected crash (looks like SIGKILL's
#: 128+9 to the pool, but distinguishable in core dump-free logs)
CRASH_EXIT_CODE = 137


class InjectedFault(Exception):
    """Base class of every exception raised by fault injection."""


class InjectedTaskError(InjectedFault):
    """An injected in-task exception (the ``exception`` fault kind)."""


class SimulatedCrash(InjectedFault):
    """A worker crash simulated in-process (serial/thread backends)."""


class SimulatedHang(InjectedFault):
    """A hang surfaced as an exception once its injected stall elapsed."""


@dataclass(frozen=True)
class FaultDecision:
    """One task dispatch's fate: a fault kind and its injected delay."""

    kind: str = "none"
    seconds: float = 0.0


_NO_FAULT = FaultDecision()


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos schedule over ``(round, client, attempt)``.

    Rates are independent per-dispatch probabilities resolved by a single
    uniform draw with stacked thresholds (exception, then crash, then hang,
    then slow), so at most one fault fires per dispatch and the marginal
    probability of each kind equals its rate.  ``poison_rate`` is drawn
    separately — without the attempt number — so a poisoned task fails
    identically on every retry.

    The plan rides :class:`~repro.federated.config.FederatedConfig` (and
    therefore the checkpoint run digest and the sweep result cache): two
    runs with different fault plans are different runs.
    """

    seed: int = 0
    exception_rate: float = 0.0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    poison_rate: float = 0.0
    hang_seconds: float = 0.5
    slow_seconds: float = 0.02

    def __post_init__(self) -> None:
        non_negative_int(self.seed, "seed")
        for name in ("exception_rate", "crash_rate", "hang_rate",
                     "slow_rate", "poison_rate"):
            in_range(getattr(self, name), name, 0, 1)
        total = (self.exception_rate + self.crash_rate + self.hang_rate
                 + self.slow_rate)
        if total > 1.0:
            raise ValueError(
                "exception_rate + crash_rate + hang_rate + slow_rate must "
                f"not exceed 1.0 (got {total!r}); the kinds stack on one "
                "uniform draw")
        non_negative(self.hang_seconds, "hang_seconds")
        non_negative(self.slow_seconds, "slow_seconds")

    def decide(self, round_index: int, client_id: int,
               attempt: int) -> FaultDecision:
        """The fate of one dispatch — pure in ``(round, client, attempt)``."""
        if self.poison_rate > 0.0:
            poison = np.random.default_rng(
                (self.seed, int(round_index), int(client_id), _POISON_SALT))
            if poison.random() < self.poison_rate:
                return FaultDecision("exception")
        if (self.exception_rate == 0.0 and self.crash_rate == 0.0
                and self.hang_rate == 0.0 and self.slow_rate == 0.0):
            return _NO_FAULT
        rng = np.random.default_rng(
            (self.seed, int(round_index), int(client_id), int(attempt),
             _FAULT_SALT))
        draw = rng.random()
        threshold = self.exception_rate
        if draw < threshold:
            return FaultDecision("exception")
        threshold += self.crash_rate
        if draw < threshold:
            return FaultDecision("crash")
        threshold += self.hang_rate
        if draw < threshold:
            return FaultDecision("hang", self.hang_seconds)
        threshold += self.slow_rate
        if draw < threshold:
            return FaultDecision("slow", self.slow_seconds)
        return _NO_FAULT


def apply_fault(decision: FaultDecision, *, real: bool = False,
                budget: Optional[float] = None) -> None:
    """Realize one decision at the top of a task, before the body runs.

    ``real=True`` is the process backend: crashes genuinely kill the worker
    and hangs/slowdowns genuinely sleep (a hang's stall is capped at half
    the supervisor's timeout ``budget`` so chaos runs stay wall-clock
    bounded).  ``real=False`` (serial/thread) realizes the same decisions
    as immediate exceptions — same counters, no lost worker, no wait.
    """
    kind = decision.kind
    if kind == "none":
        return
    if kind == "exception":
        raise InjectedTaskError("injected task exception")
    if kind == "crash":
        if real:
            os._exit(CRASH_EXIT_CODE)
        raise SimulatedCrash("injected worker crash (simulated in-process)")
    if kind == "hang":
        if real:
            stall = decision.seconds
            if budget is not None:
                stall = min(stall, budget * 0.5)
            time.sleep(stall)
        raise SimulatedHang("injected hang")
    if kind == "slow":
        if real and decision.seconds > 0:
            time.sleep(decision.seconds)
        return
    raise ValueError(f"unknown fault kind {kind!r}")


#: named chaos presets for the CLI (``--fault-plan``); each takes the run's
#: seed at build time so different seeds produce different chaos schedules
FAULT_PLANS: Dict[str, Dict[str, float]] = {
    # worker crashes dominate: exercises broken-pool detection + replenish
    "crashy": dict(crash_rate=0.10, slow_rate=0.10),
    # stalls dominate: exercises the timeout/reclaim path
    "hang-prone": dict(hang_rate=0.10, slow_rate=0.10, hang_seconds=0.5),
    # transient exceptions plus deterministically-poisoned tasks that
    # exhaust every retry and degrade into dropped clients
    "poison-task": dict(exception_rate=0.10, poison_rate=0.05),
    # everything at once: the chaos-smoke setting (crash + hang + exception
    # in one run, per the acceptance criteria)
    "chaos": dict(exception_rate=0.08, crash_rate=0.08, hang_rate=0.06,
                  slow_rate=0.05, hang_seconds=0.5),
}


def available_fault_plans() -> List[str]:
    """Preset names accepted by ``--fault-plan``."""
    return sorted(FAULT_PLANS)


def build_fault_plan(name: str, *, seed: int = 0) -> FaultPlan:
    """Instantiate a named chaos preset, keyed to the run's seed."""
    key = name.lower()
    if key not in FAULT_PLANS:
        raise ValueError(f"unknown fault plan {name!r}; "
                         f"choose from {available_fault_plans()}")
    return FaultPlan(seed=seed, **FAULT_PLANS[key])
