"""Supervised task execution: retries, timeouts, and worker replenishment.

:func:`run_supervised` wraps an executor's fan-out in a supervision loop so
that a single bad task — an exception, a crashed worker, a hang — degrades
into a *per-task failure* instead of aborting the whole round.  One loop
serves every backend: it submits waves of queued tasks, first in first
out, and appends retries to the queue:

* every task gets bounded retries with exponential backoff
  (:class:`RetryPolicy`); backoff is *sim-time-aware* — the deterministic
  backoff seconds are recorded in the fault counters, while the real sleep
  is capped small so chaos runs stay fast (and skipped on the serial
  backend, where no pool contention exists to back off from);
* a per-task wall-clock timeout reclaims genuinely hung tasks (pool
  backends only — an inline task cannot be interrupted);
* a dead worker process (:class:`concurrent.futures.BrokenProcessPool`)
  is translated into task failures for the in-flight tasks and the pool is
  replenished via :meth:`Executor.replenish` — replacement workers re-ship
  nothing: the run-invariant broadcast session still lives in the server's
  shared-memory manifest, so the first task on a fresh worker simply
  re-materializes from the same handles (no re-pickle of params);
* a task that exhausts its retries leaves ``None`` at its position of the
  report's ``results``; the server turns it into a dropped client (graceful
  degradation) instead of a crashed run.

Determinism contract
    With a :class:`~repro.parallel.faults.FaultPlan` attached, every
    injected fault (and therefore every retry, timeout, restart and
    exhaustion) is a pure function of ``(fault_seed, round, client,
    attempt)``.  The serial/thread backends realize crashes and hangs as
    immediate in-process exceptions; the backends that can replenish
    (process, socket) realize them for real (``os._exit``, capped sleeps)
    — both count the same events, so
    :class:`FaultCounters` and the surviving results are bit-identical
    across backends.  Because injected faults fire *before* the task body
    and task functions are pure in their payload, a retried attempt is an
    exact re-execution: when every retry eventually succeeds, results are
    bit-identical to the fault-free run.

Worker crashes need isolation to stay attributable: a broken process pool
fails *every* in-flight future, so when the plan schedules a real crash the
supervisor dispatches that task alone (its own one-task wave) and interprets
the resulting :class:`BrokenExecutor` precisely.  An *unscheduled* pool
breakage mid-wave (a genuine OOM kill, say) charges one restart and retries
every in-flight task of the wave.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..util import non_negative, non_negative_int, positive
from .executors import Executor
from .faults import (FaultDecision, FaultPlan, InjectedFault,
                     InjectedTaskError, SimulatedCrash, SimulatedHang,
                     apply_fault)

_NO_FAULT = FaultDecision()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries + per-task timeout, shared by rounds and sweeps.

    ``backoff_seconds(attempt)`` is the deterministic exponential backoff
    (``base * 2**attempt``, capped) recorded in the fault accounting;
    ``sleep_seconds(attempt)`` is the *real* wall-clock sleep, additionally
    capped by ``wall_sleep_cap`` so retry storms cannot stall a run.
    """

    max_retries: int = 0
    task_timeout: Optional[float] = None
    backoff_base: float = 0.02
    backoff_cap: float = 2.0
    wall_sleep_cap: float = 0.05

    def __post_init__(self) -> None:
        non_negative_int(self.max_retries, "max_retries")
        positive(self.task_timeout, "task_timeout", optional=True)
        for name in ("backoff_base", "backoff_cap", "wall_sleep_cap"):
            non_negative(getattr(self, name), name)

    @property
    def active(self) -> bool:
        """Whether this policy changes anything over bare execution."""
        return self.max_retries > 0 or self.task_timeout is not None

    def should_retry(self, attempt: int) -> bool:
        return attempt < self.max_retries

    def backoff_seconds(self, attempt: int) -> float:
        return min(self.backoff_base * (2.0 ** attempt), self.backoff_cap)

    def sleep_seconds(self, attempt: int) -> float:
        return min(self.backoff_seconds(attempt), self.wall_sleep_cap)


@dataclass
class FaultCounters:
    """Per-fan-out fault accounting, attached to ``RoundRecord.extras``.

    All counts are *event* counts at the plan level, not mechanism
    artifacts: a crash decision is one ``worker_restarts`` whether the
    worker really died (process backend) or the crash was simulated
    in-process — which is what keeps the extras bit-identical across
    backends under a fixed fault plan.
    """

    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0
    exhausted: int = 0
    backoff_seconds: float = 0.0

    def as_extras(self) -> Dict[str, float]:
        """The ``fault_``-prefixed extras keys (strippable, like ``wire_``)."""
        return {
            "fault_retries": float(self.retries),
            "fault_timeouts": float(self.timeouts),
            "fault_worker_restarts": float(self.worker_restarts),
            "fault_exhausted": float(self.exhausted),
            "fault_backoff_seconds": float(self.backoff_seconds),
        }


@dataclass(frozen=True)
class TaskFailure:
    """Worker-side failure sentinel (returned, never raised, by workers).

    Kinds: ``exception`` (injected task exception), ``crash`` (simulated
    in-process crash), ``hang`` (injected stall, counted as a timeout),
    ``error`` (a genuine exception from the task body — a poisoned task).
    """

    kind: str
    message: str = ""


@dataclass
class SupervisionReport:
    """What :func:`run_supervised` hands back to the caller.

    ``results`` is in task order with ``None`` at the positions whose task
    exhausted its retries (a task body never returns ``None``).
    """

    results: List[Any]
    counters: FaultCounters = field(default_factory=FaultCounters)


def _classify(error: BaseException) -> str:
    if isinstance(error, SimulatedCrash):
        return "crash"
    if isinstance(error, SimulatedHang):
        return "hang"
    if isinstance(error, InjectedTaskError):
        return "exception"
    return "error"


def _count_fault(counters: FaultCounters, kind: str) -> None:
    # crash events count restarts and hang events count timeouts at the
    # *decision* level so serial/thread/process agree; exception/error
    # kinds only show up through retries/exhausted
    if kind == "crash":
        counters.worker_restarts += 1
    elif kind == "hang":
        counters.timeouts += 1


def _supervised_call(args: Tuple[Callable[[Any], Any], Any, FaultDecision,
                                 bool, Optional[float]]) -> Any:
    """Worker-side wrapper: inject the fault, then run the task.

    Every exception — injected or genuine — comes back as a
    :class:`TaskFailure` sentinel instead of propagating, so one poisoned
    task can never abort a ``map`` over the whole cohort.  (A *real* crash
    never returns at all; the supervisor reads it off the broken pool.)
    """
    fn, payload, decision, real, budget = args
    try:
        apply_fault(decision, real=real, budget=budget)
        return fn(payload)
    except InjectedFault as fault:
        return TaskFailure(_classify(fault), str(fault))
    except Exception as error:  # noqa: BLE001 - the translation is the point
        return TaskFailure("error", f"{type(error).__name__}: {error}")


#: one queued unit of supervised work: (position, key, payload, attempt)
_Entry = Tuple[int, Any, Any, int]


class _Supervisor:
    """One fan-out's supervision state (queue, counters, results)."""

    def __init__(self, executor: Executor, fn: Callable[[Any], Any],
                 tasks: Sequence[Tuple[Any, Any]], *,
                 policy: RetryPolicy, plan: Optional[FaultPlan],
                 round_index: int) -> None:
        self.executor = executor
        self.fn = fn
        self.policy = policy
        self.plan = plan
        self.round_index = round_index
        self.counters = FaultCounters()
        self.results: List[Any] = [None] * len(tasks)
        self.queue: deque = deque(
            (position, key, payload, 0)
            for position, (key, payload) in enumerate(tasks))
        self.real = executor.can_replenish

    # ------------------------------------------------------------- plumbing
    def decide(self, key: Any, attempt: int) -> FaultDecision:
        if self.plan is None:
            return _NO_FAULT
        return self.plan.decide(self.round_index, key, attempt)

    def settle_failure(self, entry: _Entry, kind: str, *,
                       sleep: bool) -> None:
        """Charge one failure: count it, then requeue or exhaust the task."""
        position, key, payload, attempt = entry
        _count_fault(self.counters, kind)
        if self.policy.should_retry(attempt):
            self.counters.retries += 1
            self.counters.backoff_seconds += \
                self.policy.backoff_seconds(attempt)
            # an inline backend has no pool contention to back off from,
            # and the serial reference must stay fast
            if sleep and self.executor.supports_broadcast:
                pause = self.policy.sleep_seconds(attempt)
                if pause > 0:
                    time.sleep(pause)
            self.queue.append((position, key, payload, attempt + 1))
        else:
            self.counters.exhausted += 1

    def settle_outcome(self, entry: _Entry, outcome: Any) -> None:
        if isinstance(outcome, TaskFailure):
            self.settle_failure(entry, outcome.kind, sleep=True)
        else:
            self.results[entry[0]] = outcome

    # ----------------------------------------------------------------- loop
    def run(self) -> SupervisionReport:
        """Wave-based supervision, the same on every backend."""
        while self.queue:
            wave, crash_entry = self._next_wave()
            if crash_entry is not None:
                self._run_crash_isolated(crash_entry)
                continue
            if wave:
                self._run_wave(wave)
        return SupervisionReport(self.results, self.counters)

    def _next_wave(self) -> Tuple[List[Tuple[_Entry, FaultDecision]],
                                  Optional[_Entry]]:
        """Pop queued entries up to (but excluding) the next real crash.

        A real worker crash breaks the whole pool and fails every in-flight
        future, so a crash-destined task must fly alone: otherwise the
        supervisor could not tell the scheduled victim from innocent
        bystanders.  The fault plan is pure, so the supervisor simply asks
        it *before* submission.
        """
        wave: List[Tuple[_Entry, FaultDecision]] = []
        while self.queue:
            position, key, payload, attempt = self.queue[0]
            decision = self.decide(key, attempt)
            if self.real and decision.kind == "crash":
                if wave:
                    return wave, None
                return [], self.queue.popleft()
            wave.append((self.queue.popleft(), decision))
        return wave, None

    def _submit(self, entry: _Entry, decision: FaultDecision):
        _, _, payload, _ = entry
        return self.executor.submit(
            _supervised_call,
            (self.fn, payload, decision, self.real,
             self.policy.task_timeout))

    def _run_crash_isolated(self, entry: _Entry) -> None:
        position, key, payload, attempt = entry
        decision = self.decide(key, attempt)
        future = self._submit(entry, decision)
        try:
            outcome = future.result()
        except concurrent.futures.BrokenExecutor:
            # the scheduled kill: one restart, replenish, retry the victim
            self.executor.replenish()
            self.settle_failure(entry, "crash", sleep=True)
        else:  # pragma: no cover - a crash decision that failed to kill
            self.settle_outcome(entry, outcome)

    def _run_wave(self, wave: List[Tuple[_Entry, FaultDecision]]) -> None:
        futures = [(self._submit(entry, decision), entry)
                   for entry, decision in wave]
        broken: Optional[BaseException] = None
        timed_out = False
        for future, entry in futures:
            if broken is not None:
                # the pool died mid-wave; this future is already doomed
                self.settle_failure(entry, "error", sleep=False)
                continue
            try:
                outcome = future.result(timeout=self.policy.task_timeout)
            except concurrent.futures.TimeoutError:
                # a genuinely hung task: abandon the future (it cannot be
                # interrupted), charge a timeout, retry on a fresh dispatch
                future.cancel()
                timed_out = True
                self.settle_failure(entry, "hang", sleep=False)
            except concurrent.futures.BrokenExecutor as error:
                # an UNSCHEDULED breakage (real OOM-kill, say): one restart,
                # every in-flight task of the wave becomes a failure
                broken = error
                self.counters.worker_restarts += 1
                self.settle_failure(entry, "error", sleep=False)
            else:
                self.settle_outcome(entry, outcome)
        if broken is not None:
            if not self.executor.can_replenish:
                raise broken
            self.executor.replenish()
        elif timed_out and self.executor.can_replenish:
            # reclaim workers pinned by abandoned (hung) tasks; anything the
            # teardown kills was already charged and requeued above
            self.executor.replenish()


def run_supervised(executor: Executor, fn: Callable[[Any], Any],
                   tasks: Sequence[Tuple[Any, Any]], *,
                   policy: RetryPolicy,
                   plan: Optional[FaultPlan] = None,
                   round_index: int = 0) -> SupervisionReport:
    """Run ``fn`` over ``tasks`` under supervision; never raises per-task.

    ``tasks`` is a sequence of ``(key, payload)`` pairs — the key (a client
    id in the server) names the task in fault decisions.  Results come back
    in task order regardless of the backend's completion order; the caller
    that wants completion-order consumption re-sorts by its own pure key
    (as the async schedulers do).  ``results`` holds ``None`` exactly at
    the tasks that ran out of retries, so ``fn`` must never return
    ``None``: the failed tasks are read off the ``None`` positions.

    Faults are simulated in-process on the serial and thread backends and
    realized for real on those that can replenish; counters and surviving
    results are bit-identical either way.  Every attempt is one
    ``executor.submit``, so ``payload_witness`` sees retries too.
    """
    return _Supervisor(executor, fn, tasks, policy=policy, plan=plan,
                       round_index=round_index).run()


def retry_call(fn: Callable[[], Any], *, policy: RetryPolicy,
               counters: Optional[FaultCounters] = None) -> Any:
    """Call ``fn()`` with the policy's bounded retries (sweep jobs).

    The whole-run analogue of per-task supervision: sweeps retry a failed
    cell through the same :class:`RetryPolicy` (one policy, one set of
    counters) instead of a hand-rolled loop.  The final attempt re-raises.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except Exception:
            if not policy.should_retry(attempt):
                raise
            if counters is not None:
                counters.retries += 1
                counters.backoff_seconds += policy.backoff_seconds(attempt)
            pause = policy.sleep_seconds(attempt)
            if pause > 0:
                time.sleep(pause)
            attempt += 1
