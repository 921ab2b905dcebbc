"""Pluggable execution backends for the federated simulator.

Every parallel surface of the codebase — per-round client fan-out in
:class:`~repro.federated.trainer.FederatedTrainer`, whole-run sweep jobs in
``repro.experiments.runner`` — goes through the same small :class:`Executor`
API so that backends can be swapped with a CLI flag.  A backend implements
:meth:`Executor.submit` alone; :meth:`Executor.map_ordered` is built on it:

* :class:`SerialExecutor` runs each task inline as it is submitted and
  returns a settled future (the reference semantics);
* :class:`ThreadPoolExecutor` runs tasks on a thread pool, handing every task
  a pickled private copy of its payload so concurrent tasks cannot race on
  shared mutable state (models are used as scratch space during training);
* :class:`ProcessPoolExecutor` runs tasks in spawned worker processes, which
  isolates payloads through pickling by construction;
* ``SocketExecutor`` (:mod:`repro.parallel.distributed`) runs them in worker
  processes connected over TCP.

Pools are **persistent**: the underlying thread/process pool is created once
per executor and reused by every submission, so a trainer pays worker
start-up once per run, not once per round.  ``close()`` (or exiting the
``with`` block) shuts the pool down exactly once; a closed executor raises
:class:`RuntimeError` on reuse instead of silently creating a new pool.

Task functions must be module-level callables (picklable under the spawn
start method) and must return everything the caller needs: with the thread
and process backends, in-place mutations of the payload are invisible to the
caller.  Combined with deterministic per-task seeding (``default_rng(seed +
client_id)`` style), results are bit-identical across all backends — the
determinism test suite enforces this.

Backends with ``supports_broadcast`` set participate in the shared-memory
round broadcast (:mod:`repro.parallel.broadcast`): callers ship the
round-invariant payload once and hand tasks a small handle instead of a full
pickled copy.  A backend without it promises the opposite — tasks run
*inline, in the caller's thread, on the caller's live objects* — and the
server core relies on that: it hands such a backend closures over its own
strategy and fleet.  ``payload_witness`` is an observation hook for tests
and the benchmark harness: when set, :meth:`~Executor.submit` calls it with
the payload of every submission (a supervised retry is a new submission),
which is how the per-round "bytes crossing the worker boundary" counters
are measured without touching the pool internals.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Type


def clone_via_pickle(obj: Any) -> Any:
    """A deep, exact copy of ``obj`` (float64 payloads survive bitwise)."""
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def default_worker_count() -> int:
    """A sensible worker count when the user passes ``--workers 0``."""
    return max(1, (os.cpu_count() or 2) - 1)


class Executor:
    """Minimal execution interface shared by all backends.

    :meth:`submit` is the one method a backend implements: it schedules one
    task and returns its future, whose ``result()`` raises the task's
    exception — ``submit`` itself never does.  :meth:`map_ordered` submits
    every item, then returns the results in input order; a failed task
    raises from it only after every task has run.
    """

    backend = "base"
    #: whether tasks cross a worker boundary and so bind from the
    #: shared-memory round broadcast; False means inline on the caller's
    #: live objects (the serial backend), where handles would only add
    #: (de)serialization work
    supports_broadcast = False
    #: whether workers can really be lost and :meth:`replenish` rebuilds
    #: the pool: injected faults are then realized for real — a crash kills
    #: a worker process, a hang stalls one (see ``repro.parallel.faults``);
    #: in-process backends (threads cannot be killed) simulate both
    can_replenish = False

    def __init__(self, workers: int = 1) -> None:
        self.workers = default_worker_count() if workers <= 0 else int(workers)
        self.payload_witness: Optional[Callable[[Any], None]] = None
        self._closed = False

    # ----------------------------------------------------------------- api
    def submit(self, fn: Callable[[Any], Any],
               item: Any) -> concurrent.futures.Future:
        """Schedule ``fn(item)``; a task's exception lands in its future."""
        raise NotImplementedError

    def map_ordered(self, fn: Callable[[Any], Any],
                    items: Sequence[Any]) -> List[Any]:
        self._ensure_open()
        futures = [self.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def warm_up(self) -> None:
        """Eagerly start the pool's workers (no-op for inline backends)."""

    def replenish(self) -> None:
        """Rebuild the worker pool after worker loss (pool backends only).

        The supervision layer (:mod:`repro.parallel.supervision`) calls
        this after a broken pool or a reclaimed hang; backends that cannot
        lose workers refuse instead of pretending.
        """
        raise RuntimeError(
            f"{type(self).__name__} cannot replenish workers "
            "(can_replenish is False)")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release pool resources; the executor must not be reused after."""
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; pools are persistent "
                "across rounds but cannot be reused after close() — create "
                "a new executor instead")

    def _observe(self, item: Any) -> None:
        if self.payload_witness is not None:
            self.payload_witness(item)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = ", closed" if self._closed else ""
        return f"{type(self).__name__}(workers={self.workers}{state})"


class SerialExecutor(Executor):
    """Inline execution in the calling thread — the reference backend and
    the null executor (``ServerCore`` substitutes one for ``executor=None``).
    """

    backend = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)

    def submit(self, fn, item):
        """Run the task now, on the caller's live objects; return it settled."""
        self._ensure_open()
        self._observe(item)
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(item))
        except Exception as error:  # noqa: BLE001 - the future carries it
            future.set_exception(error)
        return future


def _warm_up_task(seconds: float) -> None:
    """Busy-wait used by ``warm_up`` to force the pool to start workers."""
    time.sleep(seconds)


class _PoolExecutor(Executor):
    """Shared plumbing for the concurrent.futures-backed backends."""

    def _pool(self) -> concurrent.futures.Executor:
        raise NotImplementedError

    def _prepare(self, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """Hook: wrap the task function before submission."""
        return fn

    def submit(self, fn, item):
        """Submit through :meth:`_prepare`; a broken pool fails the future."""
        self._ensure_open()
        self._observe(item)
        try:
            return self._pool().submit(self._prepare(fn), item)
        except concurrent.futures.BrokenExecutor as error:
            future: concurrent.futures.Future = concurrent.futures.Future()
            future.set_exception(error)
            return future

    def warm_up(self):
        # concurrent.futures pools start workers lazily on submission; a
        # batch of short sleeps (one per worker, long enough to overlap)
        # forces the full complement to start now so the first real round
        # does not pay the start-up cost
        self._ensure_open()
        futures = [self._pool().submit(_warm_up_task, 0.02)
                   for _ in range(self.workers)]
        for future in futures:
            future.result()

    def close(self):
        if not self._closed:
            super().close()
            self._executor.shutdown(wait=True)


def _run_on_clone(fn: Callable[[Any], Any], item: Any) -> Any:
    return fn(clone_via_pickle(item))


class ThreadPoolExecutor(_PoolExecutor):
    """Thread-pool backend with per-task payload isolation.

    Threads share one address space, and simulator tasks use mutable scratch
    objects (the model instance most prominently), so every task runs on a
    pickled private copy of its payload.  That makes thread results identical
    to the process backend — and to the serial backend whenever tasks confine
    their side effects to state they return.
    """

    backend = "thread"
    supports_broadcast = True

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._executor: concurrent.futures.Executor = \
            concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)

    def _pool(self):
        return self._executor

    def _prepare(self, fn):
        def task(item, _fn=fn):
            return _run_on_clone(_fn, item)
        return task


class ProcessPoolExecutor(_PoolExecutor):
    """Process-pool backend using the spawn start method.

    Spawn (rather than fork) guarantees workers start from a clean
    interpreter, so nothing leaks in through inherited globals and the same
    code path runs on every platform.  Payloads and task functions must be
    picklable; all per-task randomness must be derived from seeds carried in
    the payload.
    """

    backend = "process"
    supports_broadcast = True
    can_replenish = True

    def __init__(self, workers: int = 1, *, start_method: str = "spawn") -> None:
        super().__init__(workers)
        self._mp_context = multiprocessing.get_context(start_method)
        self._executor: concurrent.futures.Executor = self._spawn_pool()

    def _spawn_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._mp_context)

    def _pool(self):
        return self._executor

    def replenish(self):
        """Replace the pool after worker loss (broken pool, reclaimed hang).

        The old pool is torn down without waiting — its workers are either
        already dead (a crash broke the pool) or abandoned mid-hang, and
        lingering ones are terminated outright.  The replacement pool
        starts cold; replacement workers need *no* re-shipped state — the
        run-invariant broadcast session still lives in the server-owned
        shared-memory manifest, so their first task re-materializes from
        the same handles every original worker used (no re-pickle of
        params — ``tests/parallel/test_supervision.py`` pins this).
        """
        self._ensure_open()
        old = self._executor
        # grab the worker handles before shutdown() drops its reference to
        # them (it sets _processes = None even with wait=False)
        workers = list((getattr(old, "_processes", None) or {}).values())
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may mis-shutdown
            pass
        # a hung (or kill-orphaned) worker survives a no-wait shutdown;
        # reclaim it explicitly so replenishment never leaks processes
        for process in workers:
            if process.is_alive():
                process.terminate()
        self._executor = self._spawn_pool()


EXECUTOR_BACKENDS: Dict[str, Type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadPoolExecutor,
    "process": ProcessPoolExecutor,
}


def available_backends() -> List[str]:
    """Names accepted by :func:`resolve_executor` (CLI ``--backend`` choices)."""
    return sorted(EXECUTOR_BACKENDS)


def resolve_executor(backend: str, workers: int = 1, *,
                     hosts: Optional[Sequence[str]] = None,
                     worker_token: Optional[str] = None) -> Executor:
    """Instantiate an executor by backend name.

    ``workers <= 0`` selects :func:`default_worker_count` workers.
    ``hosts``/``worker_token`` configure the socket backend's multi-host
    shape (pre-started ``repro.parallel.worker --listen`` daemons) and are
    rejected for every other backend.
    """
    key = backend.lower()
    if key == "socket" and key not in EXECUTOR_BACKENDS:
        # registration happens when repro.parallel.distributed is imported;
        # resolve it for callers that only imported this module
        from . import distributed  # noqa: F401 - registers the backend
    if key not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"available: {available_backends()}")
    if key == "socket":
        return EXECUTOR_BACKENDS[key](workers, hosts=hosts,
                                      token=worker_token)
    if hosts or worker_token:
        raise ValueError(
            "--hosts/--worker-token are only meaningful with the socket "
            f"backend, not {backend!r}")
    return EXECUTOR_BACKENDS[key](workers)
