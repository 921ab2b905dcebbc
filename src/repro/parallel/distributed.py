"""Distributed socket backend: remote workers over TCP.

:class:`SocketExecutor` is the fourth execution backend: workers are
separate *processes connected by sockets* rather than members of a
``concurrent.futures`` pool, so they can in principle live on other
machines.  Two deployment shapes share one protocol
(:mod:`repro.parallel.framing`):

* **localhost** (the default, what tests and CI exercise): the executor
  listens on an ephemeral ``127.0.0.1`` port and spawns
  ``python -m repro.parallel.worker --connect`` subprocesses that dial
  back in;
* **multi-host**: the executor is given ``host:port`` addresses of
  pre-started ``python -m repro.parallel.worker --listen`` daemons and
  connects out to them.  The shared ``--token`` authenticates both
  directions through a mutual HMAC challenge-response (see
  :mod:`repro.parallel.framing`): each peer proves it holds the token
  before the other trusts it with anything, the token itself never
  crosses the wire, and no unauthenticated byte is ever unpickled.

Broadcast semantics are content-addressed, like the shared-memory path:
a task payload carries :class:`~repro.parallel.broadcast.BroadcastHandle`
references, and a worker that does not hold a handle's segment bytes yet
pulls them once with a ``FETCH(digest)``/``BLOB`` exchange, then caches
them by digest.  The run-invariant session broadcast keeps one digest for
the whole run, so every worker fetches it exactly once (and a replacement
worker re-fetches it on its first task — re-materialization from the
manifest, no re-pickled params).  Workers must *not* attach the server's
shared-memory segments even on the same machine: an independent process
registers attachments with its **own** resource tracker (bpo-39959),
which would unlink the server's segments on worker exit — fetching bytes
over the socket sidesteps the hazard entirely and is exactly what a
remote worker needs anyway.

Failure semantics plug into the PR 8 supervision contract: a worker that
dies mid-task (EOF/reset on its socket — e.g. a SIGKILL) surfaces as
:class:`BrokenSocketPool`, a ``concurrent.futures.BrokenExecutor``
subclass, so :mod:`repro.parallel.supervision` reacts exactly as it does
to a broken process pool — ``replenish()`` (kill survivors, respawn or
reconnect the full complement cold) plus bounded retries, with exhausted
tasks degrading to dropped clients and every recovery charged to the
deterministic ``fault_*`` counters.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import pickle
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace as dataclass_replace
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..util import BoundedLRU
from .broadcast import BroadcastHandle, _attach_and_copy
from .executors import EXECUTOR_BACKENDS, Executor
from .framing import (HANDSHAKE_TIMEOUT, HEADER_BYTES, ConnectionClosed,
                      FrameError, FrameKind, read_frame, send_frame,
                      server_handshake)

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: distinct broadcast segments kept servable for worker FETCHes — the live
#: set is the session broadcast plus the current round's fan-out(s), same
#: sizing logic as the worker-side materialize cache
HANDLE_REGISTRY_LIMIT = 16


class BrokenSocketPool(concurrent.futures.BrokenExecutor):
    """A socket worker died while a task was in flight.

    Subclassing ``BrokenExecutor`` is the integration contract with the
    supervision layer: its crash-isolation and unscheduled-breakage paths
    match on that base class, so a SIGKILLed remote worker recovers
    through the exact machinery a broken process pool does.
    """


class RemoteTaskError(RuntimeError):
    """A remote task failed in a way that could not cross the wire intact."""


def iter_broadcast_handles(obj: Any) -> Iterator[BroadcastHandle]:
    """Every :class:`BroadcastHandle` reachable through containers."""
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, BroadcastHandle):
            yield node
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())


def resolve_handles(obj: Any,
                    fetch: Callable[[BroadcastHandle], bytes]) -> Any:
    """Worker-side: swap shared-memory handles for inline ones.

    ``fetch(handle)`` returns the handle's whole segment bytes (from the
    worker's digest cache or a FETCH round trip); the replaced handle then
    rides the ordinary ``materialize`` inline path.  Containers are
    rebuilt only when something inside them actually changed.
    """
    if isinstance(obj, BroadcastHandle):
        if obj.inline is not None:
            return obj
        return dataclass_replace(obj, shm_name=None, inline=fetch(obj))
    if isinstance(obj, tuple):
        resolved = tuple(resolve_handles(item, fetch) for item in obj)
        return obj if all(a is b for a, b in zip(obj, resolved)) else resolved
    if isinstance(obj, list):
        resolved_list = [resolve_handles(item, fetch) for item in obj]
        return obj if all(a is b for a, b in zip(obj, resolved_list)) \
            else resolved_list
    if isinstance(obj, dict):
        resolved_dict = {key: resolve_handles(value, fetch)
                         for key, value in obj.items()}
        return obj if all(obj[key] is resolved_dict[key] for key in obj) \
            else resolved_dict
    return obj


class _TaskUnsent(Exception):
    """The TASK frame never reached the worker (socket already dead).

    The task provably did not start executing, so the connection hands it
    back to the shared queue instead of failing its future — this is what
    makes ``replenish()`` race-free for idle workers: a retiring
    connection that grabs one last task simply returns it, and the next
    generation runs it.
    """


def _set_result_safe(future: concurrent.futures.Future, result: Any) -> None:
    try:
        future.set_result(result)
    except concurrent.futures.InvalidStateError:  # abandoned (timed out)
        pass


def _set_exception_safe(future: concurrent.futures.Future,
                        exc: BaseException) -> None:
    try:
        future.set_exception(exc)
    except concurrent.futures.InvalidStateError:  # abandoned (timed out)
        pass


class _WorkerConnection:
    """One authenticated worker socket plus the thread that drives it.

    The protocol per task is strictly half-duplex: the thread sends one
    ``TASK``, then reads frames — serving any ``FETCH`` requests — until
    the matching ``RESULT``/``FAILED`` arrives.  Any transport error in
    between means the worker is gone: the in-flight future fails with
    :class:`BrokenSocketPool` and the connection retires itself.
    """

    def __init__(self, executor: "SocketExecutor", sock: socket.socket,
                 generation: int, worker_id: int,
                 process: Optional[subprocess.Popen] = None) -> None:
        self.executor = executor
        self.sock = sock
        self.generation = generation
        self.worker_id = worker_id
        self.process = process
        self.remote_pid: Optional[int] = None
        self.dead = False
        self.thread = threading.Thread(
            target=self._serve, daemon=True,
            name=f"socket-worker-{worker_id}")

    def start(self) -> None:
        self.thread.start()

    def close_socket(self) -> None:
        self.dead = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------ transport
    def _send(self, kind: int, payload: bytes) -> None:
        send_frame(self.sock, kind, payload)
        self.executor._count_io(sent=HEADER_BYTES + len(payload))

    def _read(self) -> Tuple[int, bytes]:
        kind, payload = read_frame(self.sock)
        self.executor._count_io(received=HEADER_BYTES + len(payload))
        return kind, payload

    # ----------------------------------------------------------------- loop
    def _serve(self) -> None:
        executor = self.executor
        try:
            while True:
                entry = executor._next_task(self)
                if entry is None:
                    return
                future = entry[2]
                try:
                    self._run_task(entry)
                except _TaskUnsent:
                    self.dead = True
                    executor._requeue(entry)
                    return
                except (ConnectionClosed, FrameError, OSError) as exc:
                    self.dead = True
                    _set_exception_safe(future, BrokenSocketPool(
                        f"socket worker {self.worker_id} (remote pid "
                        f"{self.remote_pid}) died mid-task: {exc}"))
                    return
        finally:
            self.close_socket()
            executor._connection_finished(self)

    def _run_task(self, entry: list) -> None:
        executor = self.executor
        fn, item, future, _ = entry
        task_id = executor._next_task_id()
        for handle in iter_broadcast_handles(item):
            if handle.inline is None:
                executor._register_handle(handle)
        try:
            frame = pickle.dumps((task_id, fn, item),
                                 protocol=_PICKLE_PROTOCOL)
        except Exception as exc:
            # an unpicklable task is the caller's error, same as the pool
            # backends — the connection (and its worker) stays healthy
            _set_exception_safe(future, exc)
            return
        try:
            self._send(FrameKind.TASK, frame)
        except FrameError as exc:
            # encode_frame refused the frame (an oversized task) before a
            # single byte hit the wire: the caller's error, exactly like
            # an unpicklable task — the worker stays healthy
            _set_exception_safe(future, exc)
            return
        except (ConnectionClosed, OSError) as exc:
            raise _TaskUnsent() from exc
        while True:
            kind, payload = self._read()
            if kind == FrameKind.FETCH:
                digest = payload.decode("ascii", "replace")
                self._send(FrameKind.BLOB, executor._segment_bytes(digest))
            elif kind == FrameKind.RESULT:
                try:
                    _, result = pickle.loads(payload)
                except Exception as exc:
                    _set_exception_safe(future, RemoteTaskError(
                        f"could not unpickle the result of task {task_id}: "
                        f"{exc}"))
                    return
                _set_result_safe(future, result)
                return
            elif kind == FrameKind.FAILED:
                try:
                    _, exc = pickle.loads(payload)
                except Exception as unpickle_exc:
                    exc = RemoteTaskError(
                        f"task {task_id} failed remotely and its exception "
                        f"could not be unpickled: {unpickle_exc}")
                _set_exception_safe(future, exc)
                return
            elif kind == FrameKind.BYE:
                raise ConnectionClosed("worker said BYE mid-task")
            else:
                raise FrameError(
                    f"unexpected frame kind {kind} while awaiting a result")


class SocketExecutor(Executor):
    """TCP-connected worker processes behind the :class:`Executor` API.

    Localhost by default: ``workers`` subprocesses are spawned and dial
    back into an ephemeral loopback listener.  Pass ``hosts`` (a list of
    ``"host:port"`` strings, with the ``token`` the daemons were started
    with) to connect out to pre-started remote workers instead.

    Tasks are pulled from one shared queue by whichever connected worker
    is free, so submissions overlap work exactly like the pool backends;
    determinism is unaffected because callers never depend on assignment
    (the history sort key is ``(finish_time, client_id)``).
    """

    backend = "socket"
    supports_broadcast = True
    can_replenish = True

    def __init__(self, workers: int = 1, *,
                 hosts: Optional[Sequence[str]] = None,
                 token: Optional[str] = None,
                 start_timeout: float = 30.0) -> None:
        if hosts:
            if token is None:
                raise ValueError(
                    "hosts mode needs the shared token the worker daemons "
                    "were started with (--worker-token)")
            super().__init__(len(hosts))
        else:
            super().__init__(workers)
        self._hosts = [self._parse_host(spec) for spec in hosts] \
            if hosts else None
        self._token = token if token is not None else os.urandom(16).hex()
        self._start_timeout = float(start_timeout)
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.RLock()
        self._connections: List[_WorkerConnection] = []
        self._processes: List[Tuple[subprocess.Popen, int]] = []
        self._generation = 0
        self._replenishing = False
        self._worker_seq = 0
        self._task_ids = itertools.count()
        self._handles = BoundedLRU(HANDLE_REGISTRY_LIMIT)
        self._handles_lock = threading.Lock()
        self._io_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self._listener: Optional[socket.socket] = None
        if self._hosts:
            self._connect_hosts(self._generation)
        else:
            self._listener = socket.create_server(("127.0.0.1", 0))
            self._port = self._listener.getsockname()[1]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, daemon=True, name="socket-accept")
            self._accept_thread.start()
            self._spawn_workers(self._generation)

    @staticmethod
    def _parse_host(spec: str) -> Tuple[str, int]:
        host, sep, port = spec.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(f"worker host must be HOST:PORT, got {spec!r}")
        return host, int(port)

    # -------------------------------------------------------- worker supply
    def _worker_env(self) -> dict:
        # the subprocess must unpickle task functions however the server
        # would — the same contract as the spawn-based process backend,
        # which ships the parent's sys.path to its workers.  Mirror that:
        # the directory containing our package first (tests run off
        # PYTHONPATH=src, deployments off an installed package), then the
        # parent's import path, then any pre-existing PYTHONPATH.
        import repro
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        entries = [src_dir]
        entries.extend(entry for entry in sys.path if entry)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        if existing:
            entries.append(existing)
        seen = set()
        unique = [entry for entry in entries
                  if not (entry in seen or seen.add(entry))]
        env["PYTHONPATH"] = os.pathsep.join(unique)
        return env

    def _spawn_workers(self, generation: int) -> None:
        command = [sys.executable, "-m", "repro.parallel.worker",
                   "--connect", f"127.0.0.1:{self._port}",
                   "--token", self._token]
        env = self._worker_env()
        for _ in range(self.workers):
            process = subprocess.Popen(command, env=env,
                                       stdin=subprocess.DEVNULL,
                                       stdout=subprocess.DEVNULL)
            with self._lock:
                self._processes.append((process, generation))
            threading.Thread(target=self._watch_process,
                             args=(process, generation), daemon=True).start()

    def _watch_process(self, process: subprocess.Popen,
                       generation: int) -> None:
        process.wait()
        self._maybe_fail_pending(generation)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            threading.Thread(target=self._admit, args=(sock,),
                             daemon=True).start()

    def _admit(self, sock: socket.socket) -> None:
        """Authenticate one inbound (localhost-spawned) worker.

        The handshake payloads are fixed-length raw bytes verified with
        a constant-time HMAC comparison — nothing from the peer is
        unpickled until it has proven the token, so a stray local
        process connecting to the loopback listener gets no pickle
        deserialization surface and no adoption.
        """
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            remote_pid = server_handshake(sock, self._token)
            sock.settimeout(None)
        except Exception:
            try:
                sock.close()
            except OSError:
                pass
            return
        self._adopt(sock, remote_pid=remote_pid)

    def _adopt(self, sock: socket.socket, *,
               remote_pid: Optional[int]) -> None:
        with self._lock:
            if self._closed:
                sock.close()
                return
            self._worker_seq += 1
            connection = _WorkerConnection(self, sock, self._generation,
                                           self._worker_seq)
            connection.remote_pid = remote_pid
            self._connections.append(connection)
        connection.start()

    def _connect_hosts(self, generation: int) -> None:
        assert self._hosts is not None
        for host, port in self._hosts:
            deadline = time.monotonic() + self._start_timeout
            while True:
                try:
                    sock = socket.create_connection(
                        (host, port), timeout=HANDSHAKE_TIMEOUT)
                    break
                except OSError as exc:
                    if time.monotonic() >= deadline:
                        raise BrokenSocketPool(
                            f"could not reach worker daemon {host}:{port} "
                            f"within {self._start_timeout:.0f}s: {exc}"
                        ) from exc
                    time.sleep(0.2)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(HANDSHAKE_TIMEOUT)
            # the accepting daemon speaks first, mirroring the localhost
            # direction: worker HELLO, executor challenge, worker proof —
            # nothing the daemon sends is unpickled before it verifies
            try:
                remote_pid = server_handshake(sock, self._token)
            except (ConnectionClosed, FrameError, OSError) as exc:
                sock.close()
                raise BrokenSocketPool(
                    f"worker daemon {host}:{port} failed authentication: "
                    f"{exc}") from exc
            sock.settimeout(None)
            self._adopt(sock, remote_pid=remote_pid)

    # ------------------------------------------------------------------ api
    def submit(self, fn: Callable[[Any], Any],
               item: Any) -> concurrent.futures.Future:
        self._ensure_open()
        self._observe(item)
        future: concurrent.futures.Future = concurrent.futures.Future()
        # [fn, item, future, started] — ``started`` flips once the future
        # is marked running, so a task requeued by a dying connection is
        # not double-transitioned when the next generation picks it up
        self._queue.put([fn, item, future, False])
        # a task queued after the pool's last worker already died would
        # otherwise wait forever: the process-exit/connection-retire
        # events that normally fail the queue fired before it was queued
        with self._lock:
            generation = self._generation
        self._maybe_fail_pending(generation)
        return future

    def warm_up(self) -> None:
        """Block until the full worker complement is connected."""
        self._ensure_open()
        deadline = time.monotonic() + self._start_timeout
        while True:
            with self._lock:
                live = sum(1 for c in self._connections
                           if c.generation == self._generation and not c.dead)
                spawned_alive = any(
                    process.poll() is None for process, generation
                    in self._processes if generation == self._generation)
            if live >= self.workers:
                return
            if self._hosts is None and not spawned_alive:
                raise BrokenSocketPool(
                    "socket workers exited before connecting — check that "
                    "the worker subprocesses can import repro")
            if time.monotonic() >= deadline:
                raise BrokenSocketPool(
                    f"only {live}/{self.workers} socket workers connected "
                    f"within {self._start_timeout:.0f}s")
            time.sleep(0.02)

    def replenish(self) -> None:
        """Rebuild the full worker complement after worker loss.

        Everything goes: live sockets are closed (which retires their
        connection threads), localhost subprocesses are terminated, and a
        cold complement is spawned (or the remote daemons reconnected).
        Replacement workers need *no* re-shipped state — the run-invariant
        session broadcast keeps its digest, so their first task re-fetches
        the same content-addressed segment every original worker used.
        Queued tasks survive in the shared queue and are picked up by the
        new generation.
        """
        self._ensure_open()
        with self._lock:
            self._generation += 1
            generation = self._generation
            # the new generation has no workers until the respawn below
            # completes — park _maybe_fail_pending so a concurrent
            # submit() does not mistake the window for a dead pool
            self._replenishing = True
            connections = list(self._connections)
            processes = self._processes
            self._processes = []
        try:
            for connection in connections:
                connection.close_socket()
            for process, _ in processes:
                if process.poll() is None:
                    process.terminate()
            for process, _ in processes:
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                    process.kill()
                    process.wait(timeout=5)
            if self._hosts:
                self._connect_hosts(generation)
            else:
                self._spawn_workers(generation)
        finally:
            with self._lock:
                self._replenishing = False

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        with self._lock:
            connections = list(self._connections)
            self._connections = []
            processes = self._processes
            self._processes = []
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for connection in connections:
            connection.close_socket()
        for process, _ in processes:
            if process.poll() is None:
                process.terminate()
        for process, _ in processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                process.kill()
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                break
            self._settle_closed(entry)
        for connection in connections:
            if connection.thread.is_alive() \
                    and connection.thread is not threading.current_thread():
                connection.thread.join(timeout=2)

    # ------------------------------------------------------------ internals
    def _next_task(self, connection: _WorkerConnection):
        """The next queued entry, or None when this connection should exit.

        Staleness is re-checked *after* the blocking ``get``: a retiring
        connection (``replenish()`` closed its socket while it waited) can
        win the race for a freshly queued task, and must hand it back for
        the new generation instead of failing it on a dead socket.
        """
        while True:
            with self._lock:
                if (self._closed or connection.dead
                        or connection.generation != self._generation):
                    return None
            try:
                entry = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            with self._lock:
                stale = (self._closed or connection.dead
                         or connection.generation != self._generation)
            if stale:
                if self._closed:
                    self._settle_closed(entry)
                else:
                    self._queue.put(entry)
                return None
            if not entry[3]:
                if not entry[2].set_running_or_notify_cancel():
                    continue  # cancelled while queued
                entry[3] = True
            return entry

    def _requeue(self, entry: list) -> None:
        """Hand back a task whose TASK frame never reached a worker."""
        if self._closed:
            self._settle_closed(entry)
        else:
            self._queue.put(entry)

    @staticmethod
    def _settle_closed(entry: list) -> None:
        _, _, future, started = entry
        if started:
            _set_exception_safe(future, BrokenSocketPool(
                "executor closed while the task was queued"))
        else:
            future.cancel()

    def _next_task_id(self) -> int:
        with self._lock:
            return next(self._task_ids)

    def _register_handle(self, handle: BroadcastHandle) -> None:
        with self._handles_lock:
            self._handles.put(handle.digest, handle)

    def _segment_bytes(self, digest: str) -> bytes:
        """Serve one FETCH: the segment bytes, or empty = cannot serve.

        Empty is unambiguous as an error marker — a real segment always
        contains at least the pickled payload blob.
        """
        with self._handles_lock:
            handle = self._handles.get(digest)
        if handle is None:
            return b""
        try:
            return _attach_and_copy(handle)
        except Exception:
            return b""

    def _count_io(self, *, sent: int = 0, received: int = 0) -> None:
        with self._io_lock:
            self.bytes_sent += sent
            self.bytes_received += received

    def _connection_finished(self, connection: _WorkerConnection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)
        self._maybe_fail_pending(connection.generation)

    def _maybe_fail_pending(self, generation: int) -> None:
        """Fail queued tasks when a generation has no live workers left.

        Without this, an unsupervised ``map_ordered`` whose every worker
        died would wait forever; failing the queue turns the hang into a
        :class:`BrokenSocketPool` the caller (or supervision, which then
        replenishes) can act on.
        """
        with self._lock:
            if self._closed or generation != self._generation \
                    or self._replenishing:
                return
            if any(c.generation == generation and not c.dead
                   for c in self._connections):
                return
            if any(process.poll() is None for process, g in self._processes
                   if g == generation):
                return
            pending = []
            while True:
                try:
                    pending.append(self._queue.get_nowait())
                except queue.Empty:
                    break
        for _, _, future, started in pending:
            if started or future.set_running_or_notify_cancel():
                _set_exception_safe(future, BrokenSocketPool(
                    "every socket worker is gone; replenish() rebuilds "
                    "the pool"))


EXECUTOR_BACKENDS["socket"] = SocketExecutor
