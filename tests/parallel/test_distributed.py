"""Socket-backend contracts: golden parity, fault recovery, both shapes.

The distributed executor's headline promise is that moving execution onto
real TCP-connected worker processes — at any reducer shard count — does
not change a single bit of any training history.  That is asserted here
against the committed golden fixtures directly: every pinned spec is
re-run over the socket backend with the shard count rotating through
1/2/4, and compared bit-for-bit with zero regeneration.

Failure semantics are chaos-tested for real: an injected ``crashy`` plan
(``os._exit`` inside a worker) and an external SIGKILL mid-round must
both recover through ``replenish()`` + bounded retries with the same
deterministic ``fault_*`` counters the serial backend charges.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pickle
import signal
import socket as socket_module
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import preset_for, run_method, scaled
from repro.parallel import (BrokenSocketPool, RemoteTaskError, SocketExecutor,
                            resolve_executor)
from repro.parallel.framing import (NONCE_BYTES, FrameError, FrameKind,
                                    read_frame, send_frame)

_SPEC = importlib.util.spec_from_file_location(
    "golden_fixtures",
    Path(__file__).resolve().parents[1] / "fixtures" / "regenerate_golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

SPECS = golden.golden_specs()

#: the shard counts the golden parity sweep rotates through — every spec
#: runs at one of them, and together they cover the full fixture set at
#: each count without tripling the suite's runtime
SHARD_ROTATION = (1, 2, 4)


#: flipped if an unauthenticated payload ever reaches pickle.loads in the
#: executor process — see _PickleCanary
_CANARY_TRIPS: list = []


class _PickleCanary:
    """Pickles to a call that records the unpickle — an RCE tripwire."""

    def __reduce__(self):
        return (_CANARY_TRIPS.append, ("unauthenticated bytes unpickled",))


# task functions live at module level so the socket workers can import them
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _echo_array(array):
    return array * 2.0


def _exit_hard(_):
    os._exit(137)


@pytest.fixture(scope="module")
def executor():
    with SocketExecutor(workers=2) as shared:
        shared.warm_up()
        yield shared


def _strip_faults(history_dict):
    for record in history_dict.get("records", []):
        extras = record.get("extras") or {}
        record["extras"] = {key: value for key, value in extras.items()
                            if not key.startswith("fault_")}
    return history_dict


# ----------------------------------------------------------------- basics
class TestSocketExecutorBasics:
    def test_map_ordered(self, executor):
        assert executor.map_ordered(_square, range(8)) == \
            [x * x for x in range(8)]

    def test_task_exception_propagates(self, executor):
        with pytest.raises(ValueError, match="three"):
            executor.map_ordered(_fail_on_three, range(5))
        # the worker survives a task error — the pool is still usable
        assert executor.map_ordered(_square, [9]) == [81]

    def test_large_array_round_trip_bitwise(self, executor):
        array = np.random.default_rng(0).standard_normal(1 << 16)
        [result] = executor.map_ordered(_echo_array, [array])
        assert result.tobytes() == (array * 2.0).tobytes()

    def test_unpicklable_task_fails_its_future_only(self, executor):
        with pytest.raises(Exception):
            executor.map_ordered(lambda x: x, [1])  # lambdas cannot pickle
        assert executor.map_ordered(_square, [5]) == [25]

    def test_oversized_task_fails_its_future_only(self, executor,
                                                  monkeypatch):
        """A task too big to frame is the caller's error, not worker loss.

        The real ceiling is 2 GiB — impractical to allocate here — so the
        send path is narrowed to a 1 KiB limit; the FrameError it raises
        is exactly the one encode_frame produces pre-wire.
        """
        from repro.parallel import distributed as dist_mod
        real_send = dist_mod.send_frame

        def limited_send(sock, kind, payload):
            if kind == FrameKind.TASK and len(payload) > 1024:
                raise FrameError(
                    f"frame payload of {len(payload)} bytes exceeds the "
                    f"1024-byte limit")
            real_send(sock, kind, payload)

        monkeypatch.setattr(dist_mod, "send_frame", limited_send)
        with pytest.raises(FrameError, match="exceeds"):
            executor.map_ordered(_echo_array, [np.zeros(4096)])
        # the worker was never marked dead — small tasks still flow
        assert executor.map_ordered(_square, [7]) == [49]

    def test_transport_bytes_are_counted(self, executor):
        before = executor.bytes_sent, executor.bytes_received
        executor.map_ordered(_square, range(4))
        assert executor.bytes_sent > before[0]
        assert executor.bytes_received > before[1]

    def test_backend_capabilities(self, executor):
        assert executor.backend == "socket"
        assert executor.supports_broadcast
        assert executor.can_replenish

    def test_closed_executor_refuses_reuse(self):
        ex = SocketExecutor(workers=1)
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.map_ordered(_square, [1])

    def test_close_wakes_every_connection_thread(self):
        """A connection thread idle in the queue poll is woken by close(),
        not left to its poll timeout: with a poll far longer than close()'s
        join, every thread is gone when close() returns."""
        ex = SocketExecutor(workers=2)
        try:
            ex.warm_up()
            real_get = ex._queue.get
            # a blocking get polls for 10 s (get_nowait stays non-blocking)
            ex._queue.get = lambda block=True, timeout=None: real_get(
                block, timeout=10)
            time.sleep(0.3)  # every thread is back in the (long) poll
            threads = [c.thread for c in ex._connections]
            assert len(threads) == 2
        finally:
            ex.close()
        assert not any(thread.is_alive() for thread in threads)

    def test_replenish_restores_service(self):
        with SocketExecutor(workers=2) as ex:
            ex.warm_up()
            first_pids = {c.remote_pid for c in ex._connections}
            ex.replenish()
            assert ex.map_ordered(_square, range(4)) == [0, 1, 4, 9]
            ex.warm_up()
            assert {c.remote_pid for c in ex._connections} \
                .isdisjoint(first_pids)

    def test_resolve_executor_builds_socket_backend(self):
        with resolve_executor("socket", 1) as ex:
            assert isinstance(ex, SocketExecutor)

    def test_hosts_mode_requires_token(self):
        with pytest.raises(ValueError, match="token"):
            SocketExecutor(hosts=["127.0.0.1:1"])

    def test_hosts_flags_rejected_for_other_backends(self):
        with pytest.raises(ValueError, match="socket"):
            resolve_executor("thread", 2, hosts=["127.0.0.1:1"],
                             worker_token="t")


# ----------------------------------------------------------- daemon shape
class TestWorkerDaemon:
    def test_connect_to_a_listening_daemon(self):
        """The multi-host shape: a pre-started --listen worker daemon."""
        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [entry for entry in sys.path if entry])
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel.worker",
             "--listen", f"127.0.0.1:{port}", "--token", "secret"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            with SocketExecutor(hosts=[f"127.0.0.1:{port}"],
                                token="secret") as ex:
                ex.warm_up()
                assert ex.workers == 1
                assert ex.map_ordered(_square, range(5)) == \
                    [0, 1, 4, 9, 16]
        finally:
            daemon.terminate()
            daemon.wait(timeout=10)

    def test_wrong_token_is_rejected(self):
        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [entry for entry in sys.path if entry])
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel.worker",
             "--listen", f"127.0.0.1:{port}", "--token", "right"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            with pytest.raises(BrokenSocketPool):
                SocketExecutor(hosts=[f"127.0.0.1:{port}"], token="wrong",
                               start_timeout=10.0)
        finally:
            daemon.terminate()
            daemon.wait(timeout=10)

    def test_daemon_reveals_no_secret_to_an_unauthenticated_client(self):
        """Anyone can connect to a --listen port; they must learn nothing.

        The daemon's opening HELLO is a random nonce plus its pid — no
        token — and a client that cannot prove the token gets dropped
        before a single TASK frame would be accepted.
        """
        token = "deep-dark-secret"
        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [entry for entry in sys.path if entry])
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel.worker",
             "--listen", f"127.0.0.1:{port}", "--token", token],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    attacker = socket_module.create_connection(
                        ("127.0.0.1", port), timeout=5.0)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.1)
            try:
                kind, payload = read_frame(attacker)
                assert kind == FrameKind.HELLO
                assert len(payload) == NONCE_BYTES + 8  # nonce + pid only
                assert token.encode() not in payload
                # answer the challenge without the token: a well-formed
                # WELCOME whose proof is a guess
                send_frame(attacker, FrameKind.WELCOME,
                           os.urandom(NONCE_BYTES) + os.urandom(32))
                # the daemon must hang up, never reaching the TASK loop
                attacker.settimeout(10.0)
                assert attacker.recv(1) == b""
            finally:
                attacker.close()
        finally:
            daemon.terminate()
            daemon.wait(timeout=10)


# ----------------------------------------------------- handshake security
class TestListenerSecurity:
    """The executor's loopback listener against unauthenticated peers."""

    def test_unauthenticated_bytes_are_never_unpickled(self, executor):
        """A pickle bomb in a HELLO frame must not reach pickle.loads."""
        _CANARY_TRIPS.clear()
        attacker = socket_module.create_connection(
            ("127.0.0.1", executor._port), timeout=5.0)
        try:
            send_frame(attacker, FrameKind.HELLO,
                       pickle.dumps(_PickleCanary()))
            attacker.settimeout(10.0)
            assert attacker.recv(1) == b""  # dropped, no WELCOME
        finally:
            attacker.close()
        assert _CANARY_TRIPS == []

    def test_forged_proof_is_not_adopted(self, executor):
        """A well-formed handshake with a guessed proof gets rejected."""
        with executor._lock:
            before = len(executor._connections)
        attacker = socket_module.create_connection(
            ("127.0.0.1", executor._port), timeout=5.0)
        try:
            send_frame(attacker, FrameKind.HELLO,
                       os.urandom(NONCE_BYTES) + struct.pack(">Q", 4242))
            attacker.settimeout(10.0)
            kind, _ = read_frame(attacker)
            assert kind == FrameKind.WELCOME
            send_frame(attacker, FrameKind.AUTH, os.urandom(32))
            assert attacker.recv(1) == b""  # hung up on, not adopted
        finally:
            attacker.close()
        with executor._lock:
            assert len(executor._connections) == before
        # the pool is unbothered by the attempt
        assert executor.map_ordered(_square, [6]) == [36]


# ---------------------------------------------------------- golden parity
@pytest.mark.parametrize("name,method,scenario,aggregation,codec,shards",
                         [spec + (SHARD_ROTATION[i % len(SHARD_ROTATION)],)
                          for i, spec in enumerate(SPECS)],
                         ids=[f"{spec[0]}-shards{SHARD_ROTATION[i % 3]}"
                              for i, spec in enumerate(SPECS)])
def test_socket_backend_reproduces_golden_fixture(executor, name, method,
                                                  scenario, aggregation,
                                                  codec, shards):
    """Every pinned trajectory, over real TCP, sharded — zero drift.

    The committed fixtures are NOT regenerated for the distributed
    backend: whatever bytes the serial reference produced, the socket
    backend at every rotated shard count must reproduce exactly (wire
    reports included — codec blocks ride the socket natively).
    """
    payload = json.loads(golden.fixture_path(name).read_text())
    preset = scaled(golden.golden_preset(scenario, aggregation, codec),
                    reducer_shards=shards)
    history = run_method(method, preset, executor=executor)
    fresh = json.loads(json.dumps(history.to_dict()))
    assert fresh == payload["history"], (
        f"socket backend drifted {method!r} ({scenario}, {aggregation}, "
        f"{codec}) at {shards} reducer shards off the golden fixture")


@pytest.mark.parametrize("shards", SHARD_ROTATION[1:])
def test_serial_sharded_reproduces_golden_fixture(shards):
    """Shard counts alone (no sockets) leave the fixtures untouched too."""
    name, method, scenario, aggregation, codec = SPECS[0]
    payload = json.loads(golden.fixture_path(name).read_text())
    preset = scaled(golden.golden_preset(scenario, aggregation, codec),
                    reducer_shards=shards)
    fresh = json.loads(json.dumps(run_method(method, preset).to_dict()))
    assert fresh == payload["history"]


# ------------------------------------------------------------ chaos cells
class TestFaultRecovery:
    CHAOS_OVERRIDES = dict(num_clients=4, num_rounds=2, clients_per_round=4,
                           examples_per_client=20, local_iterations=2,
                           batch_size=8)

    def test_injected_crash_charges_identical_fault_counters(self):
        """crashy plan: a real os._exit in a socket worker vs simulated.

        Seed 0 schedules one crash at (round 0, client 1); the socket
        backend realizes it as a dead worker process and must recover to
        the exact history — fault counters included — the serial
        backend's simulated crash produces.
        """
        preset = scaled(preset_for("mnist"), seed=0, fault_plan="crashy",
                        max_retries=4, task_timeout=30.0,
                        **self.CHAOS_OVERRIDES)
        serial = run_method("fedavg", preset).to_dict()
        assert serial["records"][0]["extras"]["fault_worker_restarts"] == 1.0
        with SocketExecutor(workers=2) as ex:
            ex.warm_up()
            sock = run_method("fedavg", preset, executor=ex).to_dict()
            # the crash really killed a worker: a second generation spawned
            assert ex._worker_seq > 2
        assert sock == serial

    def test_sigkill_mid_round_recovers_bit_identical(self):
        """An external SIGKILL (no fault plan) recovers via replenish().

        The recovered history must match the clean serial run exactly
        once the ``fault_*`` recovery counters (the one legitimate
        difference) are stripped.
        """
        preset = scaled(preset_for("mnist"), seed=11, max_retries=3,
                        task_timeout=30.0, **self.CHAOS_OVERRIDES)
        clean = _strip_faults(run_method("fedavg", preset).to_dict())
        with SocketExecutor(workers=2) as ex:
            ex.warm_up()
            submitted = []

            def witness(item):
                submitted.append(1)
                if len(submitted) == 2:  # mid-round-0 fan-out
                    def kill():
                        time.sleep(0.005)
                        with ex._lock:
                            live = [c for c in ex._connections if not c.dead]
                        if live:
                            os.kill(live[0].remote_pid, signal.SIGKILL)
                    threading.Thread(target=kill, daemon=True).start()

            ex.payload_witness = witness
            recovered = run_method("fedavg", preset, executor=ex).to_dict()
        assert _strip_faults(json.loads(json.dumps(recovered))) == clean

    def test_unsupervised_worker_loss_surfaces_as_broken_pool(self):
        with SocketExecutor(workers=1) as ex:
            ex.warm_up()
            with pytest.raises(BrokenSocketPool):
                ex.map_ordered(_exit_hard, [None])
            ex.replenish()
            ex.warm_up()
            assert ex.map_ordered(_square, [3]) == [9]

    def test_submit_after_total_worker_loss_fails_fast(self):
        """A task queued after the pool died must not wait forever.

        The process-exit and connection-retire events that normally fail
        the queue all fired before this submit — the submit itself has to
        notice the dead pool.
        """
        with SocketExecutor(workers=1) as ex:
            ex.warm_up()
            with pytest.raises(BrokenSocketPool):
                ex.map_ordered(_exit_hard, [None])
            # let the watcher threads finish their post-mortem events
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with ex._lock:
                    quiet = not ex._connections and all(
                        process.poll() is not None
                        for process, _ in ex._processes)
                if quiet:
                    break
                time.sleep(0.02)
            future = ex.submit(_square, 2)
            with pytest.raises(BrokenSocketPool):
                future.result(timeout=10)
