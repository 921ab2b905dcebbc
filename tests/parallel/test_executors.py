"""Unit tests for the pluggable executor backends."""

from __future__ import annotations

import concurrent.futures
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import (EXECUTOR_BACKENDS, SerialExecutor,
                            ThreadPoolExecutor, available_backends,
                            clone_via_pickle, default_worker_count,
                            resolve_executor)


# task functions live at module level so the spawn-based process backend can
# import them in its workers
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _bump(payload):
    payload["count"] += 1
    return payload["count"]


def _mark_then_fail_on_odd_above_two(item):
    directory, x = item
    (Path(directory) / str(x)).touch()
    if x > 2 and x % 2:
        raise ValueError(f"task {x} failed")
    return x


class TestResolve:
    def test_available_backends(self):
        assert available_backends() == ["process", "serial", "socket", "thread"]
        assert set(EXECUTOR_BACKENDS) == {"serial", "thread", "process", "socket"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_executor("gpu")

    def test_resolves_requested_types(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        with resolve_executor("thread", 2) as executor:
            assert isinstance(executor, ThreadPoolExecutor)
            assert executor.workers == 2

    def test_nonpositive_workers_means_auto(self):
        with resolve_executor("thread", 0) as executor:
            assert executor.workers == default_worker_count()
            assert executor.workers >= 1

    def test_serial_is_always_single_worker(self):
        assert SerialExecutor(workers=8).workers == 1


class TestCloneViaPickle:
    def test_arrays_survive_bitwise(self):
        array = np.random.default_rng(0).standard_normal(64)
        clone = clone_via_pickle({"a": array})["a"]
        assert clone is not array
        assert np.array_equal(clone, array)
        assert clone.dtype == array.dtype

    def test_shared_references_stay_shared(self):
        inner = {"x": 1}
        a, b = clone_via_pickle((inner, inner))
        assert a is b


class TestExecutorContract:
    """What every backend owes its caller: one ``submit``, one ``map_ordered``.

    A backend implements ``submit`` only; ``map_ordered`` is the base
    class's, so these cases run unchanged over serial, thread and process.
    """

    @pytest.fixture(scope="class", params=["serial", "thread", "process"])
    def executor(self, request):
        # spawn start-up is expensive; share one pool per backend
        with resolve_executor(request.param, 2) as shared:
            yield shared

    def test_submit_returns_a_future_and_never_raises(self, executor):
        future = executor.submit(_fail_on_three, 3)
        assert isinstance(future, concurrent.futures.Future)
        with pytest.raises(ValueError, match="three"):
            future.result(timeout=60)
        assert executor.submit(_square, 4).result(timeout=60) == 16

    def test_witness_sees_each_submission_once(self, executor):
        seen = []
        executor.payload_witness = seen.append
        try:
            executor.map_ordered(_square, [1, 2, 3])
            executor.submit(_square, 4).result(timeout=60)
        finally:
            executor.payload_witness = None
        assert sorted(seen) == [1, 2, 3, 4]

    def test_map_ordered_returns_input_order(self, executor):
        assert executor.map_ordered(_square, list(range(10))) == \
            [x * x for x in range(10)]
        assert executor.map_ordered(_square, []) == []

    def test_tasks_run_in_place_only_on_serial(self, executor):
        # the serial backend is the reference: tasks see the real objects;
        # pool tasks run on private copies, so mutations never leak back
        # into the caller's objects — which makes thread match process
        payload = {"count": 0}
        assert executor.map_ordered(_bump, [payload, payload]) == \
            ([1, 2] if executor.backend == "serial" else [1, 1])
        assert payload["count"] == (2 if executor.backend == "serial" else 0)

    def test_pool_is_persistent_across_maps(self, executor):
        # the same pool serves many map calls (one per round in the trainer)
        # without re-spawning; warm_up is allowed at any point
        executor.warm_up()
        for _ in range(3):
            assert executor.map_ordered(_square, [2]) == [4]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_first_failure_raises_after_every_task_ran(self, backend,
                                                       tmp_path):
        items = [(str(tmp_path), x) for x in range(6)]
        with resolve_executor(backend, 2) as executor:
            with pytest.raises(ValueError, match="task 3"):
                executor.map_ordered(_mark_then_fail_on_odd_above_two,
                                     items)
        # close() waited for whatever a pool still had in flight
        assert sorted(int(path.name) for path in tmp_path.iterdir()) == \
            list(range(6))

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_closed_executor_refuses_work(self, backend):
        executor = resolve_executor(backend, 1)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(_square, 1)
        with pytest.raises(RuntimeError, match="closed"):
            executor.map_ordered(_square, [1])


class TestLifecycle:
    """close() semantics: exactly once, deterministic, loud on reuse."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_close_is_idempotent(self, backend):
        executor = resolve_executor(backend, 1)
        executor.close()
        executor.close()  # second close must not raise
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(_square, 1)

    def test_context_manager_closes_even_on_task_exception(self):
        with pytest.raises(ValueError, match="three"):
            with ThreadPoolExecutor(2) as executor:
                executor.map_ordered(_fail_on_three, [1, 3])
        with pytest.raises(RuntimeError, match="closed"):
            executor.map_ordered(_square, [1])
