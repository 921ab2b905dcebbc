"""Supervised execution: retries, timeouts, crash recovery, replenishment."""

from __future__ import annotations

import time

import pytest

from repro.parallel import (FaultPlan, ProcessPoolExecutor, RetryPolicy,
                            SerialExecutor, ThreadPoolExecutor,
                            resolve_executor, retry_call, run_supervised)
from repro.parallel.supervision import FaultCounters


# task functions live at module level so the spawn-based process backend can
# import them in its workers
def _double(x):
    return x * 2


def _sleep_forever(x):
    time.sleep(600)
    return x  # pragma: no cover - reclaimed long before this returns


#: calls per payload of ``_flaky`` (pool tasks run on copies of the payload,
#: so the count lives at module level, where the thread backend shares it)
_FLAKY_CALLS: dict = {}


def _flaky(x):
    _FLAKY_CALLS[x] = _FLAKY_CALLS.get(x, 0) + 1
    if x == 2 and _FLAKY_CALLS[x] < 3:
        raise ValueError("transient")
    return x


def _poisoned(x):
    if x == 1:
        raise ValueError("always")
    return x


def _always_fail(x):
    raise ValueError("no")


def failed_keys(tasks, report):
    """The keys of the tasks that ran out of retries, sorted: ``results``
    holds ``None`` exactly there (no task body here returns ``None``)."""
    return sorted(key for (key, _), result in zip(tasks, report.results)
                  if result is None)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0.0)

    def test_active_only_when_it_changes_anything(self):
        assert not RetryPolicy().active
        assert RetryPolicy(max_retries=1).active
        assert RetryPolicy(task_timeout=5.0).active

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_retries=10, backoff_base=0.02,
                             backoff_cap=0.1, wall_sleep_cap=0.01)
        assert policy.backoff_seconds(0) == pytest.approx(0.02)
        assert policy.backoff_seconds(1) == pytest.approx(0.04)
        assert policy.backoff_seconds(9) == pytest.approx(0.1)  # capped
        # the real sleep is additionally wall-clock capped
        assert policy.sleep_seconds(9) == pytest.approx(0.01)

    def test_should_retry_bounds_attempts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(0) and policy.should_retry(1)
        assert not policy.should_retry(2)


class TestFaultCounters:
    def test_extras_are_fault_prefixed_floats(self):
        extras = FaultCounters(retries=2, timeouts=1, worker_restarts=3,
                               exhausted=1, backoff_seconds=0.06).as_extras()
        assert set(extras) == {"fault_retries", "fault_timeouts",
                               "fault_worker_restarts", "fault_exhausted",
                               "fault_backoff_seconds"}
        assert all(isinstance(value, float) for value in extras.values())
        assert extras["fault_worker_restarts"] == 3.0


class TestSupervision:
    """One supervision loop: the same cases on serial and on a thread pool."""

    @pytest.fixture(params=["serial", "thread"])
    def executor(self, request):
        with resolve_executor(request.param, 2) as executor:
            yield executor

    def test_plain_run_returns_results_in_task_order(self, executor):
        tasks = [(7, 1), (3, 2), (9, 3)]
        report = run_supervised(executor, _double, tasks,
                                policy=RetryPolicy())
        assert report.results == [2, 4, 6]
        assert failed_keys(tasks, report) == []
        assert report.counters.as_extras()["fault_retries"] == 0.0

    def test_transient_failure_is_retried_to_success(self, executor):
        _FLAKY_CALLS.clear()
        report = run_supervised(executor, _flaky, [(i, i) for i in range(4)],
                                policy=RetryPolicy(max_retries=3))
        assert report.results == [0, 1, 2, 3]
        assert report.counters.retries == 2
        assert report.counters.backoff_seconds > 0

    def test_exhausted_task_degrades_to_failed_key(self, executor):
        tasks = [(i, i) for i in range(3)]
        report = run_supervised(executor, _poisoned, tasks,
                                policy=RetryPolicy(max_retries=2))
        assert report.results == [0, None, 2]
        assert failed_keys(tasks, report) == [1]
        assert report.counters.exhausted == 1
        assert report.counters.retries == 2

    def test_single_task_with_a_retry_budget(self, executor):
        report = run_supervised(executor, _double, [(0, 5)],
                                policy=RetryPolicy(max_retries=1))
        assert report.results == [10]

    def test_injected_plan_faults_are_counted_by_kind(self, executor):
        plan = FaultPlan(seed=1, crash_rate=1.0)
        tasks = [(0, 1), (1, 2)]
        report = run_supervised(executor, _double, tasks,
                                policy=RetryPolicy(max_retries=1), plan=plan)
        # every attempt crashes: initial + 1 retry each, then exhaustion
        assert report.results == [None, None]
        assert failed_keys(tasks, report) == [0, 1]
        assert report.counters.worker_restarts == 4
        assert report.counters.exhausted == 2

    def test_every_failed_task_leaves_none_in_task_order(self, executor):
        tasks = [(9, 9), (1, 1), (5, 5)]
        report = run_supervised(executor, _always_fail, tasks,
                                policy=RetryPolicy())
        assert report.results == [None, None, None]
        assert failed_keys(tasks, report) == [1, 5, 9]

    def test_only_pools_sleep_before_a_retry(self, executor, monkeypatch):
        # the serial reference has no pool contention to back off from
        from repro.parallel import supervision

        pauses = []
        monkeypatch.setattr(supervision.time, "sleep", pauses.append)
        report = run_supervised(executor, _double, [(0, 1), (1, 2)],
                                policy=RetryPolicy(max_retries=1),
                                plan=FaultPlan(seed=1, exception_rate=1.0))
        assert report.counters.retries == 2
        assert len(pauses) == (0 if executor.backend == "serial" else 2)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_witness_sees_every_attempt_once(backend):
    """Every attempt is one submission, so one witness call — no more."""
    seen = []
    with resolve_executor(backend, 2) as executor:
        executor.payload_witness = seen.append
        tasks = [(i, i) for i in range(3)]
        report = run_supervised(executor, _double, tasks,
                                policy=RetryPolicy(max_retries=1,
                                                   wall_sleep_cap=0.0),
                                plan=FaultPlan(seed=0, exception_rate=1.0))
    # three tasks x (first attempt + one retry)
    assert report.counters.retries == 3
    assert failed_keys(tasks, report) == [0, 1, 2]
    assert len(seen) == 6


class TestThreadSupervision:
    def test_pool_matches_serial_results(self):
        tasks = [(i, i) for i in range(6)]
        serial = run_supervised(SerialExecutor(), _double, tasks,
                                policy=RetryPolicy())
        with ThreadPoolExecutor(2) as executor:
            pooled = run_supervised(executor, _double, tasks,
                                    policy=RetryPolicy())
        assert pooled.results == serial.results

    def test_simulated_crash_is_retried_without_replenish(self):
        # threads cannot lose a worker: crash decisions simulate in-process
        plan = FaultPlan(seed=2, crash_rate=0.5)
        tasks = [(i, i) for i in range(8)]
        with ThreadPoolExecutor(2) as executor:
            report = run_supervised(executor, _double, tasks,
                                    policy=RetryPolicy(max_retries=4),
                                    plan=plan)
        serial = run_supervised(SerialExecutor(), _double, tasks,
                                policy=RetryPolicy(max_retries=4), plan=plan)
        assert report.results == [i * 2 for i in range(8)]
        assert report.counters == serial.counters

    def test_replenish_refused_on_thread_backend(self):
        with ThreadPoolExecutor(2) as executor:
            assert not executor.can_replenish
            with pytest.raises(RuntimeError, match="cannot replenish"):
                executor.replenish()

    def test_submit_after_close_raises(self):
        executor = ThreadPoolExecutor(2)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(_double, 1)


class TestProcessSupervision:
    def test_killed_worker_is_replenished_and_task_retried(self):
        """An os._exit crash breaks the pool; supervision recovers it."""
        plan = FaultPlan(seed=0, crash_rate=1.0)
        tasks = [(0, 21)]
        with ProcessPoolExecutor(2) as executor:
            assert executor.can_replenish
            # rate 1.0 crashes every attempt: the task degrades after its
            # bounded retries, charging one restart per kill
            report = run_supervised(executor, _double, tasks,
                                    policy=RetryPolicy(max_retries=1),
                                    plan=plan)
            assert report.results == [None]
            assert failed_keys(tasks, report) == [0]
            assert report.counters.worker_restarts == 2
            # the replenished pool is immediately usable for real work
            assert executor.map_ordered(_double, [1, 2]) == [2, 4]

    def test_crash_then_success_returns_exact_result(self):
        """A task whose retry draws no fault completes normally."""
        plan = FaultPlan(seed=0, crash_rate=0.4)
        tasks = [(i, i) for i in range(6)]
        decisions = [[plan.decide(0, key, attempt).kind
                      for attempt in range(4)] for key, _ in tasks]
        assert any(kinds[0] == "crash" for kinds in decisions), \
            "seed must schedule at least one first-attempt crash"
        assert all("none" in kinds for kinds in decisions), \
            "every task must eventually draw a clean attempt"
        with ProcessPoolExecutor(2) as executor:
            report = run_supervised(executor, _double, tasks,
                                    policy=RetryPolicy(max_retries=3),
                                    plan=plan)
        assert report.results == [i * 2 for i in range(6)]
        assert failed_keys(tasks, report) == []
        serial = run_supervised(SerialExecutor(), _double, tasks,
                                policy=RetryPolicy(max_retries=3), plan=plan)
        assert report.counters == serial.counters

    def test_genuinely_hung_task_times_out_and_pool_recovers(self):
        """A wall-clock hang (not injected) is reclaimed by the timeout."""
        policy = RetryPolicy(max_retries=0, task_timeout=1.0)
        with ProcessPoolExecutor(2) as executor:
            executor.warm_up()
            tasks = [(0, 1)]
            report = run_supervised(executor, _sleep_forever, tasks,
                                    policy=policy)
            assert report.results == [None]
            assert failed_keys(tasks, report) == [0]
            assert report.counters.timeouts == 1
            assert report.counters.exhausted == 1
            # replenish() reclaimed the hung worker; the pool still works
            assert executor.map_ordered(_double, [3]) == [6]

    def test_injected_hang_is_cooperative_and_counted(self):
        """Injected hangs sleep under the budget, then fail as timeouts."""
        plan = FaultPlan(seed=0, hang_rate=1.0, hang_seconds=600.0)
        with ProcessPoolExecutor(2) as executor:
            start = time.perf_counter()
            tasks = [(0, 1)]
            report = run_supervised(executor, _double, tasks,
                                    policy=RetryPolicy(max_retries=0,
                                                       task_timeout=2.0),
                                    plan=plan)
            elapsed = time.perf_counter() - start
        assert failed_keys(tasks, report) == [0]
        assert report.counters.timeouts == 1
        # the injected stall was capped at half the timeout budget: the
        # worker returned a failure sentinel instead of tripping the wall
        # -clock deadline, so no worker was abandoned
        assert elapsed < 60.0

    def test_replenish_preserves_round_broadcast_state(self):
        """Replacement workers re-materialize from the existing manifest.

        The run-invariant session lives in server-owned shared memory; a
        replenished pool must keep consuming the same handles without the
        server re-pickling parameters (no second session witness).
        """
        import numpy as np

        from repro.parallel.broadcast import Broadcast

        params = {"weights": np.arange(64, dtype=np.float64)}
        with ProcessPoolExecutor(2) as executor:
            with Broadcast({"tag": "session"}, params,
                           round_index=0) as session:
                before = executor.map_ordered(
                    _materialize_param_sum, [session.handle] * 2)
                executor.replenish()
                after = executor.map_ordered(
                    _materialize_param_sum, [session.handle] * 2)
        assert before == after == [float(np.arange(64).sum())] * 2


def _materialize_param_sum(handle):
    from repro.parallel import materialize

    params, _payload = materialize(handle)
    return float(params["weights"].sum())


class TestRetryCall:
    def test_returns_first_success(self):
        assert retry_call(lambda: 42, policy=RetryPolicy()) == 42

    def test_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        counters = FaultCounters()
        result = retry_call(flaky, policy=RetryPolicy(max_retries=3),
                            counters=counters)
        assert result == "ok"
        assert counters.retries == 2

    def test_final_attempt_reraises(self):
        def doomed():
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            retry_call(doomed, policy=RetryPolicy(max_retries=2))
