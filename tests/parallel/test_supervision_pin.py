"""Pin of what the supervision loop shows the world.

``tests/fixtures/supervision_pin.json`` records 30 supervised fan-outs of
eight tasks — five fault plans (none, crash, exception, hang and a mix) x
``max_retries`` in {0, 1, 3} x fault seeds {0, 1} — each as the order in
which task bodies ran, the results, the failed keys and the ``fault_*``
counters.  The fault-free cells poison one task, whose body raises on
every attempt.

The fixture is never regenerated: a change to the supervision loop must
reproduce it as it is on the serial backend, byte for byte.  A thread pool
runs tasks concurrently, so it must match the results, failed keys and
counters, but not the call order.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.parallel import (FaultPlan, RetryPolicy, SerialExecutor,
                            ThreadPoolExecutor, run_supervised)

FIXTURE = Path(__file__).parent.parent / "fixtures" / "supervision_pin.json"

PLANS = {
    "none": None,
    "crash": dict(crash_rate=0.4),
    "exception": dict(exception_rate=0.3),
    "hang": dict(hang_rate=0.3),
    "mix": dict(exception_rate=0.15, crash_rate=0.15, hang_rate=0.1,
                slow_rate=0.1),
}
RETRIES = (0, 1, 3)
SEEDS = (0, 1)
TASKS = 8
#: the key whose body raises on every attempt in the fault-free cells
POISONED = 5
ROUND = 2

#: keys in the order the task bodies ran (serial backend: the caller's list)
_CALLS: list = []


def _task(payload):
    key, poisoned = payload
    _CALLS.append(key)
    if poisoned:
        raise ValueError(f"task {key} is poisoned")
    return 10 * key + 1


def cell_names():
    return [f"{plan}-r{retries}-s{seed}" for plan in PLANS
            for retries in RETRIES for seed in SEEDS]


def run_cell(executor, name: str) -> dict:
    plan_name, retries, seed = name.split("-")
    rates = PLANS[plan_name]
    plan = None if rates is None else FaultPlan(seed=int(seed[1:]), **rates)
    tasks = [(key, (key, rates is None and key == POISONED))
             for key in range(TASKS)]
    del _CALLS[:]
    report = run_supervised(
        executor, _task, tasks,
        policy=RetryPolicy(max_retries=int(retries[1:]), wall_sleep_cap=0.0),
        plan=plan, round_index=ROUND)
    # the failed keys are read off the results, which hold None exactly
    # there (no task body returns None)
    failed = sorted(key for (key, _), result in zip(tasks, report.results)
                    if result is None)
    return {"calls": list(_CALLS), "results": report.results,
            "failed": failed, "counters": report.counters.as_extras()}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(FIXTURE.read_text())


def test_pin_covers_every_cell(pins):
    assert sorted(pins) == sorted(cell_names())
    assert len(pins) == 30


@pytest.mark.parametrize("name", cell_names())
def test_serial_reproduces_the_pin(pins, name):
    with SerialExecutor() as executor:
        assert run_cell(executor, name) == pins[name]


@pytest.mark.parametrize("name", cell_names())
def test_thread_pool_matches_the_pin(pins, name):
    with ThreadPoolExecutor(2) as executor:
        observed = run_cell(executor, name)
    expected = pins[name]
    for field in ("results", "failed", "counters"):
        assert observed[field] == expected[field]
    assert sorted(observed["calls"]) == sorted(expected["calls"])
