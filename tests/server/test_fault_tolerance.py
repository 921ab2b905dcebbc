"""Server-level fault tolerance: the contracts the ISSUE pins.

Three invariants of the supervised execution layer, checked end-to-end
through the real trainer on the golden workload:

* **Recovered chaos is invisible.**  A run whose every injected fault is
  absorbed by a retry reproduces the committed golden fixture bit-for-bit
  once the ``fault_*`` accounting extras are stripped — supervision may
  never perturb the math it protects, on any backend (including the
  process pool, where injected crashes kill real workers).
* **Exhausted retries degrade, never corrupt.**  A client that fails every
  attempt is dropped: it contributes no update to ``aggregate``/
  ``post_round``, lands in ``RoundRecord.dropped``, and the rest of the
  round proceeds normally.
* **Crashes leave a resumable trail.**  An exception escaping the round
  loop triggers an emergency checkpoint at the last completed round
  boundary, and resuming from it is bit-identical to an uninterrupted run.

The golden fixtures are NEVER regenerated by this suite.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import signal
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines import build_strategy
from repro.checkpoint import CheckpointManager
from repro.experiments import build_experiment, run_method
from repro.federated.trainer import FederatedTrainer
from repro.parallel import (FaultPlan, ProcessPoolExecutor,
                            ThreadPoolExecutor)
from repro.server.core import ServerCore

_SPEC = importlib.util.spec_from_file_location(
    "golden_fixtures",
    Path(__file__).resolve().parents[1] / "fixtures" / "regenerate_golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

#: a chaos plan tuned to the golden workload (seed 11, 2 rounds x 2
#: clients): it injects exceptions AND simulated/real crashes, yet every
#: task draws a clean attempt within the retry budget — verified by the
#: exhausted == 0 assertion below, so a plan/seed drift cannot silently
#: turn this into a no-fault test
RECOVERABLE_PLAN = FaultPlan(seed=11, exception_rate=0.4, crash_rate=0.2,
                             slow_rate=0.1)
RECOVERABLE_RETRIES = 5

#: poison draws ignore the attempt number, so these (round, client) pairs
#: fail every retry: with seed 0 the plan poisons client 0 in round 0 and
#: client 1 in round 1 (one of the two selected clients each round)
POISON_PLAN = FaultPlan(seed=0, poison_rate=0.5)


def run_golden_supervised(plan=None, *, max_retries=0, task_timeout=None,
                          executor=None, batch_cohort=False, **run_kwargs):
    """The fedlps golden run with supervision knobs spliced into its config.

    The preset layer only exposes *named* fault plans; tests splice custom
    ones directly into the :class:`FederatedConfig` so the workload stays
    byte-for-byte the golden one (same seed, rounds, cohort).
    """
    preset = golden.golden_preset("ideal", "sync", "dense")
    dataset, model_builder, config, fleet = build_experiment(preset)
    config = replace(config, faults=plan, max_retries=max_retries,
                     task_timeout=task_timeout, batch_cohort=batch_cohort)
    trainer = FederatedTrainer(build_strategy("fedlps"), dataset,
                               model_builder, config=config, fleet=fleet,
                               executor=executor)
    try:
        return trainer.run(**run_kwargs)
    finally:
        trainer.close()


def kill_idle_worker(executor):
    """SIGKILL one worker of an idle process pool; return once the pool
    knows it is broken (so the next submission meets a broken pool)."""
    pool = executor._executor
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken:
        assert time.monotonic() < deadline, "the pool never noticed"
        time.sleep(0.01)


def run_with_worker_killed_before(hook, call):
    """The supervised golden run on process x 2, with one worker killed
    while the pool is idle, just before the ``call``-th (0-based) call of
    the server core's ``hook`` method."""
    preset = golden.golden_preset("ideal", "sync", "dense")
    dataset, model_builder, config, fleet = build_experiment(preset)
    config = replace(config, max_retries=2)
    with ProcessPoolExecutor(2) as executor:
        executor.warm_up()
        trainer = FederatedTrainer(build_strategy("fedlps"), dataset,
                                   model_builder, config=config, fleet=fleet,
                                   executor=executor)
        original = getattr(trainer, hook)
        calls = []

        def killing(*args, **kwargs):
            if len(calls) == call:
                kill_idle_worker(executor)
            calls.append(1)
            return original(*args, **kwargs)

        setattr(trainer, hook, killing)
        history = trainer.run()
        assert len(calls) > call, "the kill never happened"
        return history


def fault_totals(history):
    totals = {}
    for record in history.records:
        for key, value in record.extras.items():
            if key.startswith("fault_"):
                totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def strip_fault_extras(history):
    payload = json.loads(json.dumps(history.to_dict()))
    for record in payload["records"]:
        record["extras"] = {key: value
                            for key, value in record["extras"].items()
                            if not key.startswith("fault_")}
    return payload


@pytest.fixture(scope="module")
def fedlps_fixture():
    return json.loads(golden.fixture_path("fedlps").read_text())["history"]


class TestRecoveredChaosMatchesGolden:
    def test_inline_chaos_run_reproduces_fixture_after_stripping(
            self, fedlps_fixture):
        history = run_golden_supervised(RECOVERABLE_PLAN,
                                        max_retries=RECOVERABLE_RETRIES)
        totals = fault_totals(history)
        # the plan genuinely fired — this is not a vacuous comparison
        assert totals["fault_retries"] > 0
        assert totals["fault_worker_restarts"] > 0
        assert totals["fault_exhausted"] == 0
        assert strip_fault_extras(history) == fedlps_fixture

    def test_supervision_without_faults_only_adds_zero_extras(
            self, fedlps_fixture):
        """Retry budget alone (no plan) must not disturb the trajectory."""
        history = run_golden_supervised(None, max_retries=3)
        totals = fault_totals(history)
        assert set(totals) and all(value == 0.0
                                   for value in totals.values())
        assert strip_fault_extras(history) == fedlps_fixture

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_backends_reproduce_fixture_under_chaos(
            self, backend, fedlps_fixture):
        """On the process pool the injected crashes kill real workers."""
        executor_cls = (ThreadPoolExecutor if backend == "thread"
                        else ProcessPoolExecutor)
        with executor_cls(2) as executor:
            history = run_golden_supervised(
                RECOVERABLE_PLAN, max_retries=RECOVERABLE_RETRIES,
                task_timeout=60.0, executor=executor)
        inline = run_golden_supervised(RECOVERABLE_PLAN,
                                       max_retries=RECOVERABLE_RETRIES)
        # bit-identical INCLUDING the fault accounting: plan-level counters
        # make simulated and real crashes indistinguishable in the history
        assert (json.loads(json.dumps(history.to_dict()))
                == json.loads(json.dumps(inline.to_dict())))
        assert strip_fault_extras(history) == fedlps_fixture


#: the chaos replayed with batching on: (plan, max_retries) by name
BATCHED_CHAOS = {"recoverable": (RECOVERABLE_PLAN, RECOVERABLE_RETRIES),
                 "poison": (POISON_PLAN, 2)}


@functools.lru_cache(maxsize=None)
def per_client_history(name):
    """The inline, unbatched run of a ``BATCHED_CHAOS`` plan, as JSON."""
    plan, retries = BATCHED_CHAOS[name]
    return json.dumps(run_golden_supervised(
        plan, max_retries=retries).to_dict(), sort_keys=True)


class TestBatchedChaos:
    """A supervised cohort trains stacked: the clients the plan leaves alone
    at attempt 0 share one chunk, the others fly alone, and the history —
    ``fault_*`` extras and drops included — is the per-client run's."""

    def test_the_clean_clients_train_stacked(self, monkeypatch):
        from repro.federated import Strategy

        stacked = []
        original = Strategy.local_update_cohort

        def counting(self, round_index, clients):
            stacked.append([client.client_id for client in clients])
            return original(self, round_index, clients)

        monkeypatch.setattr(Strategy, "local_update_cohort", counting)
        run_golden_supervised(RECOVERABLE_PLAN,
                              max_retries=RECOVERABLE_RETRIES,
                              batch_cohort=True)
        # round 0's cohort [0, 3] draws no fault at attempt 0; round 1's
        # client 2 does, so [1, 2] runs as two single-client chunks
        assert stacked == [[0, 3]]

    @pytest.mark.parametrize("backend", ["inline", "thread", "process"])
    @pytest.mark.parametrize("name", sorted(BATCHED_CHAOS))
    def test_batched_chaos_replays_the_per_client_run(
            self, name, backend, fedlps_fixture):
        plan, retries = BATCHED_CHAOS[name]
        executor = {"inline": None, "thread": ThreadPoolExecutor,
                    "process": ProcessPoolExecutor}[backend]
        with (executor(2) if executor else nullcontext()) as pool:
            history = run_golden_supervised(
                plan, max_retries=retries, task_timeout=60.0,
                executor=pool, batch_cohort=True)
        assert (json.dumps(history.to_dict(), sort_keys=True)
                == per_client_history(name))
        if name == "recoverable":
            assert fault_totals(history)["fault_worker_restarts"] > 0
            assert strip_fault_extras(history) == fedlps_fixture
        else:
            assert [record.dropped
                    for record in history.records] == [[0], [1]]


class TestWorkerLostOutsideAFanOut:
    """A worker that dies while the pool is idle costs one restart, never
    the run: the pool's submissions hand the broken pool back in a future,
    and the evaluation sweep runs under the run's supervision too."""

    def test_worker_lost_before_a_fan_out_is_replenished(self):
        history = run_with_worker_killed_before("select_clients", 1)
        undisturbed = run_golden_supervised(None, max_retries=2)
        assert fault_totals(history)["fault_worker_restarts"] == 1.0
        assert strip_fault_extras(history) == strip_fault_extras(undisturbed)

    def test_worker_lost_before_an_evaluation_sweep_is_replenished(self):
        history = run_with_worker_killed_before("evaluate_personalized", 1)
        undisturbed = run_golden_supervised(None, max_retries=2)
        # the sweep's restart and retries stay out of the history
        assert (json.dumps(history.to_dict(), sort_keys=True)
                == json.dumps(undisturbed.to_dict(), sort_keys=True))

    def test_an_evaluation_chunk_out_of_retries_raises(self, monkeypatch):
        def broken(strategy, round_index, clients):
            raise RuntimeError("evaluation bug")

        monkeypatch.setattr("repro.server.core._evaluate_clients", broken)
        with pytest.raises(RuntimeError, match="evaluation of clients"):
            run_golden_supervised(None, max_retries=1)


class TestDegradedDrop:
    def test_poisoned_clients_are_dropped_not_aggregated(self):
        history = run_golden_supervised(POISON_PLAN, max_retries=2)
        assert [record.dropped for record in history.records] == [[0], [1]]
        # the cohort selection itself is untouched by supervision
        assert [record.selected_clients
                for record in history.records] == [[0, 3], [1, 2]]
        # a dropped client's update never materialized: the per-update
        # bookkeeping only covers the survivors
        assert [sorted(record.sparse_ratios)
                for record in history.records] == [[3], [2]]
        totals = fault_totals(history)
        assert totals["fault_exhausted"] == 2.0
        # every retry of a poisoned task was spent before degrading
        assert totals["fault_retries"] == 2.0 * 2

    def test_degraded_run_still_completes_all_rounds(self):
        history = run_golden_supervised(POISON_PLAN, max_retries=1)
        assert len(history.records) == 2
        assert all(record.evaluated in (True, False)
                   for record in history.records)

    def test_degraded_run_is_bit_identical_across_backends(self):
        """Dropping a client is itself a deterministic, portable outcome."""
        reference = json.dumps(
            run_golden_supervised(POISON_PLAN, max_retries=2).to_dict(),
            sort_keys=True)
        again = json.dumps(
            run_golden_supervised(POISON_PLAN, max_retries=2).to_dict(),
            sort_keys=True)
        assert again == reference
        with ThreadPoolExecutor(2) as executor:
            pooled = json.dumps(
                run_golden_supervised(POISON_PLAN, max_retries=2,
                                      executor=executor).to_dict(),
                sort_keys=True)
        assert pooled == reference


class TestEmergencyCheckpoint:
    def _crash_in_round(self, monkeypatch, crash_round):
        original = ServerCore.run_local_updates

        def boom(self, round_index, selected, **kwargs):
            if round_index == crash_round:
                raise RuntimeError("mid-run crash")
            return original(self, round_index, selected, **kwargs)

        monkeypatch.setattr(ServerCore, "run_local_updates", boom)

    def test_crash_saves_last_completed_boundary(self, monkeypatch,
                                                 tmp_path):
        directory = tmp_path / "ckpt"
        # every=100: no scheduled save would ever fire on this 2-round run,
        # so any checkpoint on disk was written by the emergency guard
        self._crash_in_round(monkeypatch, 1)
        with pytest.raises(RuntimeError, match="mid-run crash"):
            run_method("fedlps",
                       golden.golden_preset("ideal", "sync", "dense"),
                       checkpoint_dir=directory, checkpoint_every=100)
        manager = CheckpointManager(directory)
        assert len(manager.checkpoint_paths()) == 1
        assert manager.latest().next_round == 1

    def test_resume_from_emergency_checkpoint_is_bit_identical(
            self, monkeypatch, tmp_path):
        preset = golden.golden_preset("ideal", "sync", "dense")
        reference = run_method("fedlps", preset)
        directory = tmp_path / "ckpt"
        with monkeypatch.context() as patched:
            self._crash_in_round(patched, 1)
            with pytest.raises(RuntimeError, match="mid-run crash"):
                run_method("fedlps", preset, checkpoint_dir=directory,
                           checkpoint_every=100)
        resumed = run_method("fedlps", preset, checkpoint_dir=directory,
                             checkpoint_every=100, resume=True)
        assert (json.dumps(resumed.to_dict(), sort_keys=True)
                == json.dumps(reference.to_dict(), sort_keys=True))

    def test_crash_before_any_boundary_leaves_no_checkpoint(
            self, monkeypatch, tmp_path):
        directory = tmp_path / "ckpt"
        self._crash_in_round(monkeypatch, 0)
        with pytest.raises(RuntimeError, match="mid-run crash"):
            run_method("fedlps",
                       golden.golden_preset("ideal", "sync", "dense"),
                       checkpoint_dir=directory, checkpoint_every=100)
        assert CheckpointManager(directory).checkpoint_paths() == []
