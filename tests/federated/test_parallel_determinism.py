"""Determinism suite: histories must be bit-identical across backends.

The parallel subsystem's contract is that an executor changes wall-clock,
never results: every per-client quantity is derived from seeds carried in the
payloads, and all cross-client state flows through ``client.state`` which
workers ship back to the server.  These tests enforce the contract for every
registry strategy (serial vs thread) and for the state-heaviest strategies
through a real spawned process pool.
"""

from __future__ import annotations

import pickle

import pytest

from repro.baselines import available_strategies, build_strategy
from repro.experiments import preset_for, run_method, scaled
from repro.federated import FederatedConfig
from repro.federated.trainer import FederatedTrainer
from repro.models import build_model_for_dataset
from repro.parallel import (ProcessPoolExecutor, SerialExecutor,
                            ThreadPoolExecutor)

TINY = dict(num_clients=4, num_rounds=2, clients_per_round=2,
            examples_per_client=20, local_iterations=2, batch_size=8, seed=3)

#: strategies exercising the riskiest state flows: learnable importance +
#: P-UCBV (fedlps), per-client UCB bandit (fedmp), personal models (ditto)
STATEFUL_METHODS = ["fedlps", "fedmp", "ditto"]

#: scenarios that exercise dropout + deadline decisions on top of fan-out
SCENARIOS = ["flaky", "deadline-tight", "trace"]

#: asynchronous aggregation modes of the event-driven server core
ASYNC_MODES = ["fedasync", "fedbuff"]


def tiny_preset(scenario="ideal", aggregation="sync"):
    return scaled(preset_for("mnist"), scenario=scenario,
                  aggregation=aggregation, **TINY)


def assert_histories_identical(reference, candidate):
    """Field-by-field bitwise comparison of two training histories."""
    assert len(reference.records) == len(candidate.records)
    assert reference.method == candidate.method
    assert reference.to_dict() == candidate.to_dict()


class TestSerialExecutorMatchesInline:
    def test_serial_executor_is_the_reference(self):
        reference = run_method("fedlps", tiny_preset())
        with SerialExecutor() as executor:
            candidate = run_method("fedlps", tiny_preset(), executor=executor)
        assert_histories_identical(reference, candidate)


class TestThreadBackendDeterminism:
    @pytest.mark.parametrize("method", available_strategies())
    def test_every_registry_strategy(self, method):
        reference = run_method(method, tiny_preset())
        with ThreadPoolExecutor(2) as executor:
            candidate = run_method(method, tiny_preset(), executor=executor)
        assert_histories_identical(reference, candidate)


class TestScenarioDeterminism:
    """Scenario engines (dropout, stragglers, deadlines) must not perturb the
    executor contract: the engine's decisions are server-side functions of
    (seed, round, client), so deadline cuts and availability draws cannot
    depend on which worker ran an update or in which order results arrived."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenarios_identical_serial_vs_thread(self, scenario):
        reference = run_method("fedlps", tiny_preset(scenario))
        with ThreadPoolExecutor(2) as executor:
            candidate = run_method("fedlps", tiny_preset(scenario),
                                   executor=executor)
        assert_histories_identical(reference, candidate)

    def test_scenario_history_actually_drops_clients(self):
        # guard against the scenario silently degenerating to ideal, which
        # would make the cross-backend comparisons above vacuous
        history = run_method("fedlps", tiny_preset("deadline-tight"))
        assert history.total_dropped > 0


class TestAsyncDeterminism:
    """One round loop (``Scheduler.run``), two hooks.  The fan-out hands
    every shape its cohort's updates in dispatch order, and the event-driven
    ``settle`` consumes completions in (finish_time, client_id) order — a
    pure function of (seed, round, client) — never in real arrival order.
    The pool still finishes a cohort's clients in any real-time order, so
    these tests would catch a leak of it into ``admit``, ``settle`` or the
    loop's float sums."""

    @pytest.mark.parametrize("aggregation", ASYNC_MODES)
    @pytest.mark.parametrize("method", STATEFUL_METHODS)
    def test_async_identical_serial_vs_thread(self, aggregation, method):
        reference = run_method(method, tiny_preset(aggregation=aggregation))
        with ThreadPoolExecutor(2) as executor:
            candidate = run_method(method,
                                   tiny_preset(aggregation=aggregation),
                                   executor=executor)
        assert_histories_identical(reference, candidate)

    @pytest.mark.parametrize("aggregation", ASYNC_MODES)
    def test_async_scenarios_identical_serial_vs_thread(self, aggregation):
        reference = run_method("fedavg",
                               tiny_preset("flaky", aggregation))
        with ThreadPoolExecutor(2) as executor:
            candidate = run_method("fedavg", tiny_preset("flaky", aggregation),
                                   executor=executor)
        assert_histories_identical(reference, candidate)

    def test_async_actually_accumulates_staleness(self):
        # guard against the async path degenerating to sync, which would
        # make the cross-backend comparisons above vacuous
        history = run_method("fedavg", tiny_preset("flaky", "fedasync"))
        assert history.mean_staleness > 0


class TestProcessBackendDeterminism:
    @pytest.fixture(scope="class")
    def pool(self):
        with ProcessPoolExecutor(2) as executor:
            yield executor

    @pytest.mark.parametrize("method", STATEFUL_METHODS)
    def test_stateful_strategies(self, method, pool):
        reference = run_method(method, tiny_preset())
        candidate = run_method(method, tiny_preset(), executor=pool)
        assert_histories_identical(reference, candidate)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenarios_through_processes(self, scenario, pool):
        # the acceptance-criteria scenario: a deadline/dropout run through a
        # real spawned process pool, bit-identical to the serial reference
        reference = run_method("fedavg", tiny_preset(scenario))
        candidate = run_method("fedavg", tiny_preset(scenario), executor=pool)
        assert_histories_identical(reference, candidate)

    @pytest.mark.parametrize("aggregation", ASYNC_MODES)
    def test_async_through_processes(self, aggregation, pool):
        # the acceptance-criteria scenario: fedasync/fedbuff histories are
        # bit-identical between the serial reference and a real spawned
        # process pool consuming completions out of real-time order
        reference = run_method("fedavg", tiny_preset("flaky", aggregation))
        candidate = run_method("fedavg", tiny_preset("flaky", aggregation),
                               executor=pool)
        assert_histories_identical(reference, candidate)

    def test_sweep_jobs_through_processes(self, pool):
        # the acceptance-criteria scenario: a >=2-method sweep dispatched as
        # whole-run jobs through a 2-worker process pool
        from repro.experiments import run_jobs

        specs = [(method, tiny_preset(), None) for method in ("fedavg", "fedlps")]
        reference = run_jobs(specs)
        candidate = run_jobs(specs, executor=pool)
        for want, got in zip(reference, candidate, strict=True):
            assert_histories_identical(want, got)


class TestStrategyPickling:
    @pytest.mark.parametrize("method", available_strategies())
    def test_fresh_strategy_round_trips(self, method):
        strategy = build_strategy(method)
        clone = pickle.loads(pickle.dumps(strategy))
        assert type(clone) is type(strategy)
        assert clone.name == strategy.name

    @pytest.mark.parametrize("method", available_strategies())
    def test_configured_strategy_round_trips(self, method, small_fed_dataset,
                                             small_fleet):
        config = FederatedConfig(num_rounds=1, clients_per_round=2,
                                 local_iterations=1, batch_size=8, seed=0)
        trainer = FederatedTrainer(
            build_strategy(method), small_fed_dataset,
            lambda: build_model_for_dataset("mnist", seed=0),
            config=config, fleet=small_fleet)
        trainer.strategy.setup(trainer.context)
        clone = pickle.loads(pickle.dumps(trainer.strategy))
        assert clone.global_params.keys() == trainer.strategy.global_params.keys()
        for key, value in trainer.strategy.global_params.items():
            assert (clone.global_params[key] == value).all()
