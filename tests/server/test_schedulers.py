"""Scheduler behaviour: FedBuff flushes, async records, sim-time wins."""

import numpy as np
import pytest

from repro.experiments import preset_for, run_method, scaled
from repro.federated.config import FederatedConfig
from repro.federated.strategy import ClientUpdate, Strategy
from repro.server.clock import ClientEvent
from repro.server.policy import AggregationPolicy
from repro.server.scheduler import (AsyncScheduler, BufferedScheduler,
                                    SyncScheduler, build_scheduler)
from repro.systems.cost import CostBreakdown

TINY = dict(num_clients=10, num_rounds=8, clients_per_round=3,
            examples_per_client=24, local_iterations=2, batch_size=8, seed=7)


def tiny_preset(scenario="ideal", aggregation="sync", **extra):
    overrides = dict(TINY)
    overrides.update(extra)
    return scaled(preset_for("mnist"), scenario=scenario,
                  aggregation=aggregation, **overrides)


class _FakeCore:
    """The minimal core surface ``consume`` touches: config + strategy."""

    def __init__(self, buffer_size=3):
        self.config = FederatedConfig(buffer_size=buffer_size)
        self.strategy = Strategy()
        self.strategy.global_params = {"w": np.array([0.0])}

    def reduce_context(self):
        from contextlib import nullcontext
        return nullcontext()


def _event(client_id, value, dispatch_version=0, finish=1.0):
    update = ClientUpdate(client_id=client_id,
                          params={"w": np.array([float(value)])},
                          num_examples=1, train_accuracy=0.0, train_loss=0.0)
    return ClientEvent(finish_time=finish, client_id=client_id,
                       round_index=0, dispatch_version=dispatch_version,
                       update=update, cost=CostBreakdown(0.0, 0.0))


class TestBuildScheduler:
    def test_modes_map_to_classes(self):
        assert isinstance(build_scheduler(FederatedConfig()), SyncScheduler)
        assert isinstance(
            build_scheduler(FederatedConfig(aggregation="fedasync")),
            AsyncScheduler)
        assert isinstance(
            build_scheduler(FederatedConfig(aggregation="fedbuff")),
            BufferedScheduler)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_scheduler(FederatedConfig(), "fedwhat")


class TestFedBuffFlush:
    """Oracle: aggregate every K arrivals, never the partial tail."""

    def test_flushes_exactly_every_k_arrivals(self):
        core = _FakeCore(buffer_size=3)
        scheduler = BufferedScheduler()
        policy = AggregationPolicy(alpha=1.0, exponent=0.5)
        flushed = []
        for index in range(7):
            flushed.append(
                scheduler.consume(core, policy, 0, _event(index, 6.0)))
        # arrivals 3 and 6 trigger flushes of exactly K entries each
        sizes = [len(batch) for batch in flushed]
        assert sizes == [0, 0, 3, 0, 0, 3, 0]
        assert scheduler._version == 2

    def test_never_flushed_tail_leaves_global_untouched(self):
        # the run ends with 2 < K arrivals in the buffer: they must never
        # reach the global parameters
        core = _FakeCore(buffer_size=3)
        scheduler = BufferedScheduler()
        policy = AggregationPolicy(alpha=1.0, exponent=0.5)
        for index in range(3):
            scheduler.consume(core, policy, 0, _event(index, 6.0))
        after_flush = core.strategy.global_params["w"].copy()
        np.testing.assert_allclose(after_flush, [6.0])
        for index in range(3, 5):
            scheduler.consume(core, policy, 0, _event(index, 999.0))
        np.testing.assert_array_equal(core.strategy.global_params["w"],
                                      after_flush)
        assert scheduler.pending_buffer() == 2

    def test_reset_clears_the_never_flushed_tail(self):
        # a reused scheduler must not leak run-1's tail into run 2's flush
        core = _FakeCore(buffer_size=3)
        scheduler = BufferedScheduler()
        policy = AggregationPolicy(alpha=1.0, exponent=0.5)
        for index in range(2):
            scheduler.consume(core, policy, 0, _event(index, 999.0))
        assert scheduler.pending_buffer() == 2
        scheduler.reset()
        assert scheduler.pending_buffer() == 0
        assert scheduler._version == 0
        for index in range(3):
            scheduler.consume(core, policy, 0, _event(index, 6.0))
        # the flush averages only the post-reset events
        np.testing.assert_allclose(core.strategy.global_params["w"], [6.0])

    def test_reused_scheduler_instance_reruns_cleanly(self):
        from repro.baselines import build_strategy
        from repro.experiments.presets import build_experiment
        from repro.server.core import ServerCore
        from repro.server.scheduler import BufferedScheduler

        scheduler = BufferedScheduler()
        histories = []
        for _ in range(2):
            dataset, model_builder, config, fleet = build_experiment(
                tiny_preset("flaky", "fedbuff", num_rounds=3))
            core = ServerCore(build_strategy("fedavg"), dataset,
                              model_builder, config=config, fleet=fleet)
            histories.append(scheduler.run(core))
        assert histories[0].to_dict() == histories[1].to_dict()

    def test_flush_staleness_measured_at_flush_time(self):
        # entries dispatched at version 0 but flushed at version 1 carry
        # staleness 1; with exponent 1.0 the decay is 1/2
        core = _FakeCore(buffer_size=2)
        scheduler = BufferedScheduler()
        policy = AggregationPolicy(alpha=1.0, exponent=1.0)
        for index in range(2):  # first flush -> version 1
            scheduler.consume(core, policy, 0, _event(index, 4.0))
        batch = scheduler.consume(core, policy, 0, _event(2, 8.0))
        assert batch == []
        batch = scheduler.consume(core, policy, 0, _event(3, 8.0))
        assert [arrival.staleness for arrival in batch] == [1, 1]


class TestAsyncConsume:
    def test_every_arrival_aggregates_and_bumps_version(self):
        core = _FakeCore()
        scheduler = AsyncScheduler()
        policy = AggregationPolicy(alpha=0.5, exponent=0.5)
        first = scheduler.consume(core, policy, 0, _event(0, 8.0))
        assert [a.staleness for a in first] == [0]
        np.testing.assert_allclose(core.strategy.global_params["w"], [4.0])
        second = scheduler.consume(core, policy, 0, _event(1, 8.0, 0))
        # dispatched at version 0, consumed at version 1 -> staleness 1
        assert [a.staleness for a in second] == [1]
        assert scheduler._version == 2


class TestAsyncHistories:
    @pytest.mark.parametrize("aggregation", ["fedasync", "fedbuff"])
    def test_records_carry_async_fields(self, aggregation):
        history = run_method(
            "fedavg", tiny_preset("flaky", aggregation))
        assert len(history) == TINY["num_rounds"]
        assert any(record.staleness_mean > 0 for record in history.records)
        assert history.mean_staleness > 0
        # async histories serialize and round-trip like sync ones
        clone = type(history).from_dict(history.to_dict())
        assert clone.to_dict() == history.to_dict()

    def test_fedbuff_records_expose_buffer_occupancy(self):
        # 3 arrivals per round against a 2-flush: rounds end with an arrival
        # still buffered, which the record must report
        from repro.baselines import build_strategy
        from repro.experiments.presets import build_experiment
        from repro.federated import FederatedTrainer

        dataset, model_builder, config, fleet = build_experiment(
            tiny_preset("flaky", "fedbuff"))
        config.async_arrivals_per_round = 3
        config.buffer_size = 2
        history = FederatedTrainer(build_strategy("fedavg"), dataset,
                                   model_builder, config=config,
                                   fleet=fleet).run()
        assert any(record.buffer_size > 0 for record in history.records)

    def test_fedbuff_buffer_larger_than_the_fleet_is_rejected(self):
        # buffered clients stay blocked until flushed, so such a buffer can
        # never fill; the core is the first place that sees both numbers
        from repro.baselines import build_strategy
        from repro.experiments.presets import build_experiment
        from repro.server import ServerCore

        def core(aggregation, buffer_size):
            dataset, model_builder, config, fleet = build_experiment(
                tiny_preset("ideal", aggregation))
            config.buffer_size = buffer_size
            return ServerCore(build_strategy("fedavg"), dataset,
                              model_builder, config=config, fleet=fleet)

        with pytest.raises(ValueError, match="never fills.*never moves"):
            core("fedbuff", TINY["num_clients"] + 1)
        core("fedbuff", TINY["num_clients"])        # a full-fleet buffer fills
        core("sync", TINY["num_clients"] + 1)       # unused outside fedbuff

    def test_sync_records_keep_legacy_serialization(self):
        history = run_method("fedavg", tiny_preset("flaky", "sync",
                                                   num_rounds=2))
        for record in history.records:
            payload = record.to_dict()
            assert "staleness_mean" not in payload
            assert "buffer_size" not in payload

    def test_busy_clients_are_not_redispatched(self):
        history = run_method("fedavg", tiny_preset("flaky", "fedasync"))
        for record in history.records:
            # a client still in flight is reported as dropped, and the
            # dispatched cohort never contains duplicates
            assert len(record.selected_clients) == \
                len(set(record.selected_clients))

    def test_fedbuff_flush_never_carries_a_client_twice(self, monkeypatch):
        # regression: a client whose arrival sits un-flushed in the buffer
        # must not be re-dispatched — otherwise a flush batch can carry the
        # same client twice and the {client_id: cost} bookkeeping handed to
        # post_round silently drops one arrival's cost
        import repro.server.scheduler as scheduler_module
        from repro.baselines import build_strategy
        from repro.experiments.presets import build_experiment
        from repro.federated import FederatedTrainer

        batches = []

        class RecordingPolicy(AggregationPolicy):
            def merge(self, strategy, round_index, arrivals):
                batches.append([a.update.client_id for a in arrivals])
                return super().merge(strategy, round_index, arrivals)

        monkeypatch.setattr(scheduler_module, "AggregationPolicy",
                            RecordingPolicy)
        dataset, model_builder, config, fleet = build_experiment(
            tiny_preset("flaky", "fedbuff", num_clients=6, num_rounds=12,
                        seed=3))
        config.buffer_size = 3
        config.async_arrivals_per_round = 1
        FederatedTrainer(build_strategy("fedavg"), dataset, model_builder,
                         config=config, fleet=fleet).run()
        assert batches, "no flush happened; weaken the config"
        for batch in batches:
            assert len(batch) == len(set(batch)), batch


class TestAsyncBeatsSyncOnSimTime:
    """The acceptance scenario: fedasync reaches the smoke preset's target
    accuracy in less cumulative sim-time than sync under ``flaky``."""

    def test_fedasync_reaches_target_sooner(self):
        sync = run_method("fedavg", tiny_preset("flaky", "sync"))
        fedasync = run_method("fedavg", tiny_preset("flaky", "fedasync"))
        target = 0.5 * sync.best_accuracy()
        sync_tta = sync.sim_time_to_accuracy(target)
        async_tta = fedasync.sim_time_to_accuracy(target)
        assert sync_tta is not None and async_tta is not None
        assert async_tta < sync_tta
        # the async server also finishes the whole run in less sim time:
        # stragglers no longer gate the round cadence
        assert fedasync.total_sim_time < sync.total_sim_time
