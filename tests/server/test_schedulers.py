"""Scheduler behaviour: FedBuff flushes, async records, sim-time wins."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import preset_for, run_method, scaled
from repro.federated.config import FederatedConfig
from repro.federated.strategy import ClientUpdate, Strategy
from repro.server.clock import ClientEvent
from repro.server.policy import AggregationPolicy
from repro.server.scheduler import (EventDrivenScheduler, SyncScheduler,
                                    async_shape, build_scheduler)
from repro.systems.cost import CostBreakdown

TINY = dict(num_clients=10, num_rounds=8, clients_per_round=3,
            examples_per_client=24, local_iterations=2, batch_size=8, seed=7)


def tiny_preset(scenario="ideal", aggregation="sync", **extra):
    overrides = dict(TINY)
    overrides.update(extra)
    return scaled(preset_for("mnist"), scenario=scenario,
                  aggregation=aggregation, **overrides)


#: sha256 of every scheduler x scenario x fault x codec history, see
#: ``test_scheduler_lattice_is_pinned``
LATTICE_PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "fixtures"
     / "scheduler_lattice.json").read_text())


@pytest.mark.parametrize("cell, batch_cohort", [
    pytest.param(cell, batch_cohort,
                 id=f"{cell}-batched" if batch_cohort else cell)
    for cell in sorted(LATTICE_PINS)
    for batch_cohort in ((False, True) if "/chaos/" in cell else (False,))])
def test_scheduler_lattice_is_pinned(cell, batch_cohort):
    """Every scheduler x scenario x fault x codec history, byte for byte.

    The goldens pin sync (incl. ``deadline-tight`` / ``trace``) and
    ``fedlps--int8--fedasync/fedbuff`` only, so the cells a scheduler
    refactor passes through — drops from unavailability, busy clients,
    exhausted retries and stragglers, in all three round shapes — had no
    oracle of their own.  ``tests/fixtures/scheduler_lattice.json`` was
    recorded on the unmodified code at the parent commit of PR 19 (the
    two-``_run`` schedulers, commit 10507fc); it is never regenerated by a
    refactor — a mismatch here is a behaviour change.

    The chaos cells also run with ``batch_cohort`` on, against the same
    pins: a supervised cohort trains stacked, its faulted clients alone,
    and nothing of that shows in the history.
    """
    aggregation, scenario, faults, codec = cell.split("/")
    extra = (dict(fault_plan="chaos", max_retries=1)
             if faults == "chaos" else {})
    history = run_method("fedlps", tiny_preset(
        scenario, aggregation, num_rounds=6, clients_per_round=4,
        codec=codec, batch_cohort=batch_cohort, **extra))
    payload = json.dumps(history.to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == LATTICE_PINS[cell]


class _FakeCore:
    """The core surface the event-driven ``settle`` touches: config,
    strategy, reduce context and each client's dispatch latency."""

    def __init__(self, **config):
        self.config = FederatedConfig(**config)
        self.strategy = Strategy()
        self.strategy.global_params = {"w": np.array([0.0])}
        self.latencies = {}

    def latency(self, round_index, client_id, seconds):
        return self.latencies.get(client_id, 1.0)

    def reduce_context(self):
        from contextlib import nullcontext
        return nullcontext()


def _update(client_id, value):
    return ClientUpdate(client_id=client_id,
                        params={"w": np.array([float(value)])},
                        num_examples=1, train_accuracy=0.0, train_loss=0.0)


def _event(client_id, value, dispatch_version=0, finish=1.0):
    return ClientEvent(finish_time=finish, client_id=client_id,
                       round_index=0, dispatch_version=dispatch_version,
                       update=_update(client_id, value),
                       cost=CostBreakdown(0.0, 0.0))


def _settle(scheduler, core, dispatched=(), round_index=0):
    """Dispatch ``(client_id, value)`` pairs and settle the round; returns
    the merged client ids and the record fields."""
    updates = [_update(client_id, value) for client_id, value in dispatched]
    costs = {u.client_id: CostBreakdown(0.0, 0.0) for u in updates}
    merged, merged_costs, late, fields = scheduler.settle(
        core, round_index, updates, costs, None)
    assert late == [] and set(merged_costs) == {u.client_id for u in merged}
    return [u.client_id for u in merged], fields


class TestBuildScheduler:
    def test_modes_map_to_the_two_classes(self):
        assert isinstance(build_scheduler(FederatedConfig()), SyncScheduler)
        for mode in ("fedasync", "fedbuff"):
            scheduler = build_scheduler(FederatedConfig(aggregation=mode))
            assert isinstance(scheduler, EventDrivenScheduler)
            assert scheduler.name == mode

    def test_unknown_mode_rejected_by_the_config(self):
        with pytest.raises(ValueError, match="unknown aggregation mode"):
            FederatedConfig(aggregation="fedwhat")

    def test_fedasync_is_fedbuff_with_a_buffer_of_one(self):
        config = FederatedConfig(clients_per_round=7, buffer_size=3)
        assert async_shape("fedasync", config) == (1, 7)
        assert async_shape("fedbuff", config) == (3, 4)
        config.buffer_size = 5
        assert async_shape("fedbuff", config) == (5, 5)
        config.async_arrivals_per_round = 2
        assert async_shape("fedasync", config) == (1, 2)
        assert async_shape("fedbuff", config) == (5, 2)


class TestFedBuffFlush:
    """Oracle: aggregate every K arrivals, never the partial tail."""

    def test_flushes_exactly_every_k_arrivals(self):
        core = _FakeCore(buffer_size=3, async_arrivals_per_round=1,
                         async_alpha=1.0)
        scheduler = EventDrivenScheduler("fedbuff")
        rounds = [_settle(scheduler, core, [(index, 6.0)], index)
                  for index in range(7)]
        # arrivals 3 and 6 trigger flushes of exactly K entries each
        assert [len(merged) for merged, _ in rounds] == [0, 0, 3, 0, 0, 3, 0]
        assert [fields["buffer_size"] for _, fields in rounds] \
            == [1, 2, 0, 1, 2, 0, 1]
        assert scheduler.state_dict()["version"] == 2

    def test_never_flushed_tail_leaves_global_untouched(self):
        # the run ends with 2 < K arrivals in the buffer: they must never
        # reach the global parameters
        core = _FakeCore(buffer_size=3, async_arrivals_per_round=3,
                         async_alpha=1.0)
        scheduler = EventDrivenScheduler("fedbuff")
        _settle(scheduler, core, [(index, 6.0) for index in range(3)])
        after_flush = core.strategy.global_params["w"].copy()
        np.testing.assert_allclose(after_flush, [6.0])
        merged, fields = _settle(scheduler, core,
                                 [(index, 999.0) for index in range(3, 5)])
        assert merged == [] and fields["buffer_size"] == 2
        np.testing.assert_array_equal(core.strategy.global_params["w"],
                                      after_flush)

    def test_buffered_clients_are_not_readmitted(self):
        core = _FakeCore(buffer_size=3, async_arrivals_per_round=1)
        scheduler = EventDrivenScheduler("fedbuff")
        core.latencies = {0: 1.0, 1: 2.0}
        _settle(scheduler, core, [(0, 1.0), (1, 1.0)])
        # client 0 sits in the buffer, client 1 is still in flight
        assert scheduler.admit([0, 1, 2]) == ([2], [0, 1])

    def test_reset_clears_the_never_flushed_tail(self):
        # a reused scheduler must not leak run-1's tail into run 2's flush
        core = _FakeCore(buffer_size=3, async_arrivals_per_round=3,
                         async_alpha=1.0)
        scheduler = EventDrivenScheduler("fedbuff")
        _, fields = _settle(scheduler, core, [(0, 999.0), (1, 999.0)])
        assert fields["buffer_size"] == 2
        scheduler.reset()
        assert scheduler.state_dict() == dict(
            version=0, clock_now=0.0, in_flight=[], events=[], buffer=[])
        _settle(scheduler, core, [(index, 6.0) for index in range(3)])
        # the flush averages only the post-reset events
        np.testing.assert_allclose(core.strategy.global_params["w"], [6.0])

    def test_flush_staleness_measured_at_flush_time(self):
        # four clients dispatched at version 0: the first flush moves the
        # server to version 1, so the second carries staleness 1
        core = _FakeCore(buffer_size=2, async_arrivals_per_round=2,
                         staleness_exponent=1.0)
        core.latencies = {index: 1.0 + index for index in range(4)}
        scheduler = EventDrivenScheduler("fedbuff")
        first, fields = _settle(scheduler, core,
                                [(index, 4.0) for index in range(4)])
        assert first == [0, 1] and fields["staleness_mean"] == 0.0
        second, fields = _settle(scheduler, core, round_index=1)
        assert second == [2, 3] and fields["staleness_mean"] == 1.0


class TestAsyncConsume:
    """Flush 1: every arrival is merged on its own, as it lands."""

    def test_every_arrival_aggregates_and_bumps_version(self):
        core = _FakeCore(async_alpha=0.5, staleness_exponent=0.5,
                         async_arrivals_per_round=1)
        core.latencies = {0: 1.0, 1: 2.0}
        scheduler = EventDrivenScheduler("fedasync")
        merged, fields = _settle(scheduler, core, [(0, 8.0), (1, 8.0)])
        assert merged == [0] and fields["staleness_mean"] == 0.0
        np.testing.assert_allclose(core.strategy.global_params["w"], [4.0])
        # dispatched at version 0, consumed at version 1 -> staleness 1
        merged, fields = _settle(scheduler, core, round_index=1)
        assert merged == [1] and fields["staleness_mean"] == 1.0
        assert fields["buffer_size"] == 0
        assert scheduler.state_dict()["version"] == 2


class TestSimulatedClock:
    """The sim clock is a float moved by ``max`` over consumed events."""

    def test_advances_to_the_consumed_finish_time(self):
        core = _FakeCore(async_arrivals_per_round=1)
        core.latencies = {0: 2.5}
        scheduler = EventDrivenScheduler("fedasync")
        _, fields = _settle(scheduler, core, [(0, 1.0)])
        assert fields["sim_time"] == 2.5
        assert fields["cumulative_sim_time"] == 2.5

    def test_a_stale_finish_time_never_rewinds_the_clock(self):
        # an event whose finish time is in the clock's past (loaded into the
        # queue directly) costs no sim time and must not rewind the clock
        core = _FakeCore(async_arrivals_per_round=1)
        scheduler = EventDrivenScheduler("fedasync")
        scheduler.load_state_dict(dict(
            version=1, clock_now=5.0, in_flight=[0],
            events=[_event(0, 1.0, finish=3.0)], buffer=[]))
        merged, fields = _settle(scheduler, core, round_index=1)
        assert merged == [0]
        assert fields["sim_time"] == 0.0
        assert fields["cumulative_sim_time"] == 5.0
        assert scheduler.state_dict()["clock_now"] == 5.0


class TestReusedInstance:
    @pytest.mark.parametrize("aggregation", ["fedasync", "fedbuff"])
    def test_reused_scheduler_instance_reruns_cleanly(self, aggregation):
        from repro.baselines import build_strategy
        from repro.experiments.presets import build_experiment
        from repro.server.core import ServerCore

        scheduler = EventDrivenScheduler(aggregation)
        histories = []
        for _ in range(2):
            dataset, model_builder, config, fleet = build_experiment(
                tiny_preset("flaky", aggregation, num_rounds=3))
            core = ServerCore(build_strategy("fedavg"), dataset,
                              model_builder, config=config, fleet=fleet)
            histories.append(scheduler.run(core))
        assert histories[0].to_dict() == histories[1].to_dict()


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


class TestFedAsyncIsABufferOfOne:
    """FedBuff that flushes every arrival and waits for a whole cohort's
    worth of them each round is FedAsync, history for history."""

    @pytest.mark.parametrize("scenario", ["ideal", "flaky"])
    @pytest.mark.parametrize("method", ["fedavg", "fedlps", "fedper", "cs"])
    def test_histories_are_byte_identical(self, method, scenario):
        from repro.baselines import build_strategy
        from repro.experiments.presets import build_experiment
        from repro.federated import FederatedTrainer

        def history(aggregation, **config_overrides):
            dataset, model_builder, config, fleet = build_experiment(
                tiny_preset(scenario, aggregation, num_clients=24,
                            clients_per_round=6, num_rounds=5, seed=3))
            for name, value in config_overrides.items():
                setattr(config, name, value)
            run = FederatedTrainer(build_strategy(method), dataset,
                                   model_builder, config=config,
                                   fleet=fleet).run()
            return json.dumps(run.to_dict(), sort_keys=True)

        assert history("fedbuff", buffer_size=1,
                       async_arrivals_per_round=6) == history("fedasync")


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


class TestAsyncBacklogPin:
    """The uncapped dispatch's backlog, as the schedulers leave it today.

    Every round dispatches a fresh cohort while fedasync consumes one
    round's share of arrivals and fedbuff buffers them, so on a fleet much
    larger than the cohort the queue and the staleness grow every round.
    These are the exact values of the unmodified schedulers: a cap on the
    clients in flight (FedBuff's concurrency, Nguyen et al. 2022,
    https://arxiv.org/abs/2106.06639) will show up here as a deliberate
    diff.
    """

    #: ``len(scheduler.queue)`` after each round's ``settle``, and each
    #: round's ``staleness_mean``
    PINS = {
        "fedasync": (
            [0, 2, 4, 5, 7, 8, 10, 13, 14, 14, 16, 16],
            [3.0, 3.5, 5.5, 7.5, 8.5, 10.5, 10.5, 12.5, 11.5, 17.5, 17.5,
             16.5]),
        "fedbuff": (
            [3, 9, 15, 20, 26, 28, 34, 41, 45, 48, 52, 56],
            [0.5, 2.0, 2.5, 4.5, 4.5, 3.5, 7.0, 7.0, 12.5, 14.0, 12.0,
             14.5]),
    }

    @pytest.mark.parametrize("aggregation", sorted(PINS))
    def test_queue_length_and_staleness_per_round(self, aggregation,
                                                  monkeypatch):
        import repro.server.scheduler as scheduler_module

        lengths = []
        real_settle = scheduler_module.EventDrivenScheduler.settle

        def settle(scheduler, core, round_index, updates, costs, history):
            settled = real_settle(scheduler, core, round_index, updates,
                                  costs, history)
            lengths.append(len(scheduler.queue))
            return settled

        monkeypatch.setattr(scheduler_module.EventDrivenScheduler, "settle",
                            settle)
        preset = scaled(preset_for("mnist"), num_clients=400,
                        clients_per_round=8, num_rounds=12, eval_clients=4,
                        local_iterations=1, examples_per_client=16,
                        batch_size=8, scenario="flaky",
                        aggregation=aggregation, seed=0)
        history = run_method("fedlps", preset)
        queue, staleness = self.PINS[aggregation]
        assert lengths == queue
        assert [record.staleness_mean for record in history.records] \
            == staleness
