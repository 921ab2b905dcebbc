"""Integration: the scenario engine wired through the federated trainer."""

from __future__ import annotations

import pytest

from repro.experiments import (preset_for, run_method, scaled, scenario_table,
                               summarize)
from repro.scenarios import available_scenarios

TINY = dict(num_clients=8, num_rounds=4, clients_per_round=3,
            examples_per_client=20, local_iterations=2, batch_size=8, seed=3)


def tiny_preset(scenario="ideal", **extra):
    return scaled(preset_for("mnist"), scenario=scenario, **{**TINY, **extra})


class TestIdealScenarioIsLegacyBehaviour:
    def test_ideal_records_have_no_drops(self):
        history = run_method("fedavg", tiny_preset("ideal"))
        for record in history.records:
            assert record.dropped == []
            assert record.straggler_count == 0
            assert record.sim_time == pytest.approx(record.round_time_seconds)
        assert history.total_sim_time == pytest.approx(
            history.total_time_seconds)


class TestScenarioRuns:
    @pytest.mark.parametrize("scenario", ["flaky", "deadline-tight", "trace"])
    def test_scenarios_are_reproducible(self, scenario):
        first = run_method("fedavg", tiny_preset(scenario))
        second = run_method("fedavg", tiny_preset(scenario))
        assert first.to_dict() == second.to_dict()

    def test_deadline_tight_drops_stragglers(self):
        history = run_method("fedavg", tiny_preset("deadline-tight"))
        assert history.total_stragglers > 0
        assert history.total_dropped >= history.total_stragglers

    def test_over_selection_widens_invitations(self):
        history = run_method("fedavg", tiny_preset("deadline-tight"))
        # deadline-tight over-selects 1.5x: ceil(3 * 1.5) = 5 invitations
        assert all(len(record.selected_clients) == 5
                   for record in history.records)

    def test_flaky_drops_are_unavailability_only(self):
        history = run_method("fedavg", tiny_preset("flaky"))
        assert history.total_stragglers == 0  # wait-all never cuts runners
        assert history.total_dropped > 0

    def test_trace_scenario_runs_and_drops(self):
        history = run_method("fedavg", tiny_preset("trace"))
        assert len(history) == TINY["num_rounds"]
        # the diurnal trace makes some invited clients unavailable
        assert history.total_dropped > 0

    def test_dropped_clients_are_recorded_consistently(self):
        history = run_method("fedavg", tiny_preset("deadline-tight"))
        for record in history.records:
            invited = set(record.selected_clients)
            assert set(record.dropped) <= invited
            assert record.straggler_count <= len(record.dropped)
            # participants = invited minus dropped; their ratios were recorded
            # for everyone who ran (stragglers burned compute too)
            assert set(record.sparse_ratios) <= invited

    def test_scenario_histories_serialize_round_trip(self):
        from repro.systems import TrainingHistory

        history = run_method("fedavg", tiny_preset("deadline-tight"))
        restored = TrainingHistory.from_dict(history.to_dict())
        assert restored.to_dict() == history.to_dict()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_method("fedavg", tiny_preset("chaos"))


class TestScenarioMetrics:
    def test_summarize_reports_scenario_columns(self):
        summary = summarize(run_method("fedavg", tiny_preset("deadline-tight")))
        assert summary["sim_time_seconds"] > 0
        assert summary["straggler_drops"] > 0
        assert summary["dropped_clients"] >= summary["straggler_drops"]

    def test_scenario_override_in_overrides_is_ignored_by_sweep(self):
        from repro.experiments import run_grid

        # a 'scenario' key in overrides (e.g. forwarded CLI --scenario) must
        # not collide with the sweep's own scenarios axis
        histories = run_grid(
            ["fedavg"], ["mnist"],
            {"scenario": ["deadline-tight"], "aggregation": ["sync"]},
            overrides={**TINY, "scenario": "ideal", "num_rounds": 2})
        ((method, dataset, scenario, aggregation),) = histories.keys()
        assert (method, dataset, scenario, aggregation) == (
            "fedavg", "mnist", "deadline-tight", "sync")

    def test_scenario_table_covers_the_grid(self):
        rows = scenario_table(dataset="mnist", methods=("fedavg",),
                              scenarios=("ideal", "deadline-tight"),
                              overrides=dict(TINY))
        assert {(row["method"], row["scenario"]) for row in rows} == {
            ("fedavg", "ideal"), ("fedavg", "deadline-tight")}
        ideal = next(r for r in rows if r["scenario"] == "ideal")
        tight = next(r for r in rows if r["scenario"] == "deadline-tight")
        assert ideal["dropped_clients"] == 0
        assert tight["dropped_clients"] > 0

    def test_scenario_table_shared_sync_target(self):
        rows = scenario_table(dataset="mnist", methods=("fedavg",),
                              scenarios=("flaky",),
                              aggregations=("sync", "fedasync"),
                              overrides=dict(TINY))
        by_mode = {row["aggregation"]: row for row in rows}
        assert set(by_mode) == {"sync", "fedasync"}
        # the shared target is 90% of the sync run's best: the sync row
        # always reaches its own target
        assert by_mode["sync"]["time_to_sync_target_seconds"] is not None
        assert by_mode["sync"]["mean_staleness"] == 0.0
        assert by_mode["fedasync"]["mean_staleness"] > 0

    def test_every_named_scenario_is_runnable(self):
        for scenario in available_scenarios():
            history = run_method("fedavg",
                                 tiny_preset(scenario, num_rounds=2))
            assert len(history) == 2
