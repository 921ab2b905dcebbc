"""Tests for the ``repro bench`` fan-out benchmark harness."""

from __future__ import annotations

import json

import pytest

from repro.benchmarking import (fanout_preset, format_report,
                                measure_fanout_bytes, run_bench)


class TestFanoutPreset:
    def test_scale_one_matches_the_parallel_smoke_workload(self):
        preset = fanout_preset(1.0)
        assert preset.num_clients == 6
        assert preset.examples_per_client == 30
        assert preset.num_rounds == 3
        assert preset.local_iterations == 2
        assert preset.clients_per_round == 3

    def test_small_scales_stay_runnable(self):
        preset = fanout_preset(0.25)
        assert preset.num_clients >= preset.clients_per_round
        assert preset.num_rounds >= 2


class TestRunFanoutBench:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        output = tmp_path_factory.mktemp("bench") / "BENCH_fanout.json"
        # serial + thread keeps the test fast; the process cell is covered
        # by the CI bench job and the determinism suite
        return run_bench("fanout", 0.25, str(output),
                         backends=("serial", "thread"), workers_list=(2,),
                         repeats=1), output

    def test_report_schema(self, report):
        report, _ = report
        assert {"bench_scale", "timings", "bytes", "gate", "cpu_count",
                "python", "platform", "workload", "aggregation"} <= set(report)
        for entry in report["timings"].values():
            assert {"workers", "mean_seconds", "min_seconds",
                    "samples_seconds", "spawn_overhead_seconds",
                    "matches_serial_reference"} <= set(entry)
        assert set(report["timings"]) == {"serial", "thread-2"}

    def test_backends_reproduce_the_reference(self, report):
        report, _ = report
        assert all(entry["matches_serial_reference"]
                   for entry in report["timings"].values())

    def test_bytes_counters_recorded(self, report):
        report, _ = report
        traffic = report["bytes"]
        assert 0 < traffic["broadcast_task_payloads_per_round"] < \
            traffic["broadcast_pickled_per_round"]
        assert traffic["shared_memory_raw_per_round"] > 0
        # with the virtual fleet the session ships the federation spec, not
        # dataset arrays: the once-per-run raw payload collapses to zero
        assert traffic["session_raw_bytes"] == 0

    def test_gate_passes_vacuously_without_process(self, report):
        report, _ = report
        assert report["gate"]["pass"] is True
        assert "reason" in report["gate"]

    def test_artifact_written_and_loadable(self, report):
        report, output = report
        on_disk = json.loads(output.read_text())
        assert on_disk["bench_scale"] == report["bench_scale"]
        assert on_disk["bytes"] == report["bytes"]

    def test_aggregation_section_records_async_modes(self, report):
        report, _ = report
        section = report["aggregation"]
        assert section["scenario"] == "flaky"
        assert set(section["modes"]) == {"sync", "fedasync", "fedbuff"}
        for mode in section["modes"].values():
            assert {"wall_seconds", "sim_time_seconds", "final_accuracy",
                    "best_accuracy", "sim_time_to_accuracy_seconds",
                    "mean_staleness"} <= set(mode)
            assert mode["wall_seconds"] > 0
            assert mode["sim_time_seconds"] > 0
        # sync has no staleness by construction; the async modes do
        assert section["modes"]["sync"]["mean_staleness"] == 0.0
        assert section["modes"]["fedasync"]["mean_staleness"] > 0
        # the shared target comes from the sync run, so the sync cell
        # always reaches it
        assert section["modes"]["sync"]["sim_time_to_accuracy_seconds"] \
            is not None

    def test_format_report_renders(self, report):
        report, _ = report
        text = format_report(report)
        assert "serial" in text and "thread-2" in text
        assert "bytes/round: broadcast" in text
        assert "fedasync" in text and "fedbuff" in text

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench("fanout", 0.25, repeats=0)


class TestGate:
    @staticmethod
    def _cell(mean, spawn=0.0, matches=True, workers=1):
        return {"workers": workers, "mean_seconds": mean,
                "min_seconds": mean, "samples_seconds": [mean],
                "spawn_overhead_seconds": spawn,
                "matches_serial_reference": matches}

    def test_fails_when_any_backend_diverges(self):
        from repro.benchmarking.fanout import _gate
        timings = {"serial": self._cell(0.1),
                   "thread-2": self._cell(0.12, matches=False)}
        verdict = _gate(timings)
        assert verdict["pass"] is False
        assert "thread-2" in verdict["reason"]

    def test_margin_comes_from_the_compared_cell(self):
        from repro.benchmarking.fanout import _gate
        # a huge spawn overhead on a *different* process cell must not
        # grant slack to the best cell being gated
        timings = {"serial": self._cell(0.1),
                   "process-1": self._cell(0.5, spawn=0.2),
                   "process-4": self._cell(9.0, spawn=50.0, workers=4)}
        verdict = _gate(timings)
        assert verdict["process_entry"] == "process-1"
        assert verdict["margin_seconds"] == 0.2
        assert verdict["pass"] is False  # 0.5 > 0.1 + 0.2

    def test_passes_within_own_spawn_overhead(self):
        from repro.benchmarking.fanout import _gate
        timings = {"serial": self._cell(0.1),
                   "process-2": self._cell(0.25, spawn=0.3, workers=2)}
        assert _gate(timings)["pass"] is True


class TestMeasureFanoutBytes:
    def test_counters_are_consistent(self):
        traffic = measure_fanout_bytes(fanout_preset(0.25))
        assert traffic["broadcast_task_payloads_per_round"] < \
            traffic["broadcast_pickled_per_round"]
        assert traffic["broadcast_publishes"] == \
            2 * traffic["num_rounds"] + 1
