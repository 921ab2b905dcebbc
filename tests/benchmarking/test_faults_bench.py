"""The fault-tolerance benchmark harness (BENCH_faults.json)."""

from __future__ import annotations

import json

import pytest

from repro.benchmarking import (fault_preset, format_report, measure_faults,
                                run_bench)


class TestFaultBench:
    def test_report_schema_and_gate(self, tmp_path):
        output = tmp_path / "BENCH_faults.json"
        report = run_bench("faults", 0.5, str(output),
                           backends=("serial", "thread"))
        assert report["gate"]["pass"], report["gate"]
        assert report["fault_plan"] == "chaos"
        cells = report["backends"]
        assert set(cells) == {"serial", "thread"}
        for cell in cells.values():
            assert cell["clean_seconds"] >= 0.0
            assert cell["chaos_seconds"] >= 0.0
            assert cell["seconds"] == cell["chaos_seconds"]
            assert cell["chaos_digest"] != cell["clean_digest"]
            assert cell["chaos_stripped_digest"] == cell["clean_digest"]
        # the headline determinism claims, re-derived from the raw cells
        assert len({cell["chaos_digest"] for cell in cells.values()}) == 1
        gate = report["gate"]
        assert gate["faults_injected"] > 0
        assert gate["worker_restarts"] > 0
        assert gate["exhausted"] == 0
        persisted = json.loads(output.read_text())
        assert persisted["gate"]["pass"] is True
        assert "PASS" in format_report(report)

    def test_measure_cell_counts_faults(self):
        cell = measure_faults("serial", scale=0.5)
        totals = cell["fault_totals"]
        assert totals["fault_retries"] + totals["fault_exhausted"] > 0

    def test_preset_only_supervises_chaos_runs(self):
        clean = fault_preset(0.5)
        chaos = fault_preset(0.5, plan="chaos")
        assert clean.fault_plan is None and clean.max_retries == 0
        assert chaos.fault_plan == "chaos" and chaos.max_retries > 0
        assert chaos.task_timeout is not None

    def test_rejects_unknown_plan(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            run_bench("faults", 0.5, plan="meteor-strike",
                      backends=("serial",))
