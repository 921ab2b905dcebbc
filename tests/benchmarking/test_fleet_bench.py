"""The fleet-scale benchmark harness (BENCH_fleet.json)."""

from __future__ import annotations

import json

from repro.benchmarking import format_report, run_bench


class TestFleetBench:
    def test_report_schema_and_gate(self, tmp_path):
        output = tmp_path / "BENCH_fleet.json"
        report = run_bench("fleet", 0.01, str(output))
        assert report["gate"]["pass"], report["gate"]
        ladder = report["ladder"]
        assert len(ladder) == 3
        for cell in ladder.values():
            assert cell["seconds_to_first_dispatch"] >= 0.0
            # materialization scales with the cohort, not the fleet
            assert cell["shard_materializations"] <= max(cell["cohort_size"],
                                                         32)
        smoke = report["smoke"]
        assert smoke["rounds_completed"] == smoke["rounds"] == 2
        persisted = json.loads(output.read_text())
        assert persisted["gate"]["pass"] is True
        # the rendered table mentions the gate verdict
        assert "PASS" in format_report(report)
