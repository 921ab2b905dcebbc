"""The checkpoint-cost benchmark harness (BENCH_checkpoint.json)."""

from __future__ import annotations

import json

from repro.benchmarking import format_report, measure_checkpoint, run_bench


class TestCheckpointBench:
    def test_report_schema_and_gate(self, tmp_path):
        output = tmp_path / "BENCH_checkpoint.json"
        report = run_bench("checkpoint", 0.02, str(output))
        assert report["gate"]["pass"], report["gate"]
        ladder = report["ladder"]
        assert len(ladder) == 2
        for cell in ladder.values():
            assert cell["seconds"] >= 0.0
            assert cell["restore_seconds"] >= 0.0
            assert cell["bytes_on_disk"] > 0
            # states scale with participation, never with the fleet
            assert cell["client_states"] \
                <= cell["rounds"] * cell["cohort_size"]
        persisted = json.loads(output.read_text())
        assert persisted["gate"]["pass"] is True
        assert "PASS" in format_report(report)

    def test_bytes_track_cohort_not_fleet(self):
        small = measure_checkpoint(40)
        large = measure_checkpoint(4_000)
        # a 100x fleet with the same cohort: bytes must stay within the
        # same O(cohort) envelope the gate enforces
        assert large["bytes_on_disk"] \
            <= max(2 * small["bytes_on_disk"],
                   small["bytes_on_disk"] + 1_000_000)
