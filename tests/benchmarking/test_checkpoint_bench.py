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
            assert cell["rounds"] >= 6
            assert cell["seconds"] >= 0.0
            assert cell["restore_seconds"] >= 0.0
            assert cell["first_save_bytes"] > 0
            # states scale with participation, never with the fleet
            assert cell["client_states"] \
                <= cell["rounds"] * cell["cohort_size"]
        assert report["gate"]["flat_in_rounds"] is True
        assert report["gate"]["bounded_garbage"] is True
        persisted = json.loads(output.read_text())
        assert persisted["gate"]["pass"] is True
        assert "PASS" in format_report(report)

    def test_bytes_track_cohort_not_fleet_nor_rounds(self):
        small = measure_checkpoint(40)
        large = measure_checkpoint(4_000)
        # a 100x fleet with the same cohort: bytes must stay within the
        # same O(cohort) envelope the gate enforces
        assert large["last_save_bytes"] \
            <= max(2 * small["last_save_bytes"],
                   small["last_save_bytes"] + 1_000_000)
        for cell in (small, large):
            # the clause the full-copy layout failed: its sixth save
            # rewrote all six cohorts
            assert cell["last_save_bytes"] <= 2 * cell["first_save_bytes"]
            assert cell["directory_bytes"] \
                <= 2 * cell["live_blob_bytes"] + cell["first_save_bytes"]
        # 192 participants' states are live, one cohort's worth was written
        assert large["live_blob_bytes"] > 4 * large["last_save_bytes"]

    def test_gate_fails_when_saves_grow_with_the_round_index(self):
        from repro.benchmarking.checkpoint import _gate

        cell = measure_checkpoint(40)
        assert _gate({"40": cell})["pass"]
        grown = dict(cell, last_save_bytes=6 * cell["first_save_bytes"])
        verdict = _gate({"40": grown})
        assert not verdict["pass"] and not verdict["flat_in_rounds"]
        bloated = dict(cell, directory_bytes=4 * cell["live_blob_bytes"])
        verdict = _gate({"40": bloated})
        assert not verdict["pass"] and not verdict["bounded_garbage"]
