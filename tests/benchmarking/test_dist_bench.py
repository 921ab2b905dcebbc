"""The distributed benchmark harness (BENCH_dist.json)."""

from __future__ import annotations

import json

from repro.benchmarking import (format_report, measure_shard_balance,
                                run_bench)
from repro.benchmarking.dist import GATE_BALANCE_TOLERANCE, SHARD_COUNTS


class TestShardBalance:
    def test_even_manifest_splits_near_fairly(self):
        balance = measure_shard_balance(SHARD_COUNTS)
        for count in SHARD_COUNTS:
            cell = balance["cells"][str(count)]
            assert len(cell["per_shard_bytes"]) == count
            assert sum(cell["per_shard_bytes"]) == cell["total_bytes"]
            assert cell["within_tolerance"], cell
            assert cell["max_shard_fraction"] <= \
                (1.0 / count) * (1.0 + GATE_BALANCE_TOLERANCE)

    def test_single_shard_owns_all_bytes(self):
        cell = measure_shard_balance([1])["cells"]["1"]
        assert cell["max_shard_fraction"] == 1.0
        assert cell["within_tolerance"]


class TestDistBench:
    def test_report_schema_and_gate(self, tmp_path):
        output = tmp_path / "BENCH_dist.json"
        report = run_bench("dist", 0.5, str(output))
        assert report["gate"]["pass"], report["gate"]
        assert report["gate"]["bit_identical"]
        assert report["gate"]["shard_bytes_scale"]
        assert set(report["cells"]) == {str(c) for c in SHARD_COUNTS}
        for count, cell in report["cells"].items():
            assert cell["matches_serial_reference"], count
            assert cell["transport_sent_bytes"] > 0
            assert cell["transport_received_bytes"] > 0
            if int(count) > 1:
                assert len(cell["per_shard_bytes"]) == int(count)
                assert sum(cell["per_shard_bytes"]) == cell["reduce_bytes"]
            else:
                # one shard never activates the sharded path
                assert cell["per_shard_bytes"] is None
                assert cell["reduce_bytes"] == 0
        persisted = json.loads(output.read_text())
        assert persisted["gate"]["pass"] is True
        assert "PASS" in format_report(report)
