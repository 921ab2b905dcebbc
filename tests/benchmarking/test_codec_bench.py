"""The wire-codec benchmark harness (BENCH_codec.json)."""

from __future__ import annotations

import json

import pytest

from repro.benchmarking import format_report, run_bench
from repro.benchmarking.codec import BENCH_CODECS
from repro.benchmarking.fanout import BENCH_METHOD, fanout_preset
from repro.experiments import run_method, scaled


class TestWireBytesCrossTheBoundaryCompressed:
    """Every codec's per-round traffic lands strictly below dense float64."""

    @pytest.fixture(scope="class")
    def preset(self):
        return fanout_preset(0.5)

    @pytest.mark.parametrize("codec", BENCH_CODECS)
    def test_codec_uploads_beat_dense(self, preset, codec):
        history = run_method(BENCH_METHOD, scaled(preset, codec=codec))
        for record in history.records:
            extras = record.extras
            assert extras["wire_upload_bytes"] \
                < extras["wire_upload_dense_bytes"]
            assert extras["wire_download_bytes"] \
                <= extras["wire_download_dense_bytes"]

    def test_dense_runs_record_no_wire_report(self, preset):
        history = run_method(BENCH_METHOD, preset)
        for record in history.records:
            assert not any(key.startswith("wire_")
                           for key in record.extras)


class TestCodecBench:
    def test_report_schema_and_gate(self, tmp_path):
        output = tmp_path / "BENCH_codec.json"
        report = run_bench("codec", 0.5, str(output))
        assert report["gate"]["pass"], report["gate"]
        assert set(report["codecs"]) == set(BENCH_CODECS)
        for cell in report["codecs"].values():
            assert 0.0 < cell["upload_ratio"] < 1.0
            assert cell["upload_bytes"] < cell["upload_dense_bytes"]
        assert report["codecs"]["sparse"]["matches_dense_reference"]
        assert "accuracy_delta" in report["codecs"]["int8"]
        persisted = json.loads(output.read_text())
        assert persisted["gate"]["pass"] is True
        assert "PASS" in format_report(report)

    def test_sparse_meets_its_ratio_budget(self):
        # FedLPS residuals at the benchmark's sparsity sit well under the
        # density ceiling, so the budget clause must actually engage
        report = run_bench("codec", 0.5, codecs=("sparse",))
        gate = report["gate"]
        assert gate["sparse_budget_applies"]
        assert gate["sparse_mask_density"] <= gate["density_ceiling"]
        assert report["codecs"]["sparse"]["upload_ratio"] \
            <= gate["sparse_ratio_budget"]
