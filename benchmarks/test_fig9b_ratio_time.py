"""Figure 9b: training / communication / total time versus sparse ratio."""

from __future__ import annotations

import pytest

from repro.experiments import pattern_ratio_sweep
from repro.sparsity import BYTES_PER_PARAMETER
from repro.systems import REFERENCE_BANDWIDTH_BYTES

from conftest import bench_overrides, print_rows

RATIOS = (0.2, 0.4, 0.6, 0.8)


@pytest.mark.benchmark(group="figure9b")
def test_fig9b_time_vs_ratio(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        return pattern_ratio_sweep(dataset="mnist", ratios=RATIOS,
                                   patterns=("learnable",),
                                   overrides=overrides, cache=paper_cache)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in rows:
        row["communication_time_seconds"] = (
            row["upload_bytes"] / REFERENCE_BANDWIDTH_BYTES)
    print_rows("Figure 9b: time decomposition vs sparse ratio (learnable)", rows)

    times = [row["total_time_seconds"] for row in
             sorted(rows, key=lambda r: r["sparse_ratio"])]
    flops = [row["total_flops"] for row in
             sorted(rows, key=lambda r: r["sparse_ratio"])]
    # larger sparse ratios => strictly more computation, and no faster rounds
    assert flops == sorted(flops)
    assert times[-1] >= times[0]
    assert BYTES_PER_PARAMETER > 0
