"""Figure 7: test accuracy under different system-heterogeneity levels."""

from __future__ import annotations

import pytest

from repro.experiments import heterogeneity_sweep

from conftest import bench_overrides, print_rows

DATASETS = ("cifar10", "tinyimagenet")
METHODS = ("fedavg", "fedmp", "fedspa", "fedlps")
LEVELS = ("low", "median", "high")


@pytest.mark.benchmark(group="figure7")
def test_fig7_heterogeneity_accuracy(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        rows = []
        for dataset in DATASETS:
            rows.extend(heterogeneity_sweep(dataset=dataset, levels=LEVELS,
                                            methods=METHODS,
                                            overrides=overrides,
                                            cache=paper_cache))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Figure 7: accuracy vs system heterogeneity", rows)
    assert len(rows) == len(DATASETS) * len(METHODS) * len(LEVELS)
    assert all(0.0 <= row["accuracy"] <= 1.0 for row in rows)
