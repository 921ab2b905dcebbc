"""Figure 5: time-to-accuracy (TTA) of personalized methods."""

from __future__ import annotations

import pytest

from repro.experiments import time_to_accuracy

from conftest import bench_overrides, print_rows

DATASETS = ("cifar10", "cifar100", "tinyimagenet")
METHODS = ("fedper", "hermes", "fedspa", "perfedavg", "fedlps")


@pytest.mark.benchmark(group="figure5")
def test_fig5_time_to_accuracy(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        return time_to_accuracy(datasets=DATASETS, methods=METHODS,
                                target_fraction=0.7, overrides=overrides,
                                cache=paper_cache)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Figure 5: time-to-accuracy", rows)
    assert len(rows) == len(DATASETS) * len(METHODS)
    for row in rows:
        assert row["target_accuracy"] > 0
