"""Figure 4: test accuracy versus simulated running time."""

from __future__ import annotations

import pytest

from repro.experiments import FIGURE3_METHODS, accuracy_vs_time

from conftest import bench_overrides, print_rows

DATASETS = ("mnist", "cifar10")


@pytest.mark.benchmark(group="figure4")
def test_fig4_accuracy_vs_time(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        return {dataset: accuracy_vs_time(dataset, FIGURE3_METHODS, overrides,
                                          cache=paper_cache)
                for dataset in DATASETS}

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for dataset, by_method in series.items():
        for method, points in by_method.items():
            rows.append({
                "dataset": dataset,
                "method": method,
                "final_accuracy": points[-1]["accuracy"],
                "total_time_seconds": points[-1]["time_seconds"],
            })
    print_rows("Figure 4: accuracy vs running time (series endpoints)", rows)
    for dataset, by_method in series.items():
        fedlps = by_method["fedlps"][-1]["time_seconds"]
        fedavg = by_method["fedavg"][-1]["time_seconds"]
        # FedLPS's rounds are cheaper than dense synchronous FedAvg rounds
        assert fedlps <= fedavg
