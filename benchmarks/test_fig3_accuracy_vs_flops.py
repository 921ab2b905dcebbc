"""Figure 3: test accuracy versus cumulative training FLOPs."""

from __future__ import annotations

import pytest

from repro.experiments import FIGURE3_METHODS, accuracy_vs_flops

from conftest import bench_overrides, print_rows

DATASETS = ("mnist", "cifar10", "cifar100", "reddit")


@pytest.mark.benchmark(group="figure3")
def test_fig3_accuracy_vs_flops(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        return {dataset: accuracy_vs_flops(dataset, FIGURE3_METHODS, overrides,
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
                "total_flops": points[-1]["flops"],
                "points": len(points),
            })
    print_rows("Figure 3: accuracy vs FLOPs (series endpoints)", rows)
    for dataset, by_method in series.items():
        assert set(by_method) == set(FIGURE3_METHODS)
        for points in by_method.values():
            flops = [p["flops"] for p in points]
            assert flops == sorted(flops)
