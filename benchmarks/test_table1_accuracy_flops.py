"""Table I: accuracy and total FLOPs of every method on the five datasets.

The bench prints one row per (method, dataset) with the same columns the
paper reports (test accuracy, total training FLOPs) plus simulated time.
"""

from __future__ import annotations

import pytest

from repro.baselines import TABLE1_METHODS
from repro.experiments import table1_accuracy_flops

from conftest import bench_overrides, print_rows

DATASETS = ("mnist", "cifar10", "cifar100", "tinyimagenet", "reddit")


@pytest.mark.benchmark(group="table1")
def test_table1_accuracy_and_flops(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        rows = []
        for dataset in DATASETS:
            rows.extend(table1_accuracy_flops(
                datasets=[dataset], methods=TABLE1_METHODS,
                overrides=overrides, cache=paper_cache))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Table I: accuracy / FLOPs per method and dataset", rows)

    by_dataset = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], []).append(row)
    for dataset, dataset_rows in by_dataset.items():
        fedlps = next(r for r in dataset_rows if r["method"] == "fedlps")
        fedavg = next(r for r in dataset_rows if r["method"] == "fedavg")
        # headline shape: FedLPS trains with far fewer FLOPs than dense FL
        assert fedlps["total_flops"] < fedavg["total_flops"]
    assert len(rows) == len(DATASETS) * len(TABLE1_METHODS)
