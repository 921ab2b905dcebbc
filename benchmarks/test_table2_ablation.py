"""Table II: FedLPS ablation (FLST, RCR-Fix/Dyn, P-UCBV-Fix/Dyn)."""

from __future__ import annotations

import pytest

from repro.experiments import table2_ablation

from conftest import bench_overrides, print_rows

DATASETS = ("mnist", "cifar10", "reddit")


@pytest.mark.benchmark(group="table2")
def test_table2_ablation(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        rows = []
        for dataset in DATASETS:
            rows.extend(table2_ablation(dataset=dataset, overrides=overrides,
                                        cache=paper_cache))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Table II: FedLPS ablation", rows)
    assert len(rows) == len(DATASETS) * 5
    variants = {row["variant"] for row in rows}
    assert variants == {"FLST", "RCR-Fix", "P-UCBV-Fix", "RCR-Dyn", "P-UCBV-Dyn"}
