"""Figure 6: accuracy under increasing non-IID levels (MNIST)."""

from __future__ import annotations

import pytest

from repro.experiments import noniid_level_sweep

from conftest import bench_overrides, print_rows

METHODS = ("fedper", "hermes", "fedspa", "perfedavg", "fedlps")
MISSING_CLASSES = (2, 4, 6, 8)


@pytest.mark.benchmark(group="figure6")
def test_fig6_noniid_level_sweep(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        return noniid_level_sweep(dataset="mnist",
                                  missing_classes=MISSING_CLASSES,
                                  methods=METHODS, overrides=overrides,
                                  cache=paper_cache)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Figure 6: accuracy vs non-IID level (missing classes)", rows)
    assert len(rows) == len(METHODS) * len(MISSING_CLASSES)
    assert all(0.0 <= row["accuracy"] <= 1.0 for row in rows)
