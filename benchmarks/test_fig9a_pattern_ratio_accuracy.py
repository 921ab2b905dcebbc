"""Figure 9a: accuracy versus sparse ratio for the different pattern strategies."""

from __future__ import annotations

import pytest

from repro.experiments import pattern_ratio_sweep

from conftest import bench_overrides, print_rows

RATIOS = (0.2, 0.4, 0.6, 0.8)
PATTERNS = ("learnable", "random", "ordered", "magnitude")


@pytest.mark.benchmark(group="figure9a")
def test_fig9a_pattern_ratio_accuracy(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        return pattern_ratio_sweep(dataset="mnist", ratios=RATIOS,
                                   patterns=PATTERNS, overrides=overrides,
                                   cache=paper_cache)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Figure 9a: accuracy vs sparse ratio per pattern", rows)
    assert len(rows) == len(RATIOS) * len(PATTERNS)
    assert all(0.0 <= row["accuracy"] <= 1.0 for row in rows)

    def flops_of(pattern, ratio):
        return next(r["total_flops"] for r in rows
                    if r["pattern"] == pattern and r["sparse_ratio"] == ratio)

    # larger sparse ratios cost strictly more computation for every pattern;
    # the accuracy ordering across patterns is discussed in EXPERIMENTS.md
    # (it is too noisy to assert at CI scale).
    for pattern in PATTERNS:
        assert flops_of(pattern, 0.8) > flops_of(pattern, 0.2)
