"""Figure 8: running time under different system-heterogeneity levels."""

from __future__ import annotations

import pytest

from repro.experiments import heterogeneity_sweep

from conftest import bench_overrides, print_rows

METHODS = ("fedavg", "fedmp", "fedspa", "fedlps")
LEVELS = ("low", "median", "high")


@pytest.mark.benchmark(group="figure8")
def test_fig8_heterogeneity_time(benchmark, paper_cache):
    overrides = bench_overrides()

    def run():
        return heterogeneity_sweep(dataset="cifar10", levels=LEVELS,
                                   methods=METHODS, overrides=overrides,
                                   cache=paper_cache)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Figure 8: running time vs system heterogeneity", rows)

    def time_of(method, level):
        return next(r["total_time_seconds"] for r in rows
                    if r["method"] == method and r["heterogeneity"] == level)

    # dense synchronous FL does not get faster as heterogeneity grows
    # (stragglers), and FedLPS stays cheaper than FedAvg at the highest
    # heterogeneity level.  The 0.6 slack absorbs bandwidth sampling noise in
    # the small CI-sized fleets.
    assert time_of("fedavg", "high") >= time_of("fedavg", "low") * 0.6
    assert time_of("fedlps", "high") <= time_of("fedavg", "high")
