"""Reproduction of the paper's tables.

* :func:`table1_accuracy_flops` — Table I: test accuracy, total training
  FLOPs and time-to-accuracy of every method on the requested datasets.
* :func:`table2_ablation` — Table II: FLST / RCR-Fix / P-UCBV-Fix / RCR-Dyn /
  P-UCBV-Dyn accuracy and FLOPs under static and dynamic device resources.
* :func:`scenario_table` — methods × system-heterogeneity scenarios:
  accuracy, simulated wall-clock, time-to-accuracy and drop counts (the
  columns that show which strategy wins once clients can miss deadlines).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..baselines import TABLE1_METHODS
from ..parallel import Executor
from .cache import ResultCache
from .presets import preset_for, scaled
from .runner import run_grid, summarize, summary_row


#: the :func:`~repro.experiments.runner.summarize` columns of a Table I row
_TABLE1_COLUMNS = ("accuracy", "total_flops", "total_time_seconds",
                   "sim_time_seconds", "time_to_accuracy_seconds",
                   "mean_staleness")


def table1_accuracy_flops(datasets: Iterable[str] = ("mnist",),
                          methods: Optional[Iterable[str]] = None,
                          overrides: Optional[dict] = None, *,
                          executor: Optional[Executor] = None,
                          cache: Optional[ResultCache] = None
                          ) -> List[Dict[str, object]]:
    """Rows of Table I: one row per (method, dataset), dataset outermost.

    ``overrides`` shrinks or enlarges the presets (rounds, clients, ...),
    which is how tests and benchmarks keep the full 21-method sweep
    tractable.  With an ``executor`` the grid's runs dispatch as parallel
    jobs; a ``cache`` makes repeated table builds incremental.
    """
    methods = list(methods) if methods is not None else list(TABLE1_METHODS)
    datasets = list(datasets)
    overrides = overrides or {}
    histories = run_grid(methods, datasets, overrides=overrides,
                         executor=executor, cache=cache)
    rows = []
    for dataset in datasets:
        aggregation = scaled(preset_for(dataset), **overrides).aggregation
        rows.extend(summary_row(histories[method, dataset], _TABLE1_COLUMNS,
                                method=method, dataset=dataset,
                                aggregation=aggregation)
                    for method in methods)
    return rows


#: Table II's rows: (variant, registry name, dynamic device resources)
_TABLE2_VARIANTS = (("FLST", "flst", False), ("RCR-Fix", "rcr", False),
                    ("P-UCBV-Fix", "p-ucbv", False),
                    ("RCR-Dyn", "rcr", True), ("P-UCBV-Dyn", "p-ucbv", True))


def table2_ablation(dataset: str = "mnist",
                    overrides: Optional[dict] = None,
                    fixed_ratio: float = 0.5, *,
                    executor: Optional[Executor] = None,
                    cache: Optional[ResultCache] = None
                    ) -> List[Dict[str, object]]:
    """Rows of Table II: the FedLPS ablation grid.

    * FLST — learnable pattern, fixed ratio, static resources.
    * RCR-Fix / P-UCBV-Fix — rigid vs adaptive ratios, static resources.
    * RCR-Dyn / P-UCBV-Dyn — the same under dynamically fluctuating resources.

    FLST runs under static resources only, so it is a grid of its own.
    """
    grid_kwargs = dict(overrides=overrides, executor=executor, cache=cache)
    histories = {
        **run_grid([("flst", "flst", {"fixed_ratio": fixed_ratio})],
                   [dataset], {"dynamic_resources": [False]}, **grid_kwargs),
        **run_grid(["rcr", "p-ucbv"], [dataset],
                   {"dynamic_resources": [False, True]}, **grid_kwargs)}
    return [summary_row(histories[method, dataset, dynamic],
                        ("accuracy", "total_flops", "total_time_seconds"),
                        variant=label, dataset=dataset)
            for label, method, dynamic in _TABLE2_VARIANTS]


def scenario_table(dataset: str = "mnist",
                   methods: Iterable[str] = ("fedavg", "fedlps"),
                   scenarios: Iterable[str] = ("ideal", "flaky",
                                               "deadline-tight", "trace"),
                   aggregations: Iterable[str] = ("sync",),
                   overrides: Optional[dict] = None, *,
                   executor: Optional[Executor] = None,
                   cache: Optional[ResultCache] = None
                   ) -> List[Dict[str, object]]:
    """Methods × scenarios × aggregations on one dataset.

    Alongside final accuracy, the rows carry the quantities the scenario
    engine and the event-driven server core exist to measure: simulated
    wall-clock (deadline waits included), time-to-accuracy, client slots
    lost to unavailability or straggler drops, and the mean staleness of the
    aggregated updates.  Passing ``aggregations=("sync", "fedasync")`` turns
    the table into the sync-vs-async comparison: because
    ``time_to_accuracy_seconds`` targets each run's *own* best accuracy (an
    uneven bar between modes), the rows also carry
    ``time_to_sync_target_seconds`` — sim-time until 90% of the **sync**
    run's best accuracy on the same (method, scenario) cell, the
    like-for-like number — ``None`` when the target is never reached or no
    sync run is in the grid.
    """
    histories = run_grid(methods, [dataset],
                         {"scenario": scenarios, "aggregation": aggregations},
                         overrides=overrides, executor=executor, cache=cache)
    sync_targets = {
        key[:3]: 0.9 * history.best_accuracy()
        for key, history in histories.items() if key[3] == "sync"}
    rows = []
    for key, history in histories.items():
        method, grid_dataset, scenario, aggregation = key
        summary = summarize(history)
        target = sync_targets.get(key[:3])
        rows.append({
            "method": method,
            "scenario": scenario,
            "aggregation": aggregation,
            "dataset": grid_dataset,
            "accuracy": summary["accuracy"],
            "sim_time_seconds": summary["sim_time_seconds"],
            "time_to_accuracy_seconds": summary["time_to_accuracy_seconds"],
            "time_to_sync_target_seconds":
                (history.sim_time_to_accuracy(target)
                 if target is not None else None),
            "dropped_clients": summary["dropped_clients"],
            "straggler_drops": summary["straggler_drops"],
            "mean_staleness": summary["mean_staleness"],
        })
    return rows
