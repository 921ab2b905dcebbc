"""Reproduction of the paper's figures (as data series, not plots).

Every function is one :func:`~repro.experiments.runner.run_grid` call plus a
pure reducer over its ``{key: history}`` result, so each takes the grid's
``executor=`` / ``cache=`` keywords.  They return plain Python data
structures (lists of dictionaries or ``{label: series}`` mappings) that the
benchmark harness prints; plotting is intentionally left to the user so the
library has no drawing dependencies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..data.synthetic import IMAGE_SPECS
from ..parallel import Executor
from .cache import ResultCache
from .presets import preset_for
from .runner import run_grid, summary_row

#: methods plotted in Figures 3 and 4 of the paper
FIGURE3_METHODS = ("fedavg", "refl", "fedmp", "perfedavg", "hermes", "fedspa",
                   "fedlps")


def accuracy_vs_flops(dataset: str = "mnist",
                      methods: Iterable[str] = FIGURE3_METHODS,
                      overrides: Optional[dict] = None, *,
                      executor: Optional[Executor] = None,
                      cache: Optional[ResultCache] = None
                      ) -> Dict[str, List[Dict[str, float]]]:
    """Figure 3: test accuracy as a function of cumulative FLOPs."""
    histories = run_grid(methods, [dataset], overrides=overrides,
                         executor=executor, cache=cache)
    return {method: [{"flops": record.cumulative_flops,
                      "accuracy": record.test_accuracy}
                     for record in history.records]
            for (method, _), history in histories.items()}


def accuracy_vs_time(dataset: str = "mnist",
                     methods: Iterable[str] = FIGURE3_METHODS,
                     overrides: Optional[dict] = None, *,
                     executor: Optional[Executor] = None,
                     cache: Optional[ResultCache] = None
                     ) -> Dict[str, List[Dict[str, float]]]:
    """Figure 4: test accuracy as a function of simulated running time."""
    histories = run_grid(methods, [dataset], overrides=overrides,
                         executor=executor, cache=cache)
    return {method: [{"time_seconds": record.cumulative_time_seconds,
                      "accuracy": record.test_accuracy}
                     for record in history.records]
            for (method, _), history in histories.items()}


def time_to_accuracy(datasets: Iterable[str] = ("cifar10",),
                     methods: Iterable[str] = ("fedper", "hermes", "fedspa",
                                               "perfedavg", "fedlps"),
                     target_fraction: float = 0.8,
                     overrides: Optional[dict] = None, *,
                     executor: Optional[Executor] = None,
                     cache: Optional[ResultCache] = None
                     ) -> List[Dict[str, object]]:
    """Figure 5: time to reach a target accuracy (TTA) per method and dataset.

    The target is expressed as a fraction of the best accuracy any method
    reaches on that dataset, which keeps the notion of "target accuracy"
    meaningful across the synthetic substitutes.
    """
    methods, datasets = list(methods), list(datasets)
    histories = run_grid(methods, datasets, overrides=overrides,
                         executor=executor, cache=cache)
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        by_method = {method: histories[method, dataset] for method in methods}
        target = target_fraction * max(
            history.best_accuracy() for history in by_method.values())
        rows.extend({"dataset": dataset, "method": method,
                     "target_accuracy": target,
                     "time_to_accuracy_seconds": history.time_to_accuracy(target),
                     "final_accuracy": history.final_accuracy()}
                    for method, history in by_method.items())
    return rows


def noniid_level_sweep(dataset: str = "mnist",
                       missing_classes: Iterable[int] = (2, 4, 6, 8),
                       methods: Iterable[str] = ("fedper", "hermes", "fedspa",
                                                 "perfedavg", "fedlps"),
                       overrides: Optional[dict] = None, *,
                       executor: Optional[Executor] = None,
                       cache: Optional[ResultCache] = None
                       ) -> List[Dict[str, object]]:
    """Figure 6: accuracy under increasing non-IID levels.

    The horizontal axis follows the paper: a level of ``x`` means every client
    lacks ``x`` of the dataset's classes, so only labelled image datasets
    have levels.
    """
    spec = IMAGE_SPECS.get(preset_for(dataset).dataset)
    if spec is None:
        raise ValueError(f"non-IID levels count missing classes; dataset "
                         f"{dataset!r} has no class labels")
    methods = list(methods)
    levels = [(missing, max(1, spec.num_classes - missing))
              for missing in missing_classes]
    histories = run_grid(methods, [dataset],
                         {"classes_per_client": [c for _, c in levels]},
                         overrides=overrides, executor=executor, cache=cache)
    return [summary_row(histories[method, dataset, classes], ("accuracy",),
                        dataset=dataset, missing_classes=missing,
                        method=method)
            for missing, classes in levels for method in methods]


def heterogeneity_sweep(dataset: str = "cifar10",
                        levels: Iterable[str] = ("low", "median", "high"),
                        methods: Iterable[str] = ("fedavg", "fedmp", "fedspa",
                                                  "fedlps"),
                        overrides: Optional[dict] = None, *,
                        executor: Optional[Executor] = None,
                        cache: Optional[ResultCache] = None
                        ) -> List[Dict[str, object]]:
    """Figures 7 and 8: accuracy and running time vs system heterogeneity."""
    methods, levels = list(methods), list(levels)
    histories = run_grid(methods, [dataset], {"heterogeneity": levels},
                         overrides=overrides, executor=executor, cache=cache)
    return [summary_row(histories[method, dataset, level],
                        ("accuracy", "total_time_seconds", "total_flops"),
                        dataset=dataset, heterogeneity=level, method=method)
            for level in levels for method in methods]


def pattern_ratio_sweep(dataset: str = "mnist",
                        ratios: Iterable[float] = (0.2, 0.4, 0.6, 0.8),
                        patterns: Iterable[str] = ("learnable", "random",
                                                   "ordered", "magnitude"),
                        overrides: Optional[dict] = None, *,
                        executor: Optional[Executor] = None,
                        cache: Optional[ResultCache] = None
                        ) -> List[Dict[str, object]]:
    """Figure 9a/9b: accuracy and time under different patterns and ratios.

    Each cell is FedLPS at one fixed ratio with the given pattern; the ratio
    floor is lowered to the ratio so the sweep can go below the default
    arm-space floor.
    """
    cells = [(ratio, pattern) for ratio in ratios for pattern in patterns]
    histories = run_grid(
        [(f"{pattern}@{ratio}", "fedlps",
          {"ratio_policy": "fixed", "fixed_ratio": ratio,
           "pattern_mode": pattern, "ratio_min": min(ratio, 0.25)})
         for ratio, pattern in cells],
        [dataset], overrides=overrides, executor=executor, cache=cache)
    rows: List[Dict[str, object]] = []
    for ratio, pattern in cells:
        history = histories[f"{pattern}@{ratio}", dataset]
        rows.append({
            "dataset": dataset,
            "sparse_ratio": ratio,
            "pattern": pattern,
            "accuracy": history.final_accuracy(),
            "total_time_seconds": history.total_time_seconds,
            "training_time_seconds": sum(
                record.round_time_seconds for record in history.records),
            "upload_bytes": history.total_upload_bytes,
            "total_flops": history.total_flops,
        })
    return rows
