"""Experiment harness: presets, runner, result cache and per-table/figure
reproduction."""

from .cache import DEFAULT_CACHE_DIR, ResultCache, run_spec, spec_key
from .figures import (FIGURE3_METHODS, accuracy_vs_flops, accuracy_vs_time,
                      heterogeneity_sweep, noniid_level_sweep,
                      pattern_ratio_sweep, time_to_accuracy)
from .presets import (DATASETS, DEFAULT_PRESETS, ExperimentPreset,
                      build_experiment, preset_for, scaled)
from .runner import (format_rows, run_grid, run_jobs, run_method, run_methods,
                     summarize)
from .tables import scenario_table, table1_accuracy_flops, table2_ablation

__all__ = [
    "ExperimentPreset",
    "DATASETS",
    "DEFAULT_PRESETS",
    "preset_for",
    "scaled",
    "build_experiment",
    "run_method",
    "run_methods",
    "run_jobs",
    "run_grid",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "run_spec",
    "spec_key",
    "summarize",
    "format_rows",
    "table1_accuracy_flops",
    "table2_ablation",
    "scenario_table",
    "accuracy_vs_flops",
    "accuracy_vs_time",
    "time_to_accuracy",
    "noniid_level_sweep",
    "heterogeneity_sweep",
    "pattern_ratio_sweep",
    "FIGURE3_METHODS",
]
