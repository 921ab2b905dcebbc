"""Pins of the rows every paper table and figure function returns.

``tests/fixtures/paper_rows_pin.json`` records, at the ``TINY`` overrides of
``test_experiments.py``, the rows (or ``{method: series}`` mappings) of the
nine functions behind the paper's artifacts: Fig. 3-9 in
:mod:`repro.experiments.figures` and Tables I/II plus the scenario table in
:mod:`repro.experiments.tables`.  It covers every Fig. 9 pattern, all five
Table II variants, two datasets for Fig. 5 and Table I and two levels for
Fig. 6 and Fig. 7.

The rows were recorded while the figure builders still ran one
``run_method`` at a time, before they became ``run_grid`` cells.  The
fixture is never regenerated: a refactor of how the grids are run must
reproduce it byte for byte, row order included, with no executor and with
every grid dispatched on the serial backend or on two process workers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import (accuracy_vs_flops, accuracy_vs_time,
                               heterogeneity_sweep, noniid_level_sweep,
                               pattern_ratio_sweep, scenario_table,
                               table1_accuracy_flops, table2_ablation,
                               time_to_accuracy)
from repro.parallel import SerialExecutor, resolve_executor

FIXTURE = Path(__file__).parent.parent / "fixtures" / "paper_rows_pin.json"

TINY = {"num_clients": 5, "examples_per_client": 24, "num_rounds": 2,
        "clients_per_round": 2, "local_iterations": 2, "batch_size": 8,
        "seed": 1}

TWO_METHODS = ("fedavg", "fedlps")

#: name -> (function, keyword arguments); the name is the fixture key
CALLS = {
    "fig3_accuracy_vs_flops": (accuracy_vs_flops, dict(
        dataset="mnist", methods=TWO_METHODS)),
    "fig4_accuracy_vs_time": (accuracy_vs_time, dict(
        dataset="mnist", methods=TWO_METHODS)),
    "fig5_time_to_accuracy": (time_to_accuracy, dict(
        datasets=("mnist", "cifar10"), methods=TWO_METHODS,
        target_fraction=0.5)),
    "fig6_noniid_level_sweep": (noniid_level_sweep, dict(
        dataset="mnist", missing_classes=(6, 8), methods=TWO_METHODS)),
    "fig6_noniid_level_sweep_cifar100": (noniid_level_sweep, dict(
        dataset="cifar100", missing_classes=(12,), methods=("fedlps",))),
    "fig7_heterogeneity_sweep": (heterogeneity_sweep, dict(
        dataset="mnist", levels=("low", "high"), methods=TWO_METHODS)),
    "fig9_pattern_ratio_sweep": (pattern_ratio_sweep, dict(
        dataset="mnist", ratios=(0.2, 0.6),
        patterns=("learnable", "random", "ordered", "magnitude"))),
    "table1_accuracy_flops": (table1_accuracy_flops, dict(
        datasets=("mnist", "cifar10"), methods=TWO_METHODS)),
    "table2_ablation": (table2_ablation, dict(dataset="mnist")),
    "table2_ablation_fixed_ratio": (table2_ablation, dict(
        dataset="cifar10", fixed_ratio=0.7)),
    "scenario_table": (scenario_table, dict(
        dataset="mnist", methods=TWO_METHODS, scenarios=("ideal", "flaky"),
        aggregations=("sync", "fedasync"))),
}


def rows_of(name: str, **run_kwargs) -> str:
    """The JSON text of one pinned call's rows, in the order returned."""
    function, kwargs = CALLS[name]
    return json.dumps(function(overrides=dict(TINY), **kwargs, **run_kwargs))


@pytest.fixture(scope="module")
def pinned():
    return {name: json.dumps(rows)
            for name, rows in json.loads(FIXTURE.read_text()).items()}


def test_the_fixture_pins_every_call(pinned):
    assert list(pinned) == list(CALLS)


@pytest.mark.parametrize("name", list(CALLS))
def test_rows_are_pinned(name, pinned):
    assert rows_of(name) == pinned[name]


@pytest.mark.parametrize("make_executor", [
    SerialExecutor, lambda: resolve_executor("process", 2)],
    ids=["serial", "process-2"])
def test_rows_are_pinned_on_an_executor(make_executor, pinned):
    with make_executor() as executor:
        rows = {name: rows_of(name, executor=executor) for name in CALLS}
    assert rows == pinned
