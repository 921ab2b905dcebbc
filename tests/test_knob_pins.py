"""Pins of every place a run-shaping knob is observable from outside.

A knob (``--codec``, ``num_rounds``, ``fault_plan`` ...) travels CLI option
-> ``_preset_overrides`` -> :class:`ExperimentPreset` -> ``build_experiment``
-> :class:`FederatedConfig`.  ``tests/fixtures/knob_pins.json`` records what
each hop shows the world, taken from the code before those hops were folded
into one declaration per knob:

* ``--help`` of the four experiment commands (at a fixed terminal width —
  argparse wraps to ``COLUMNS``);
* the override maps ``_preset_overrides`` builds from three command lines;
* the result-cache key (``spec_key(run_spec(...))``, a hash of
  ``asdict(preset)``) and the checkpoint ``run_digest`` (a hash of
  ``asdict(config)``) of three presets;
* the rows a tiny ``repro sweep`` and ``repro table1`` print.

The fixture is never regenerated: a refactor of the knob plumbing must
reproduce it as it is.  A sweep over two or more codecs may print its rows
in another order (the grid's key order), so that grid compares its header
exactly and its rows as a sorted list; every other text compares byte for
byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from repro.baselines import build_strategy
from repro.checkpoint import run_digest
from repro.cli import _preset_overrides, build_parser, main
from repro.experiments import (build_experiment, preset_for, run_spec,
                               scaled, spec_key)
from repro.federated import FederatedTrainer

FIXTURE = Path(__file__).parent / "fixtures" / "knob_pins.json"

#: argparse wraps help text to the terminal width; pin one
COLUMNS = "100"

HELP_COMMANDS = ("run", "compare", "table1", "sweep")

#: every option that sets an ExperimentPreset field, each to a non-default
EVERY_PRESET_OPTION = [
    "--scenario", "flaky", "--aggregation", "fedbuff", "--codec", "sparse",
    "--fault-plan", "chaos", "--task-timeout", "30", "--max-retries", "2",
    "--batch-cohort", "--reducer-shards", "2", "--rounds", "3",
    "--clients", "7", "--clients-per-round", "2", "--local-iterations", "4",
    "--seed", "9", "--dataset", "cifar10"]

OVERRIDE_COMMAND_LINES = {
    "run": ["run"],
    "run_every_preset_option": ["run", *EVERY_PRESET_OPTION],
    "sweep_batch_cohort_int8": ["sweep", "--batch-cohort", "--codec", "int8"],
}

PRESETS = {
    "mnist": ("mnist", {}),
    "mnist-100k_sparse_flaky": ("mnist-100k",
                                {"codec": "sparse", "scenario": "flaky"}),
    "cifar10_chaos_fedbuff_shards": ("cifar10", {
        "fault_plan": "chaos", "max_retries": 2, "aggregation": "fedbuff",
        "reducer_shards": 2}),
}

TINY = ["--rounds", "2", "--clients", "5", "--clients-per-round", "2",
        "--local-iterations", "2", "--seed", "1"]

PRINTED = {
    "sweep_two_codecs": [
        "sweep", "--datasets", "mnist", "--methods", "fedavg", "fedlps",
        "--aggregations", "sync", "fedbuff", "--codecs", "dense", "sparse",
        "--no-cache", *TINY],
    "sweep_one_codec": [
        "sweep", "--datasets", "mnist", "--methods", "fedavg", "fedlps",
        "--aggregations", "sync", "fedbuff", "--no-cache", *TINY],
    "table1": ["table1", "--datasets", "mnist", "cifar10",
               "--methods", "fedavg", "fedlps", *TINY],
}

#: printed grids whose row order may follow the grid's key order
ROW_ORDER_FREE = {"sweep_two_codecs"}


def _stdout(argv) -> str:
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}), \
            contextlib.redirect_stdout(out):
        try:
            status = main(argv)
        except SystemExit as exit_:  # --help exits 0
            status = exit_.code
    assert status == 0, argv
    return out.getvalue()


def _digest(preset) -> str:
    dataset, model_builder, config, fleet = build_experiment(preset)
    trainer = FederatedTrainer(build_strategy("fedlps"), dataset,
                               model_builder, config=config, fleet=fleet)
    try:
        return run_digest(trainer)
    finally:
        trainer.close()


def _preset(name):
    base, overrides = PRESETS[name]
    return scaled(preset_for(base), **overrides)


def observed_overrides() -> dict:
    return {name: json.loads(json.dumps(
                _preset_overrides(build_parser().parse_args(argv))))
            for name, argv in OVERRIDE_COMMAND_LINES.items()}


def observed_spec_keys() -> dict:
    return {name: spec_key(run_spec("fedlps", _preset(name)))
            for name in PRESETS}


def observed_run_digests() -> dict:
    return {name: _digest(_preset(name)) for name in PRESETS}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_text(pins, command):
    assert _stdout([command, "--help"]) == pins["help"][command]


def test_override_maps(pins):
    assert observed_overrides() == pins["overrides"]


def test_cache_keys(pins):
    assert observed_spec_keys() == pins["spec_keys"]


def test_run_digests(pins):
    assert observed_run_digests() == pins["run_digests"]


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_printed_rows(pins, name):
    text = _stdout(PRINTED[name])
    expected = pins["printed"][name]
    if name in ROW_ORDER_FREE:
        lines, want = text.splitlines(), expected.splitlines()
        assert lines[:2] == want[:2]
        assert sorted(lines[2:]) == sorted(want[2:])
    else:
        assert text == expected
