"""The hand-built federation the parity suites run next to the virtual one.

``build_experiment`` only ever builds the virtual dataset and the virtual
device fleet.  The 30 golden fixtures predate both, so the golden,
sparse-codec, resume and read-only-fan-out suites run every spec a second
time on an *eager-data* federation: the dataset from
``build_federated_dataset`` (every shard copied up front, shipped to pool
workers over the ``"blocks"`` session transport) and the devices from the
sequential ``sample_device_fleet``, built from the same preset fields and
handed to the trainer like any hand-built federation.  That keeps the eager
generators pinned to the fixtures as the reference the virtual ones are
measured against.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.data import build_federated_dataset
from repro.experiments import run_method, runner
from repro.experiments.presets import build_experiment
from repro.systems.devices import HETEROGENEITY_PRESETS, sample_device_fleet


def build_eager_experiment(preset):
    """``build_experiment(preset)`` with eager data and sampled devices."""
    _, model_builder, config, _ = build_experiment(preset)
    dataset = build_federated_dataset(
        preset.dataset, preset.num_clients,
        classes_per_client=preset.classes_per_client,
        examples_per_client=preset.examples_per_client,
        style_scale=preset.style_scale, seed=preset.seed)
    devices = sample_device_fleet(
        preset.num_clients,
        levels=HETEROGENEITY_PRESETS[preset.heterogeneity],
        dynamic=preset.dynamic_resources, seed=preset.seed)
    return dataset, model_builder, config, devices


def run_method_eager_data(method, preset, **run_kwargs):
    """``run_method(method, preset, ...)`` on the eager-data federation."""
    with mock.patch.object(runner, "build_experiment",
                           build_eager_experiment):
        return run_method(method, preset, **run_kwargs)


#: the data axis of the parity suites: ``run(method, preset, **run_kwargs)``
on_both_federations = pytest.mark.parametrize(
    "run", [run_method, run_method_eager_data],
    ids=["lazy-fleet", "eager-data"])
