"""Experiment presets: per-dataset configuration of the paper's evaluation.

The paper runs 100 communication rounds with 50-100 clients and full-size
backbones.  The presets below keep the same *structure* (five datasets, five
capability tiers, pathological non-IID partitions, SGD with dataset-specific
learning rates) at a scale where every experiment finishes on a CPU in
seconds to minutes.  Every field can be overridden through
:func:`scaled`, which tests and benchmarks use to shrink runs further and
paper-scale replication uses to enlarge them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Optional

from ..data import FederatedDataset, FederationSpec
from ..federated import FederatedConfig, FleetConfig
from ..models import build_model_for_dataset
from ..nn.model import Sequential
from ..parallel.faults import build_fault_plan
from ..scenarios import build_scenario
from ..systems import VirtualDeviceFleet
from ..systems.devices import HETEROGENEITY_PRESETS

#: the five datasets of the paper's evaluation
DATASETS = ("mnist", "cifar10", "cifar100", "tinyimagenet", "reddit")


@dataclass(frozen=True)
class ExperimentPreset:
    """Everything needed to instantiate one dataset's federated experiment.

    Fields named like a :class:`~repro.federated.FederatedConfig` field are
    copied onto it unchanged (see that class for what they mean), except
    ``scenario``: it names the scenario ``build_experiment`` builds.  The
    owners of what the fields feed check them at construction.
    """

    dataset: str
    num_clients: int = 16
    examples_per_client: int = 60
    classes_per_client: int = 2
    num_rounds: int = 20
    clients_per_round: int = 4
    local_iterations: int = 8
    batch_size: int = 16
    learning_rate: float = 0.1
    clip_norm: Optional[float] = 5.0
    heterogeneity: str = "high"
    dynamic_resources: bool = False
    style_scale: float = 2.5
    #: named system-heterogeneity scenario (see ``repro.scenarios``);
    #: "ideal" reproduces the paper's every-client-finishes assumption
    scenario: str = "ideal"
    aggregation: str = "sync"
    codec: str = "dense"
    #: personalized-evaluation cap (``None`` = every client, the paper's
    #: metric; large-fleet presets sample a fixed deterministic subset)
    eval_clients: Optional[int] = None
    #: named deterministic fault plan (``repro.parallel.faults``), seeded
    #: from the run seed; None runs fault-free.  Cache-keyed like the codec.
    fault_plan: Optional[str] = None
    task_timeout: Optional[float] = None
    max_retries: int = 0
    batch_cohort: bool = False
    reducer_shards: int = 1
    seed: int = 0
    extra_config: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.heterogeneity not in HETEROGENEITY_PRESETS:
            raise ValueError(
                f"unknown heterogeneity level {self.heterogeneity!r}")
        self._federation()
        self._config(scenario=None, faults=None)

    def _federation(self) -> FederationSpec:
        return FederationSpec(
            name=self.dataset.lower(), num_clients=self.num_clients,
            classes_per_client=self.classes_per_client,
            examples_per_client=self.examples_per_client,
            style_scale=self.style_scale, seed=self.seed)

    def _config(self, **resolved) -> FederatedConfig:
        return FederatedConfig(
            **{name: getattr(self, name) for name in _COPIED},
            fleet=FleetConfig(eval_clients=self.eval_clients),
            extra=dict(self.extra_config), **resolved)


#: the preset fields ``build_experiment`` copies onto the same-named config
#: field; ``scenario`` is the one shared name it resolves instead
_COPIED = frozenset(
    {preset_field.name for preset_field in fields(ExperimentPreset)}
    & {config_field.name for config_field in fields(FederatedConfig)}
) - {"scenario"}


DEFAULT_PRESETS: Dict[str, ExperimentPreset] = {
    "mnist": ExperimentPreset(dataset="mnist", classes_per_client=2),
    "cifar10": ExperimentPreset(dataset="cifar10", classes_per_client=2),
    "cifar100": ExperimentPreset(dataset="cifar100", classes_per_client=4),
    "tinyimagenet": ExperimentPreset(dataset="tinyimagenet", classes_per_client=8),
    # next-word prediction needs a larger learning rate, as in the paper
    # (they use 8 with gradient clipping for the LSTM model)
    "reddit": ExperimentPreset(dataset="reddit", learning_rate=1.5,
                               examples_per_client=80, classes_per_client=2),
    # cross-device-scale virtual fleets: construction is O(cohort), so the
    # fleet size costs (almost) nothing — only the dispatched cohorts and
    # the capped evaluation subset are ever materialized.  With 1-2 local
    # iterations per first-time participant the per-update fixed cost
    # dominates the client step, so these two train their cohorts stacked
    "mnist-100k": ExperimentPreset(
        dataset="mnist", num_clients=100_000, examples_per_client=24,
        num_rounds=3, clients_per_round=32, local_iterations=2,
        eval_clients=64, batch_cohort=True),
    "mnist-1m": ExperimentPreset(
        dataset="mnist", num_clients=1_000_000, examples_per_client=16,
        num_rounds=2, clients_per_round=16, local_iterations=1,
        eval_clients=32, batch_cohort=True),
}


def preset_for(dataset: str) -> ExperimentPreset:
    """The preset for a paper dataset or a named large-fleet variant."""
    key = dataset.lower()
    if key not in DEFAULT_PRESETS:
        raise ValueError(f"unknown dataset or preset {dataset!r}; choose "
                         f"from {sorted(DEFAULT_PRESETS)}")
    return DEFAULT_PRESETS[key]


def scaled(preset: ExperimentPreset, **overrides) -> ExperimentPreset:
    """A copy of ``preset`` with the given fields replaced."""
    return replace(preset, **overrides)


def build_experiment(preset: ExperimentPreset
                     ) -> tuple[FederatedDataset, Callable[[], Sequential],
                                FederatedConfig, VirtualDeviceFleet]:
    """The virtual dataset, model builder, config and virtual device fleet.

    Unknown ``scenario`` / ``aggregation`` / ``codec`` / ``fault_plan``
    names are rejected by their owners below (``build_scenario``,
    ``FederatedConfig``, ``build_fault_plan``) with an "unknown ...; choose
    from ..." ``ValueError``.
    """
    dataset = preset._federation().build()
    config = preset._config(
        scenario=build_scenario(preset.scenario,
                                num_clients=preset.num_clients,
                                num_rounds=preset.num_rounds,
                                seed=preset.seed),
        faults=(build_fault_plan(preset.fault_plan, seed=preset.seed)
                if preset.fault_plan is not None else None))
    fleet = VirtualDeviceFleet(
        preset.num_clients,
        levels=HETEROGENEITY_PRESETS[preset.heterogeneity],
        dynamic=preset.dynamic_resources, seed=preset.seed)

    def model_builder() -> Sequential:
        return build_model_for_dataset(preset.dataset, seed=preset.seed)

    return dataset, model_builder, config, fleet
