"""Every number a run is configured through fails at construction, or runs.

``repro.util`` owns the one meaning of a valid number (finite, inside its
interval, a real number and not a ``bool`` or ``str``).  A seeded fuzzer
(hypothesis, derandomised, a fixed example budget) draws each numeric field
of :class:`FederatedConfig` and :class:`ExperimentPreset`, and each registry
strategy's constructor kwargs (read with ``inspect.signature``), from the
boundary values below plus wrong lengths for sequence kwargs.  Every draw
must either raise ``ValueError`` / ``TypeError`` at construction, with a
message naming a field it changed, or complete a one-round federation
whose history is finite.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import STRATEGY_REGISTRY, available_strategies, build_strategy
from repro.core import FedLPS
from repro.experiments import ExperimentPreset, build_experiment, preset_for, scaled
from repro.federated import FederatedConfig, FederatedTrainer

BOUNDARY = (0, -1, math.nan, math.inf, -math.inf, 1e300, "x")

# a huge but valid input (1e300) overflows float64 inside training; what
# is checked is that the run completes and its history stays finite
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: a one-round federation small enough to run per example (~10 ms)
TINY = scaled(preset_for("mnist"), num_clients=4, examples_per_client=8,
              num_rounds=1, clients_per_round=2, local_iterations=1,
              batch_size=4)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=40,
                suppress_health_check=[HealthCheck.too_slow])

NUMERIC = {"int", "float", "Optional[int]", "Optional[float]"}


def numeric_fields(cls):
    return {field.name: field.default for field in fields(cls)
            if field.type in NUMERIC}


def perturbations(defaults, *, max_size=2):
    """A few of ``defaults``' names, each mapped to a default or boundary
    value; a sequence default gets sequences of any length (empty too) of
    its own or boundary items."""
    def values(default):
        if not isinstance(default, tuple):
            return st.sampled_from((default,) + BOUNDARY)
        return st.lists(st.sampled_from(default + BOUNDARY),
                        max_size=len(default) + 2).map(tuple)
    names = st.lists(st.sampled_from(sorted(defaults)), min_size=1,
                     max_size=max_size, unique=True)
    return names.flatmap(lambda chosen: st.fixed_dictionaries(
        {name: values(defaults[name]) for name in chosen}))


def changed(draw, defaults):
    return [name for name, value in draw.items()
            if not value == defaults[name]]


def assert_names_a_field(error, names):
    assert isinstance(error, (ValueError, TypeError)), repr(error)
    assert any(name in str(error) for name in names), (names, str(error))


def assert_finite(value, where="history"):
    if isinstance(value, dict):
        for key, item in value.items():
            assert_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            assert_finite(item, f"{where}[{index}]")
    elif isinstance(value, float):
        assert math.isfinite(value), where


def run_one_round(strategy, preset=TINY, config=None):
    dataset, model_builder, built, fleet = build_experiment(preset)
    trainer = FederatedTrainer(strategy, dataset, model_builder,
                               config=config or built, fleet=fleet)
    history = trainer.run()
    assert len(history.records) == preset.num_rounds
    assert_finite(history.to_dict())


CONFIG_FIELDS = numeric_fields(FederatedConfig)
PRESET_FIELDS = numeric_fields(ExperimentPreset)


def test_the_fuzzed_fields_are_the_numeric_ones():
    assert {"learning_rate", "momentum", "clip_norm", "cost_alpha",
            "task_timeout", "seed"} <= set(CONFIG_FIELDS)
    assert {"num_clients", "style_scale", "eval_clients",
            "learning_rate"} <= set(PRESET_FIELDS)


@FUZZ
@given(draw=perturbations(CONFIG_FIELDS))
def test_config_fields_fail_at_construction_or_run(draw):
    base = build_experiment(TINY)[2]
    try:
        config = replace(base, **draw)
    except Exception as error:  # noqa: BLE001 - the check is on its kind
        assert_names_a_field(error, changed(draw, CONFIG_FIELDS))
        return
    run_one_round(FedLPS(), config=config)


@FUZZ
@given(draw=perturbations(PRESET_FIELDS))
def test_preset_fields_fail_at_construction_or_run(draw):
    try:
        preset = scaled(TINY, **draw)
    except Exception as error:  # noqa: BLE001 - the check is on its kind
        assert_names_a_field(error, changed(draw, PRESET_FIELDS))
        return
    run_one_round(FedLPS(), preset)


def constructor_kwargs(method):
    """``{name: default}`` of a registry factory's keyword arguments; a
    FedLPS variant that forwards ``**kwargs`` takes FedLPS's, less the
    ratio policy it fixes."""
    factory = STRATEGY_REGISTRY[method]
    kwargs = {}
    for parameter in inspect.signature(factory).parameters.values():
        if parameter.kind is parameter.VAR_KEYWORD:
            kwargs.update({name: value for name, value
                           in constructor_kwargs("fedlps").items()
                           if name != "ratio_policy"})
        elif parameter.kind is not parameter.VAR_POSITIONAL:
            kwargs[parameter.name] = parameter.default
    return kwargs


@pytest.mark.parametrize("method", [method for method in available_strategies()
                                    if constructor_kwargs(method)])
@settings(FUZZ, max_examples=12)
@given(data=st.data())
def test_strategy_kwargs_fail_at_construction_or_run(method, data):
    defaults = constructor_kwargs(method)
    draw = data.draw(perturbations(defaults))
    try:
        strategy = build_strategy(method, **draw)
    except Exception as error:  # noqa: BLE001 - the check is on its kind
        assert_names_a_field(error, changed(draw, defaults))
        return
    run_one_round(strategy)


# ------------------------------------------------------------------ defects
# each of these used to construct (and run, or fail inside the run)

@pytest.mark.parametrize("kwargs,field", [
    ({"rho": math.nan}, "rho"),
    ({"rho": -1.0}, "rho"),
    ({"accuracy_threshold": math.nan}, "accuracy_threshold"),
    ({"num_initial_partitions": 0}, "num_initial_partitions"),
])
def test_fedlps_pucbv_knobs_fail_at_construction(kwargs, field):
    with pytest.raises(ValueError, match=field):
        FedLPS(**kwargs)


@pytest.mark.parametrize("method,kwargs,field", [
    ("fedprox", {"mu": math.nan}, "mu"),
    ("ditto", {"personal_mu": math.nan}, "personal_mu"),
    ("fedrep", {"head_iterations": -1}, "head_iterations"),
    ("fedrep", {"head_iterations": 0}, "head_iterations"),
])
def test_baseline_knobs_fail_at_construction(method, kwargs, field):
    with pytest.raises(ValueError, match=field):
        build_strategy(method, **kwargs)


@pytest.mark.parametrize("value", [math.nan, -1.0])
def test_preset_style_scale_fails_at_construction(value):
    with pytest.raises(ValueError, match="style_scale"):
        scaled(TINY, style_scale=value)

