"""Tests for the experiment harness (presets, runner, tables, figures)."""

import json
from dataclasses import fields

import pytest

from repro.experiments import (DATASETS, ExperimentPreset, ResultCache,
                               accuracy_vs_flops, build_experiment, format_rows,
                               heterogeneity_sweep, noniid_level_sweep,
                               pattern_ratio_sweep, preset_for, run_grid,
                               run_method, run_methods, scaled, summarize,
                               table1_accuracy_flops, table2_ablation,
                               time_to_accuracy)
from repro.federated import FederatedConfig

TINY = {"num_clients": 5, "examples_per_client": 24, "num_rounds": 2,
        "clients_per_round": 2, "local_iterations": 2, "batch_size": 8,
        "seed": 1}


class TestPresets:
    def test_preset_for_every_dataset(self):
        for dataset in DATASETS:
            preset = preset_for(dataset)
            assert preset.dataset == dataset

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            preset_for("imagenet")

    def test_scaled_overrides_fields(self):
        preset = scaled(preset_for("mnist"), num_rounds=3)
        assert preset.num_rounds == 3
        assert preset_for("mnist").num_rounds != 3 or True

    def test_build_experiment_components(self):
        preset = scaled(preset_for("mnist"), **TINY)
        dataset, model_builder, config, fleet = build_experiment(preset)
        assert dataset.num_clients == TINY["num_clients"]
        assert config.num_rounds == TINY["num_rounds"]
        assert len(fleet) == TINY["num_clients"]
        assert model_builder().num_parameters > 0

    def test_invalid_heterogeneity_level(self):
        with pytest.raises(ValueError, match="heterogeneity"):
            scaled(preset_for("mnist"), heterogeneity="extreme")

    @pytest.mark.parametrize("field", ["scenario", "aggregation", "codec",
                                       "fault_plan"])
    def test_unknown_names_rejected_by_their_owners(self, field):
        # build_experiment keeps no name check of its own: build_scenario,
        # FederatedConfig (already when the preset is built) and
        # build_fault_plan reject these
        with pytest.raises(ValueError, match="unknown .*'nope'.*choose from"):
            build_experiment(scaled(preset_for("mnist"), **{field: "nope"}))


#: preset fields that shape the federation (dataset, fleet) or name an
#: object ``build_experiment`` resolves; every other field must be copied
#: onto the FederatedConfig field of the same name
NOT_COPIED_BY_NAME = {"dataset", "num_clients", "examples_per_client",
                      "classes_per_client", "heterogeneity",
                      "dynamic_resources", "style_scale", "fault_plan",
                      "eval_clients", "extra_config"}

#: a non-default value for each field a type alone cannot invent one for
NAMED_VALUES = {"scenario": "flaky", "aggregation": "fedbuff",
                "codec": "sparse", "task_timeout": 30.0}


def _non_default(field):
    if field.name in NAMED_VALUES:
        return NAMED_VALUES[field.name]
    if isinstance(field.default, bool):
        return not field.default
    if isinstance(field.default, float):
        return field.default * 2
    return field.default + 1


class TestByName:
    """``build_experiment`` copies same-named fields onto the config, so a
    rename on either side must fail here rather than silently drop a knob."""

    COPIED = [field for field in fields(ExperimentPreset)
              if field.name not in NOT_COPIED_BY_NAME]

    def test_every_copied_field_is_a_config_field(self):
        config_fields = {field.name for field in fields(FederatedConfig)}
        assert {field.name for field in self.COPIED} <= config_fields

    @pytest.mark.parametrize("field", COPIED, ids=lambda field: field.name)
    def test_non_default_value_reaches_the_config(self, field):
        value = _non_default(field)
        assert value != field.default
        preset = scaled(preset_for("mnist"), **{field.name: value})
        _, _, config, _ = build_experiment(preset)
        arrived = getattr(config, field.name)
        if field.name == "scenario":  # resolved from its name
            arrived = arrived.name
        assert arrived == value

    def test_resolved_fields_reach_the_config(self):
        preset = scaled(preset_for("mnist"), fault_plan="chaos",
                        eval_clients=3, extra_config={"alpha": 0.5})
        _, _, config, _ = build_experiment(preset)
        assert config.faults is not None
        assert config.fleet.eval_clients == 3
        assert config.extra == {"alpha": 0.5}


class TestRunner:
    def test_run_method_returns_history(self):
        preset = scaled(preset_for("mnist"), **TINY)
        history = run_method("fedavg", preset)
        assert len(history) == TINY["num_rounds"]
        summary = summarize(history)
        assert set(summary) == {"accuracy", "best_accuracy", "total_flops",
                                "total_time_seconds", "total_upload_bytes",
                                "wire_upload_bytes",
                                "sim_time_seconds", "time_to_accuracy_seconds",
                                "dropped_clients", "straggler_drops",
                                "mean_staleness"}
        # dense-codec runs produce no wire report
        assert summary["wire_upload_bytes"] is None
        # without a scenario the simulated clock equals the Eq. 18 round time
        assert summary["sim_time_seconds"] == pytest.approx(
            summary["total_time_seconds"])

    def test_run_methods_multiple(self):
        preset = scaled(preset_for("mnist"), **TINY)
        histories = run_methods(["fedavg", "fedlps"], preset)
        assert set(histories) == {"fedavg", "fedlps"}

    def test_run_grid_codec_axis_matches_run_method(self):
        grid = run_grid(["fedavg", "fedlps"], ["mnist"],
                        {"codec": ["dense", "sparse"]},
                        overrides={**TINY, "codec": "int8"})
        assert list(grid) == [("fedavg", "mnist", "dense"),
                              ("fedavg", "mnist", "sparse"),
                              ("fedlps", "mnist", "dense"),
                              ("fedlps", "mnist", "sparse")]
        for (method, dataset, codec), history in grid.items():
            preset = scaled(preset_for(dataset), **TINY, codec=codec)
            assert history.to_dict() == run_method(method, preset).to_dict()

    def test_format_rows_renders_all_columns(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}]
        text = format_rows(rows, ["a", "b"])
        assert "x" in text and "y" in text and len(text.splitlines()) == 4


class TestTables:
    def test_table1_rows(self):
        rows = table1_accuracy_flops(datasets=["mnist"],
                                     methods=["fedavg", "fedlps"],
                                     overrides=TINY)
        assert len(rows) == 2
        assert {row["method"] for row in rows} == {"fedavg", "fedlps"}
        assert all(row["total_flops"] > 0 for row in rows)

    def test_table2_rows(self):
        rows = table2_ablation(dataset="mnist", overrides=TINY)
        assert len(rows) == 5
        assert {row["variant"] for row in rows} == {
            "FLST", "RCR-Fix", "P-UCBV-Fix", "RCR-Dyn", "P-UCBV-Dyn"}


class TestFigures:
    def test_accuracy_vs_flops_series(self):
        series = accuracy_vs_flops("mnist", methods=("fedavg", "fedlps"),
                                   overrides=TINY)
        assert set(series) == {"fedavg", "fedlps"}
        for points in series.values():
            assert len(points) == TINY["num_rounds"]
            flops = [p["flops"] for p in points]
            assert flops == sorted(flops)

    def test_time_to_accuracy_rows(self):
        rows = time_to_accuracy(datasets=("mnist",), methods=("fedavg", "fedlps"),
                                target_fraction=0.5, overrides=TINY)
        assert len(rows) == 2
        assert all("time_to_accuracy_seconds" in row for row in rows)

    def test_noniid_sweep_rows(self):
        rows = noniid_level_sweep(dataset="mnist", missing_classes=(6, 8),
                                  methods=("fedlps",), overrides=TINY)
        assert len(rows) == 2
        assert {row["missing_classes"] for row in rows} == {6, 8}

    def test_noniid_levels_count_the_dataset_classes(self, tmp_path):
        """Level 2 of Tiny-ImageNet's 40 classes trains 38 per client."""
        cache = ResultCache(tmp_path)
        rows = noniid_level_sweep(dataset="tinyimagenet", missing_classes=(2,),
                                  methods=("fedavg",), overrides=TINY,
                                  cache=cache)
        assert [row["missing_classes"] for row in rows] == [2]
        (entry,) = tmp_path.glob("*.json")
        spec = json.loads(entry.read_text())["spec"]
        assert spec["preset"]["classes_per_client"] == 38

    def test_noniid_levels_reject_a_dataset_without_classes(self):
        with pytest.raises(ValueError, match="'reddit'"):
            noniid_level_sweep(dataset="reddit", missing_classes=(2,),
                               methods=("fedavg",), overrides=TINY)

    def test_heterogeneity_sweep_rows(self):
        rows = heterogeneity_sweep(dataset="mnist", levels=("low", "high"),
                                   methods=("fedavg",), overrides=TINY)
        assert len(rows) == 2
        assert {row["heterogeneity"] for row in rows} == {"low", "high"}

    def test_pattern_ratio_sweep_rows(self):
        rows = pattern_ratio_sweep(dataset="mnist", ratios=(0.4, 0.8),
                                   patterns=("learnable", "ordered"),
                                   overrides=TINY)
        assert len(rows) == 4
        flops_04 = next(r["total_flops"] for r in rows
                        if r["sparse_ratio"] == 0.4 and r["pattern"] == "ordered")
        flops_08 = next(r["total_flops"] for r in rows
                        if r["sparse_ratio"] == 0.8 and r["pattern"] == "ordered")
        assert flops_08 > flops_04
