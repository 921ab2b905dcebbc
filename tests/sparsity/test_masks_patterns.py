"""Tests for sparse masks, patterns and the cost accounting."""

import numpy as np
import pytest

from repro.sparsity import (build_parameter_mask, depth_pattern,
                            download_bytes, gates_from_pattern,
                            heuristic_pattern, local_round_cost,
                            local_training_flops, magnitude_pattern,
                            masked_parameter_count, ordered_pattern,
                            pattern_from_scores, per_layer_keep_ratio,
                            random_pattern, rolling_pattern,
                            sparse_forward_flops, units_to_keep, upload_bytes,
                            validate_sparse_ratio)


class TestMaskBasics:
    def test_validate_sparse_ratio(self):
        assert validate_sparse_ratio(0.5) == 0.5
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                validate_sparse_ratio(bad)

    @pytest.mark.parametrize("n,ratio,expected", [
        (10, 0.5, 5), (10, 0.05, 1), (10, 1.0, 10), (3, 0.34, 1), (8, 0.75, 6),
    ])
    def test_units_to_keep(self, n, ratio, expected):
        assert units_to_keep(n, ratio) == expected

    def test_pattern_from_scores_keeps_top_units(self, small_mlp):
        scores = {group.layer_name: np.arange(group.n_units, dtype=float)
                  for group in small_mlp.unit_groups}
        pattern = pattern_from_scores(small_mlp, scores, 0.5)
        for group in small_mlp.unit_groups:
            mask = pattern[group.layer_name]
            keep = units_to_keep(group.n_units, 0.5)
            assert mask.sum() == keep
            # highest scores retained
            assert mask[-1] and not mask[0]

    def test_pattern_from_scores_shape_mismatch(self, small_mlp):
        scores = {group.layer_name: np.zeros(group.n_units + 1)
                  for group in small_mlp.unit_groups}
        with pytest.raises(ValueError):
            pattern_from_scores(small_mlp, scores, 0.5)

    def test_parameter_mask_zeroes_pruned_units(self, small_mlp):
        pattern = ordered_pattern(small_mlp, 0.5)
        mask = build_parameter_mask(small_mlp, pattern)
        assert set(mask) == set(small_mlp.get_parameters())
        # head params are never masked
        assert np.all(mask["head.W"] == 1.0)
        # some body entries are masked
        assert any(np.any(values == 0.0) for key, values in mask.items()
                   if not key.startswith("head."))

    def test_keep_ratio_and_per_layer(self, small_mlp):
        pattern = ordered_pattern(small_mlp, 0.5)
        ratios = per_layer_keep_ratio(pattern)
        assert all(0 < value <= 1 for value in ratios.values())
        assert 0 < np.concatenate(list(pattern.values())).mean() <= 0.6

    def test_gates_from_pattern_dtype(self, small_mlp):
        gates = gates_from_pattern(ordered_pattern(small_mlp, 0.5))
        assert all(g.dtype == np.float64 for g in gates.values())


class TestPatternStrategies:
    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75])
    def test_every_strategy_respects_ratio(self, small_cnn, ratio):
        strategies = {
            "random": random_pattern(small_cnn, ratio,
                                     rng=np.random.default_rng(1)),
            "ordered": ordered_pattern(small_cnn, ratio),
            "rolling": rolling_pattern(small_cnn, ratio, 3),
            "magnitude": magnitude_pattern(small_cnn, ratio),
        }
        for name, pattern in strategies.items():
            for group in small_cnn.unit_groups:
                kept = int(np.count_nonzero(pattern[group.layer_name]))
                assert kept == units_to_keep(group.n_units, ratio), name

    def test_ordered_pattern_is_prefix(self, small_cnn):
        pattern = ordered_pattern(small_cnn, 0.5)
        for mask in pattern.values():
            kept = np.where(mask)[0]
            np.testing.assert_array_equal(kept, np.arange(len(kept)))

    def test_rolling_pattern_moves_with_round(self, small_cnn):
        a = rolling_pattern(small_cnn, 0.5, 0)
        b = rolling_pattern(small_cnn, 0.5, 2)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_rolling_negative_round_rejected(self, small_cnn):
        with pytest.raises(ValueError):
            rolling_pattern(small_cnn, 0.5, -1)

    def test_magnitude_pattern_prefers_heavy_units(self, small_mlp):
        layer = small_mlp.layer_by_name("fc1")
        layer.params["W"][:, 0] = 10.0  # make unit 0 heavy
        pattern = magnitude_pattern(small_mlp, 0.25)
        assert pattern["fc1"][0]

    def test_depth_pattern_prunes_deepest_layers_first(self, small_mlp):
        pattern = depth_pattern(small_mlp, 0.5)
        groups = small_mlp.unit_groups
        first, last = groups[0].layer_name, groups[-1].layer_name
        assert pattern[first].mean() >= pattern[last].mean()

    def test_depth_pattern_full_ratio_keeps_all(self, small_mlp):
        pattern = depth_pattern(small_mlp, 1.0)
        assert all(mask.all() for mask in pattern.values())

    def test_heuristic_dispatch(self, small_mlp):
        for name in ("random", "ordered", "rolling", "magnitude", "depth"):
            pattern = heuristic_pattern(name, small_mlp, 0.5,
                                        rng=np.random.default_rng(0))
            assert set(pattern) == {g.layer_name for g in small_mlp.unit_groups}
        with pytest.raises(ValueError):
            heuristic_pattern("unknown", small_mlp, 0.5)


class TestAccounting:
    def test_sparse_flops_less_than_dense(self, small_cnn):
        dense = small_cnn.flops_per_example()
        sparse = sparse_forward_flops(small_cnn,
                                      pattern=ordered_pattern(small_cnn, 0.5))
        assert 0 < sparse < dense

    def test_uniform_ratio_equivalent_scaling(self, small_cnn):
        half = sparse_forward_flops(small_cnn, uniform_ratio=0.5)
        quarter = sparse_forward_flops(small_cnn, uniform_ratio=0.25)
        assert quarter < half

    def test_pattern_and_ratio_mutually_exclusive(self, small_cnn):
        with pytest.raises(ValueError):
            sparse_forward_flops(small_cnn,
                                 pattern=ordered_pattern(small_cnn, 1.0),
                                 uniform_ratio=0.5)

    def test_no_sparsity_equals_dense(self, small_cnn):
        assert sparse_forward_flops(small_cnn) == small_cnn.flops_per_example()

    def test_training_flops_scale_with_iterations(self, small_cnn):
        once = local_training_flops(small_cnn, 100, 1, 10)
        thrice = local_training_flops(small_cnn, 100, 3, 10)
        assert thrice == pytest.approx(3 * once)

    def test_training_flops_invalid_args(self, small_cnn):
        with pytest.raises(ValueError):
            local_training_flops(small_cnn, 100, -1, 10)
        with pytest.raises(ValueError):
            local_training_flops(small_cnn, 100, 1, 0)

    def test_masked_parameter_count(self, small_cnn):
        total = masked_parameter_count(small_cnn)
        half = masked_parameter_count(small_cnn, ordered_pattern(small_cnn, 0.5))
        assert half < total == small_cnn.num_parameters

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10", "cifar100",
                                         "tinyimagenet", "reddit"])
    def test_masked_parameter_count_is_the_expanded_count(self, dataset):
        """The per-layer count equals the nonzeros of the expanded
        parameter masks (the count before it stopped building them) on
        every zoo backbone, for patterns keeping 0-100 % of the units and
        leaving some layers out."""
        from repro.models import build_model_for_dataset

        def expanded_count(model, pattern):
            mask = model.expand_unit_masks(
                {name: np.asarray(values, dtype=np.float64)
                 for name, values in pattern.items()})
            return int(sum(np.count_nonzero(values)
                           for values in mask.values()))

        model = build_model_for_dataset(dataset)
        rng = np.random.default_rng(7)
        layers = [group.layer_name for group in model.unit_groups]
        ratios = [0.0, 1.0, *rng.random(48)]
        for index, ratio in enumerate(ratios):
            pattern = {name: (rng.random(model.layer_by_name(name).n_units)
                              < ratio).astype(np.float64)
                       for name in layers
                       if index < 2 or rng.random() < 0.8}
            count = masked_parameter_count(model, pattern)
            assert type(count) is int
            assert count == expanded_count(model, pattern)
        assert masked_parameter_count(
            model, {name: np.zeros(model.layer_by_name(name).n_units)
                    for name in layers}) < model.num_parameters

    def test_upload_and_download_bytes(self, small_cnn):
        dense_up = upload_bytes(small_cnn)
        sparse_up = upload_bytes(small_cnn, ordered_pattern(small_cnn, 0.5))
        assert sparse_up < dense_up
        assert download_bytes(small_cnn) == small_cnn.num_parameters * 4

    def test_local_round_cost_bundle(self, small_cnn):
        cost = local_round_cost(small_cnn, 50, 4, 10,
                                pattern=ordered_pattern(small_cnn, 0.5))
        assert cost.flops > 0
        assert cost.upload_bytes > 0
        assert cost.download_bytes == download_bytes(small_cnn)
        scaled = cost.scaled(2.0)
        assert scaled.flops == pytest.approx(2 * cost.flops)
