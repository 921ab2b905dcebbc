"""Tests for local training, aggregation rules and evaluation."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.federated import (aggregate_residuals, average_personalized_accuracy,
                             client_batch_schedule, evaluate_params, fedavg,
                             masked_average, staleness_weighted_average,
                             train_cohort_batched)
from repro.models import build_mlp
from repro.nn.params import copy_params, l2_distance, multiply, subtract
from repro.sparsity import build_parameter_mask, ordered_pattern


def toy_dataset(n=40, dim=12, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    w = rng.standard_normal((dim, classes))
    return Dataset(x, np.argmax(x @ w, axis=1))


class TestClientBatchSchedule:
    def test_yields_requested_number_of_batches(self):
        batches = client_batch_schedule(10, 4, 7, rng=np.random.default_rng(0))
        assert len(batches) == 7
        assert all(len(batch) == 4 and batch.max() < 10 for batch in batches)

    def test_zero_iterations(self):
        assert client_batch_schedule(10, 4, 0, rng=np.random.default_rng(0)) == []


class TestTrainOneClient:
    def test_training_improves_accuracy(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(60)
        result = train_cohort_batched(model, [model.get_parameters()], [ds],
                                      iterations=30, batch_size=16,
                                      learning_rate=0.3,
                                      rngs=[np.random.default_rng(0)])[0]
        assert result.train_accuracy > 0.4
        assert result.examples_seen == 30 * 16

    def test_prox_keeps_parameters_closer_to_center(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(60)
        start = model.get_parameters()
        free = train_cohort_batched(model, [start], [ds], iterations=20,
                                    batch_size=16, learning_rate=0.3,
                                    rngs=[np.random.default_rng(0)])[0]
        anchored = train_cohort_batched(model, [start], [ds], iterations=20,
                                        batch_size=16, learning_rate=0.3,
                                        prox_mu=1.0,
                                        rngs=[np.random.default_rng(0)])[0]
        assert l2_distance(anchored.params, start) < l2_distance(free.params, start)

    def test_param_mask_keeps_masked_entries_zero(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(40)
        pattern = ordered_pattern(model, 0.5)
        mask = build_parameter_mask(model, pattern)
        result = train_cohort_batched(model, [model.get_parameters()], [ds],
                                      iterations=10, batch_size=8,
                                      learning_rate=0.2, patterns=[pattern],
                                      param_masks=[mask],
                                      rngs=[np.random.default_rng(0)])[0]
        for key, values in result.params.items():
            assert np.all(values[mask[key] == 0.0] == 0.0)

    def test_trainable_keys_freeze_other_parameters(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(40)
        start = model.get_parameters()
        result = train_cohort_batched(model, [start], [ds], iterations=5,
                                      batch_size=8, learning_rate=0.2,
                                      trainable_keys=["head.W", "head.b"],
                                      rngs=[np.random.default_rng(0)])[0]
        for key in start:
            if key.startswith("head."):
                continue
            np.testing.assert_array_equal(result.params[key], start[key])

    def test_gates_removed_after_training(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(40)
        pattern = ordered_pattern(model, 0.5)
        train_cohort_batched(model, [model.get_parameters()], [ds],
                             iterations=2, batch_size=8, learning_rate=0.1,
                             patterns=[pattern],
                             rngs=[np.random.default_rng(0)])
        assert all(layer.unit_gate is None for layer in model.layers)


class TestAggregation:
    def setup_method(self):
        self.a = {"w": np.array([1.0, 1.0]), "b": np.array([0.0])}
        self.b = {"w": np.array([3.0, 3.0]), "b": np.array([2.0])}

    def test_fedavg_weighted_mean(self):
        merged = fedavg([self.a, self.b], [1.0, 3.0])
        np.testing.assert_allclose(merged["w"], [2.5, 2.5])

    def test_residual_aggregation_matches_fedavg_with_full_masks(self):
        global_params = {"w": np.array([2.0, 2.0]), "b": np.array([1.0])}
        residuals = [subtract(global_params, self.a),
                     subtract(global_params, self.b)]
        merged = aggregate_residuals(global_params, residuals, [1.0, 1.0])
        expected = fedavg([self.a, self.b], [1.0, 1.0])
        for key in merged:
            np.testing.assert_allclose(merged[key], expected[key])

    def test_residual_aggregation_with_masks_keeps_global_elsewhere(self):
        global_params = {"w": np.array([2.0, 2.0])}
        local = {"w": np.array([0.0, 5.0])}
        mask = {"w": np.array([0.0, 1.0])}
        residual = multiply(subtract(global_params, local), mask)
        merged = aggregate_residuals(global_params, [residual], [1.0])
        np.testing.assert_allclose(merged["w"], [2.0, 5.0])

    def test_residual_aggregation_empty_returns_global(self):
        global_params = {"w": np.array([2.0])}
        merged = aggregate_residuals(global_params, [], [])
        np.testing.assert_allclose(merged["w"], [2.0])

    def test_masked_average_only_covered_entries_change(self):
        global_params = {"w": np.array([0.0, 0.0, 0.0])}
        updates = [{"w": np.array([2.0, 2.0, 2.0])}]
        masks = [{"w": np.array([1.0, 0.0, 1.0])}]
        merged = masked_average(global_params, updates, masks)
        np.testing.assert_allclose(merged["w"], [2.0, 0.0, 2.0])

    def test_masked_average_multiple_clients(self):
        global_params = {"w": np.zeros(2)}
        updates = [{"w": np.array([2.0, 0.0])}, {"w": np.array([4.0, 8.0])}]
        masks = [{"w": np.array([1.0, 0.0])}, {"w": np.array([1.0, 1.0])}]
        merged = masked_average(global_params, updates, masks)
        np.testing.assert_allclose(merged["w"], [3.0, 8.0])

    def test_masked_average_validates_lengths(self):
        with pytest.raises(ValueError):
            masked_average({"w": np.zeros(1)}, [{"w": np.zeros(1)}], [])

    def test_staleness_weighted_average_discounts_old_updates(self):
        fresh = {"w": np.array([0.0])}
        stale = {"w": np.array([10.0])}
        merged = staleness_weighted_average(
            [(fresh, 1.0, 0), (stale, 1.0, 2)], decay=0.5)
        # stale update gets weight 0.25 -> mean = 10 * 0.25 / 1.25 = 2
        np.testing.assert_allclose(merged["w"], [2.0])

    def test_staleness_negative_rejected(self):
        with pytest.raises(ValueError):
            staleness_weighted_average([({"w": np.zeros(1)}, 1.0, -1)])


class TestEvaluation:
    def test_evaluate_params_returns_loss_and_accuracy(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(30)
        result = evaluate_params(model, model.get_parameters(), ds)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["loss"] > 0.0

    def test_evaluate_params_empty_dataset_rejected(self):
        model = build_mlp(12, [16], 4, seed=0)
        empty = Dataset(np.zeros((0, 12)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate_params(model, model.get_parameters(), empty)

    def test_average_personalized_accuracy(self):
        model = build_mlp(12, [16], 4, seed=0)
        params = model.get_parameters()
        test_sets = {0: toy_dataset(20, seed=1), 1: toy_dataset(20, seed=2)}
        value = average_personalized_accuracy(
            model, {0: params, 1: copy_params(params)}, test_sets)
        assert 0.0 <= value <= 1.0
        with pytest.raises(ValueError):
            average_personalized_accuracy(model, {}, test_sets)
