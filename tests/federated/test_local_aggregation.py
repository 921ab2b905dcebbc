"""Tests for local training, aggregation rules and evaluation."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.federated import (aggregate_residuals, client_batch_schedule,
                             evaluate_params, fedavg, masked_average,
                             train_cohort_batched)
from repro.models import build_lstm_lm
from repro.nn.params import multiply, subtract
from repro.sparsity import build_parameter_mask, ordered_pattern

from mlp import build_mlp


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

        def drift(params):
            return sum(np.sum((params[key] - start[key]) ** 2) for key in start)

        assert drift(anchored.params) < drift(free.params)

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


class TestEvaluation:
    def test_evaluate_params_returns_accuracy(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(30)
        result = evaluate_params(model, model.get_parameters(), ds)
        assert type(result) is float
        assert 0.0 <= result <= 1.0

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_evaluate_params_is_the_fraction_predicted_right(self,
                                                             batch_size):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(30)
        params = model.get_parameters()
        want = np.mean(np.argmax(model.forward(ds.x, train=False), axis=1)
                       == ds.y)
        got = evaluate_params(model, params, ds, batch_size=batch_size)
        assert got == pytest.approx(want, abs=1e-12)

    def test_evaluate_params_on_token_windows(self):
        model = build_lstm_lm(9, embed_dim=4, hidden_dim=5, seq_len=3, seed=0)
        rng = np.random.default_rng(0)
        ds = Dataset(rng.integers(0, 9, size=(11, 3)),
                     rng.integers(0, 9, size=11))
        params = model.get_parameters()
        want = np.mean(np.argmax(model.forward(ds.x, train=False), axis=1)
                       == ds.y)
        assert evaluate_params(model, params, ds, batch_size=4) == \
            pytest.approx(want, abs=1e-12)

    def test_evaluate_params_removes_the_pattern_gates(self):
        model = build_mlp(12, [16], 4, seed=0)
        ds = toy_dataset(30)
        params = model.get_parameters()
        ungated = evaluate_params(model, params, ds)
        evaluate_params(model, params, ds,
                        pattern=ordered_pattern(model, 0.25))
        assert all(getattr(layer, "unit_gate", None) is None
                   for layer in model.layers)
        assert evaluate_params(model, params, ds) == ungated

    def test_evaluate_params_empty_dataset_rejected(self):
        model = build_mlp(12, [16], 4, seed=0)
        empty = Dataset(np.zeros((0, 12)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate_params(model, model.get_parameters(), empty)
