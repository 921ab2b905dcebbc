"""Tests for the importance indicator, FedLPS losses and learnable sparse training."""

import numpy as np
import pytest

from repro.core import (ImportanceIndicator, accuracy_utility,
                        initialize_importance,
                        learnable_sparse_training_cohort, utility_gain)
from repro.core.importance import smoothed_targets, smoothed_unit_magnitudes
from repro.nn import Arena
from repro.data import Dataset
from repro.models import build_mlp
from repro.nn.params import l2_norm
from repro.sparsity import pattern_keep_ratio, units_to_keep


def toy_dataset(n=60, dim=12, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    w = rng.standard_normal((dim, classes))
    return Dataset(x, np.argmax(x @ w, axis=1))


class TestImportanceIndicator:
    def test_initialize_shapes(self, small_mlp):
        importance = initialize_importance(small_mlp, seed=0)
        assert importance.total_units == small_mlp.total_units
        for group in small_mlp.unit_groups:
            assert importance.scores[group.layer_name].shape == (group.n_units,)

    def test_smoothed_magnitudes_in_unit_interval(self, small_mlp):
        targets = smoothed_unit_magnitudes(small_mlp)
        for values in targets.values():
            assert np.all(values > 0.0) and np.all(values < 1.0)

    def test_copy_is_independent(self, small_mlp):
        importance = initialize_importance(small_mlp, seed=0)
        clone = importance.copy()
        clone.scores["fc1"][0] = 99.0
        assert importance.scores["fc1"][0] != 99.0

    def test_pattern_respects_ratio(self, small_mlp):
        importance = initialize_importance(small_mlp, seed=0)
        pattern = importance.pattern(small_mlp, 0.5)
        for group in small_mlp.unit_groups:
            assert pattern[group.layer_name].sum() == units_to_keep(group.n_units, 0.5)

    def test_targets_land_in_the_given_arena(self, small_mlp):
        magnitudes = small_mlp.unit_weight_magnitudes()
        fresh = smoothed_targets(magnitudes)
        assert isinstance(fresh, Arena) and list(fresh) == list(magnitudes)
        out = fresh.like()
        assert smoothed_targets(Arena.of(magnitudes), out=out) is out
        np.testing.assert_array_equal(out.flat, fresh.flat)


class TestCoreLosses:
    def test_utility_function_properties(self):
        assert accuracy_utility(0.0) == pytest.approx(0.0)
        assert accuracy_utility(90.0) > accuracy_utility(10.0)
        # marginal gains shrink near saturation
        early = utility_gain(20.0, 10.0)
        late = utility_gain(99.0, 89.0)
        assert early > late
        with pytest.raises(ValueError):
            accuracy_utility(120.0)


class TestLearnableSparseTraining:
    def setup_method(self):
        self.model = build_mlp(12, [16, 8], 4, seed=0)
        self.dataset = toy_dataset()
        self.importance = initialize_importance(self.model, seed=0)

    def _run(self, **kwargs):
        defaults = dict(sparse_ratio=0.5, iterations=8, batch_size=10,
                        learning_rate=0.2, prox_mu=0.05, importance_lambda=0.1,
                        rng=np.random.default_rng(0))
        defaults.update(kwargs)
        ratio, rng = defaults.pop("sparse_ratio"), defaults.pop("rng")
        return learnable_sparse_training_cohort(
            self.model, self.model.get_parameters(), [self.importance],
            [self.dataset], sparse_ratios=[ratio], rngs=[rng], **defaults)[0]

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            self._run(sparse_ratio=0.0)

    @pytest.mark.parametrize("iterations", [8, 0])
    @pytest.mark.parametrize("rate", [0.0, -0.1])
    def test_non_positive_importance_rate_is_rejected_untouched(self, rate,
                                                                iterations):
        before = self.model.get_parameters()
        with pytest.raises(ValueError, match="importance_learning_rate"):
            self._run(importance_learning_rate=rate, iterations=iterations)
        for key, value in self.model.get_parameters().items():
            np.testing.assert_array_equal(value, before[key])

    def test_regularizer_pulls_scores_towards_targets(self):
        targets = smoothed_unit_magnitudes(self.model)
        self.importance = ImportanceIndicator(
            {name: values + 1.0 for name, values in targets.items()})
        result = self._run(iterations=1, importance_lambda=5.0,
                           importance_learning_rate=0.02)
        after = smoothed_unit_magnitudes(self.model)
        for name, values in result.importance.scores.items():
            assert np.all(np.abs(values - after[name]) < 1.0)

    def test_residual_and_personalized_respect_mask(self):
        result = self._run()
        mask = self.model.expand_unit_masks(
            {k: np.asarray(v, dtype=float) for k, v in result.pattern.items()})
        for key, values in result.personalized_params.items():
            assert np.all(values[mask[key] == 0.0] == 0.0)
        for key, values in result.residual.items():
            assert np.all(values[mask[key] == 0.0] == 0.0)

    def test_pattern_keep_ratio_close_to_requested(self):
        result = self._run(sparse_ratio=0.5)
        assert 0.35 <= pattern_keep_ratio(result.pattern) <= 0.65

    def test_importance_is_updated(self):
        result = self._run()
        moved = any(not np.allclose(result.importance.scores[name],
                                    self.importance.scores[name])
                    for name in self.importance.scores)
        assert moved

    def test_training_learns_at_full_ratio(self):
        result = self._run(sparse_ratio=1.0, iterations=25)
        assert result.train_accuracy > 0.4

    def test_full_ratio_masks_nothing(self):
        result = self._run(sparse_ratio=1.0)
        assert pattern_keep_ratio(result.pattern) == 1.0

    def test_prox_mu_limits_drift_from_global(self):
        # the masked residual (omega_global - omega_local) * m measures the
        # drift of the retained sub-model from the global parameters
        free = self._run(prox_mu=0.0, iterations=15, learning_rate=0.05)
        anchored = self._run(prox_mu=2.0, iterations=15, learning_rate=0.05)
        free_drift = l2_norm(free.residual)
        anchored_drift = l2_norm(anchored.residual)
        assert anchored_drift < free_drift + 1e-9

    def test_per_iteration_refresh_mode_runs(self):
        result = self._run(refresh_pattern_each_iteration=True, iterations=4)
        assert result.examples_seen == 4 * 10

    def test_gates_cleared_after_training(self):
        self._run()
        assert all(layer.unit_gate is None for layer in self.model.layers)
