"""Tests for the Sequential model container and the model zoo."""

import pickle

import numpy as np
import pytest

from repro.models import (build_cnn, build_lstm_lm, build_mlp,
                          build_model_for_dataset, build_vgg_style)
from repro.nn import BatchedSGD, Dense, Sequential, softmax_cross_entropy
from repro.nn.batched import CohortOfOne
from repro.nn.serialization import load_parameters, save_parameters


class TestSequentialBasics:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([], input_shape=(4,))

    def test_unique_layer_names_enforced(self):
        with pytest.raises(ValueError):
            Sequential([Dense(2, 2, name="a"), Dense(2, 2, name="a")],
                       input_shape=(2,))

    def test_forward_backward_shapes(self, small_mlp):
        x = np.ones((3, 12))
        out = small_mlp.forward(x)
        assert out.shape == (3, 4)
        grad_in = small_mlp.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_get_set_parameters_roundtrip(self, small_mlp):
        params = small_mlp.get_parameters()
        modified = {key: value + 1.0 for key, value in params.items()}
        small_mlp.set_parameters(modified)
        for key, value in small_mlp.get_parameters().items():
            np.testing.assert_allclose(value, params[key] + 1.0)

    def test_set_parameters_missing_key(self, small_mlp):
        params = small_mlp.get_parameters()
        params.pop(next(iter(params)))
        with pytest.raises(KeyError):
            small_mlp.set_parameters(params)

    def test_set_parameters_wrong_shape(self, small_mlp):
        params = small_mlp.get_parameters()
        key = next(iter(params))
        params[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            small_mlp.set_parameters(params)

    def test_num_parameters_matches_sum(self, small_mlp):
        params = small_mlp.get_parameters()
        assert small_mlp.num_parameters == sum(v.size for v in params.values())

    def test_training_reduces_loss(self, small_mlp):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 12))
        y = (x[:, 0] > 0).astype(int)
        program = CohortOfOne(small_mlp)
        opt = BatchedSGD(program.live_parameters(), 0.2)
        losses = []
        for _ in range(30):
            small_mlp.zero_grad()
            logits = small_mlp.forward(x)
            loss, grad = softmax_cross_entropy(logits, y)
            losses.append(loss)
            small_mlp.backward(grad)
            opt.step(program.live_gradients())
        assert losses[-1] < losses[0] * 0.8


class TestUnitLayout:
    def test_unit_groups_exclude_head(self, small_cnn):
        names = [group.layer_name for group in small_cnn.unit_groups]
        assert "head" not in names
        assert small_cnn.total_units == sum(g.n_units for g in small_cnn.unit_groups)

    def test_expand_unit_masks_covers_all_params(self, small_cnn):
        pattern = {group.layer_name: np.ones(group.n_units)
                   for group in small_cnn.unit_groups}
        mask = small_cnn.expand_unit_masks(pattern)
        assert set(mask) == set(small_cnn.get_parameters())
        assert all(np.all(values == 1.0) for values in mask.values())

    def test_gate_gradients_shapes(self, small_cnn):
        pattern = {group.layer_name: np.ones(group.n_units)
                   for group in small_cnn.unit_groups}
        small_cnn.set_unit_gates(pattern)
        small_cnn.zero_grad()
        x = np.ones((2, 1, 16, 16))
        out = small_cnn.forward(x)
        small_cnn.backward(np.ones_like(out))
        grads = small_cnn.gate_gradients()
        for group in small_cnn.unit_groups:
            assert grads[group.layer_name].shape == (group.n_units,)
        small_cnn.set_unit_gates(None)

    def test_unit_weight_magnitudes_keys(self, small_cnn):
        magnitudes = small_cnn.unit_weight_magnitudes()
        assert set(magnitudes) == {g.layer_name for g in small_cnn.unit_groups}

    def test_flops_positive_and_layerwise_sum(self, small_cnn):
        total = small_cnn.flops_per_example()
        breakdown = small_cnn.layer_flops()
        assert total > 0
        assert total == sum(breakdown.values())


class TestModelZoo:
    def test_mlp_requires_hidden_layers(self):
        with pytest.raises(ValueError):
            build_mlp(10, [], 2)

    def test_cnn_shape_checks(self):
        with pytest.raises(ValueError):
            build_cnn(1, 15, 10)
        with pytest.raises(ValueError):
            build_cnn(1, 16, 10, channels=(4, 8, 16))

    def test_vgg_shape_checks(self):
        with pytest.raises(ValueError):
            build_vgg_style(3, 12, 10, blocks=(4, 8, 16))

    def test_lstm_lm_output_is_vocab_sized(self):
        model = build_lstm_lm(30, embed_dim=8, hidden_dim=12, num_layers=2,
                              seq_len=6)
        tokens = np.random.default_rng(0).integers(0, 30, size=(3, 6))
        out = model.forward(tokens)
        assert out.shape == (3, 30)

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10", "cifar100",
                                         "tinyimagenet", "reddit"])
    def test_builders_for_every_dataset(self, dataset):
        model = build_model_for_dataset(dataset, seed=0)
        assert model.total_units > 0
        assert model.num_parameters > 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_model_for_dataset("imagenet")

    def test_same_seed_same_parameters(self):
        a = build_model_for_dataset("mnist", seed=3).get_parameters()
        b = build_model_for_dataset("mnist", seed=3).get_parameters()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])


def _train_step(model, x, y):
    model.zero_grad()
    _, grad = softmax_cross_entropy(model.forward(x, train=True), y)
    model.backward(grad, input_grad=False)
    program = CohortOfOne(model)
    BatchedSGD(program.live_parameters(), 0.1).step(program.live_gradients())


class TestPickling:
    """Forward scratch (activations, masks, pooling indices, recurrent
    caches) is rebuilt by the next forward and must not ride along in a
    pickle: session broadcasts and thread clones ship the model object."""

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10", "reddit"])
    def test_stepped_model_pickles_like_a_fresh_one(self, dataset):
        model = build_model_for_dataset(dataset, seed=0)
        fresh_size = len(pickle.dumps(model))
        rng = np.random.default_rng(0)
        if dataset == "reddit":
            x = rng.integers(0, 20, size=(8,) + model.input_shape)
        else:
            x = rng.normal(size=(8,) + model.input_shape)
        y = rng.integers(0, 5, size=8)
        _train_step(model, x, y)
        wire = pickle.dumps(model)
        assert len(wire) == fresh_size

        # the clone lost only scratch: it keeps training bit-identically
        clone = pickle.loads(wire)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            clone.backward(np.zeros((8, 5)))
        _train_step(model, x, y)
        _train_step(clone, x, y)
        expected = model.get_parameters()
        for key, value in clone.get_parameters().items():
            assert value.tobytes() == expected[key].tobytes()


class TestSerialization:
    def test_save_and_load_roundtrip(self, small_mlp, tmp_path):
        params = small_mlp.get_parameters()
        path = save_parameters(tmp_path / "snapshot", params)
        loaded = load_parameters(path)
        assert set(loaded) == set(params)
        for key in params:
            np.testing.assert_array_equal(loaded[key], params[key])

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_parameters(tmp_path / "missing.npz")
