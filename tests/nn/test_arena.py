"""The flat arenas behind a training program's parameters and gradients.

A program (``BatchedModel``, ``CohortOfOne``) keeps its parameters,
gradients and gate gradients in one :class:`repro.nn.Arena` each, and every
layer holds views into them, so the trainers can step the whole buffer with
one ufunc call per operation.  That is only sound while the views stay
C-contiguous, key-major and bound: these tests pin the layout, the
lifetime of what a program hands out, the conv weight cache on views and
the bytes a trained model pickles.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.models import build_cnn, build_mlp
from repro.nn import (Arena, BatchedModel, BatchedSGD, cohort_squared_norms,
                      softmax_cross_entropy)
from repro.nn.batched import CohortOfOne
from repro.sparsity import gates_from_pattern, random_pattern


def _cnn():
    return build_cnn(1, 8, 3, channels=(3, 4), hidden_dim=6, seed=1)


def _batch(model, n=5, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n,) + tuple(model.input_shape)),
            rng.integers(0, 3, size=n))


def _programs():
    """A ``CohortOfOne`` over a fresh CNN and a three-client ``BatchedModel``."""
    return {"cohort-of-one": CohortOfOne(_cnn()),
            "batched": BatchedModel(_cnn(), 3)}


def _step(program, seed=0):
    """zero_grad, forward and backward of a gated batch on ``program``."""
    cohort = len(next(iter(program.live_parameters().values())))
    model = program.model if isinstance(program, CohortOfOne) else program.template
    pattern = gates_from_pattern(random_pattern(
        model, 0.5, rng=np.random.default_rng(seed)))
    program.set_unit_gates({name: np.stack([gate] * cohort)
                            for name, gate in pattern.items()})
    x, _ = _batch(model, seed=seed)
    program.zero_grad()
    logits = program.forward(np.stack([x] * cohort), train=True)
    program.backward(np.ones_like(logits), input_grad=False)


class TestLayout:
    def test_views_are_key_major_c_contiguous_blocks_of_one_buffer(self):
        layout = {"a.W": (2, 3, 4), "a.b": (2, 4), "b.W": (2, 5, 1, 3, 3)}
        arena = Arena(layout)
        offset = 0
        for key, shape in layout.items():
            view = arena[key]
            assert view.shape == shape
            assert view.flags.c_contiguous
            assert view.base is arena.flat
            start = (view.__array_interface__["data"][0]
                     - arena.flat.__array_interface__["data"][0]) // 8
            assert start == offset
            offset += view.size
        assert arena.flat.size == offset and arena.flat.dtype == np.float64

    def test_is_a_read_only_mapping(self):
        arena = Arena({"w": (1, 2)})
        assert dict(arena).keys() == {"w"}
        with pytest.raises(TypeError):
            arena["w"] = np.zeros((1, 2))

    def test_like_copies_the_layout_not_the_values(self):
        arena = Arena.of({"w": np.ones((2, 3)), "b": np.full((2, 1), 2.0)})
        fresh = arena.like()
        assert list(fresh) == ["w", "b"] and not np.shares_memory(
            fresh.flat, arena.flat)
        assert not fresh.flat.any()

    def test_load_checks_keys_and_shapes(self):
        arena = Arena({"w": (2, 3)})
        with pytest.raises(KeyError, match="missing parameter 'w'"):
            arena.load({})
        with pytest.raises(ValueError, match="shape mismatch for 'w'"):
            arena.load({"w": np.zeros((3, 2))})
        arena.load({"w": np.arange(6.0).reshape(2, 3), "extra": None})
        assert np.array_equal(arena.flat, np.arange(6.0))

    def test_expand_repeats_per_client_values(self):
        arena = Arena({"w": (2, 3), "b": (2, 1)})
        np.testing.assert_array_equal(
            arena.expand(np.array([1.0, 2.0])),
            [1, 1, 1, 2, 2, 2, 1, 2])

    def test_pickle_and_deepcopy_rebuild_views_over_their_own_buffer(self):
        arena = Arena.of({"w": np.arange(6.0).reshape(2, 3)})
        for clone in (pickle.loads(pickle.dumps(arena)), copy.deepcopy(arena)):
            clone.flat[0] = 99.0
            assert clone["w"][0, 0] == 99.0 and arena["w"][0, 0] == 0.0

    def test_cohort_squared_norms_sum_keys_in_order(self):
        arena = Arena.of({"w": np.array([[1.0, 2.0], [3.0, -0.0]]),
                          "b": np.array([[2.0], [-1.0]])})
        out = arena.like()
        np.testing.assert_array_equal(cohort_squared_norms(arena, out),
                                      [9.0, 10.0])
        np.testing.assert_array_equal(out.flat, np.square(arena.flat))


@pytest.mark.parametrize("name", ["cohort-of-one", "batched"])
class TestProgramArenas:
    def test_layers_hold_views_of_the_arenas(self, name):
        program = _programs()[name]
        layers = (program.model if name == "cohort-of-one" else program).layers
        params, grads = program.live_parameters(), program.live_gradients()
        gate_grads = program.gate_gradients()
        for layer in layers:
            for key, value in layer.params.items():
                for arena, held in ((params, value), (grads, layer.grads[key])):
                    block = arena[f"{layer.name}.{key}"]
                    assert np.shares_memory(held, block)
                    assert held.shape == block.shape[1:] \
                        if name == "cohort-of-one" else held.shape == block.shape
            if layer.name in gate_grads:
                assert np.shares_memory(layer.unit_gate_grad,
                                        gate_grads[layer.name])

    def test_zero_grad_keeps_identity_and_arenas_stay_live(self, name):
        program = _programs()[name]
        grads, gate_grads = program.live_gradients(), program.gate_gradients()
        params = program.live_parameters()
        views = [grads[key] for key in grads]
        _step(program)
        assert any(np.any(view) for view in views)
        assert np.any(gate_grads.flat)
        program.zero_grad()
        assert program.live_gradients() is grads
        assert program.gate_gradients() is gate_grads
        assert all(grads[key] is view for key, view in zip(grads, views))
        assert not grads.flat.any() and not gate_grads.flat.any()
        # read before a step, still the step's gradients after it
        _step(program, seed=1)
        assert np.any(grads.flat)
        before = params.flat.copy()
        BatchedSGD(params, 0.5).step(grads)
        assert program.live_parameters() is params
        assert np.any(params.flat != before)

    def test_set_parameters_copies_into_the_arena(self, name):
        program = _programs()[name]
        params = program.live_parameters()
        buffer = params.flat
        target = {key: np.full(value.shape, 0.25)
                  for key, value in params.items()}
        program.set_parameters(target)
        assert params.flat is buffer and np.all(buffer == 0.25)
        with pytest.raises(ValueError, match="shape mismatch"):
            program.set_parameters({key: value[..., None]
                                    for key, value in target.items()})


def test_the_models_own_zero_grad_keeps_the_program_bound():
    """``Sequential.zero_grad`` on a model under a ``CohortOfOne`` fills
    the arena views in place instead of rebinding them away."""
    model = _cnn()
    program = CohortOfOne(model)
    _step(program)
    grads, gate_grads = program.live_gradients(), program.gate_gradients()
    assert grads.flat.any() and gate_grads.flat.any()
    model.zero_grad()
    for layer in model.layers:
        for key, value in layer.grads.items():
            assert np.shares_memory(value, grads[f"{layer.name}.{key}"])
        if layer.name in gate_grads:
            assert np.shares_memory(layer.unit_gate_grad, gate_grads[layer.name])
    assert not grads.flat.any() and not gate_grads.flat.any()


class TestConvWeightCache:
    def test_the_reshape_cache_hits_on_arena_views(self):
        model = _cnn()
        CohortOfOne(model)
        conv = model.layers[0]
        assert conv.params["W"].base is not None   # an arena view
        first = conv._weight_matrix()
        assert conv._weight_matrix() is first
        assert np.shares_memory(first, conv.params["W"])
        # an in-place step on the arena shows through the cached view
        conv.params["W"][...] += 1.0
        np.testing.assert_array_equal(
            conv._weight_matrix(), conv.params["W"].reshape(len(first), -1))

    def test_a_copying_reshape_is_never_cached(self):
        model = _cnn()
        conv = model.layers[0]
        conv.params["W"] = np.ascontiguousarray(
            conv.params["W"].transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        assert conv._weight_matrix() is not conv._weight_matrix()


def test_a_pickled_model_carries_only_its_own_parameters():
    """The layers hold views of arena buffers; a pickle writes each view's
    own bytes, never a whole buffer per view."""
    trained = build_mlp(6, [5, 4], 3, seed=1)
    fresh = build_mlp(6, [5, 4], 3, seed=1)
    program = CohortOfOne(trained)
    x, y = _batch(trained)
    program.zero_grad()
    logits = program.forward(x[None], train=True)
    _, grad = softmax_cross_entropy(logits[0], y)
    program.backward(grad[None], input_grad=False)
    BatchedSGD(program.live_parameters(), 0.1).step(program.live_gradients())
    assert len(pickle.dumps(trained)) <= len(pickle.dumps(fresh)) + 512
    clone = pickle.loads(pickle.dumps(trained))
    for key, value in trained.get_parameters().items():
        np.testing.assert_array_equal(clone.get_parameters()[key], value)
        assert clone.live_parameters()[key].base is None
