"""Batched cohort kernels vs the sequential layer stack, bit-for-bit.

``repro.nn.batched`` promises that a :class:`BatchedModel` run over stacked
``(C, ...)`` parameters reproduces each client's sequential forward/backward
EXACTLY — same bits, not just close — including under per-client unit gates
and ragged cohorts (``set_batch_counts``), where padded rows must stay
exactly zero through the whole pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_cnn, build_lstm_lm
from repro.nn import (BatchedModel, batchable_model, softmax_cross_entropy,
                      stack_param_dicts, unstack_param_dict)
from repro.sparsity import gates_from_pattern, random_pattern

from mlp import build_mlp


def _perturbed_params(model, cohort, seed=0):
    rng = np.random.default_rng(seed)
    base = model.get_parameters()
    return [{key: value + 0.01 * rng.normal(size=value.shape)
             for key, value in base.items()} for _ in range(cohort)]


def _sequential_pass(model, params, x, y, gates=None):
    model.set_parameters(params)
    model.set_unit_gates(gates)
    model.zero_grad()
    logits = model.forward(x, train=True)
    loss, grad = softmax_cross_entropy(logits, y)
    model.backward(grad)
    grads = {key: value.copy()
             for key, value in model.live_gradients().items()}
    model.set_unit_gates(None)
    return logits, grads


class TestStacking:
    def test_stack_unstack_roundtrip(self):
        model = build_mlp(6, [5], 3, seed=0)
        stacks = stack_param_dicts(_perturbed_params(model, 3))
        for key, value in stacks.items():
            assert value.shape[0] == 3
        sliced = unstack_param_dict(stacks, 1)
        reference = _perturbed_params(model, 3)[1]
        for key in reference:
            np.testing.assert_array_equal(sliced[key], reference[key])

    def test_batchable_model_predicate(self):
        assert batchable_model(build_mlp(6, [5], 3))
        assert batchable_model(build_cnn(1, 8, 4))
        # recurrent layers have no batched kernel — must report False
        assert not batchable_model(build_lstm_lm(20, seq_len=6))


@pytest.mark.parametrize("builder", [
    lambda: build_mlp(6, [5, 4], 3, seed=1),
    lambda: build_cnn(1, 8, 4, seed=1),
], ids=["mlp", "cnn"])
class TestHomogeneousEquivalence:
    def test_forward_backward_bit_identical(self, builder):
        model = builder()
        cohort = 3
        params = _perturbed_params(model, cohort, seed=2)
        batched = BatchedModel(model, cohort)
        batched.set_parameters(stack_param_dicts(params))

        rng = np.random.default_rng(3)
        shape = (cohort, 4) + tuple(model.input_shape)
        x = rng.normal(size=shape)
        y = rng.integers(0, 3, size=(cohort, 4))

        batched.zero_grad()
        logits = batched.forward(x)
        grad = np.empty_like(logits)
        for i in range(cohort):
            ref_logits, _ = _sequential_pass(model, params[i], x[i], y[i])
            np.testing.assert_array_equal(logits[i], ref_logits)
            _, g = softmax_cross_entropy(logits[i], y[i])
            grad[i] = g
        batched.backward(grad)
        grads = batched.live_gradients()
        for i in range(cohort):
            _, ref_grads = _sequential_pass(model, params[i], x[i], y[i])
            for key in ref_grads:
                np.testing.assert_array_equal(grads[key][i], ref_grads[key])

    def test_per_client_gates_match_sequential(self, builder):
        model = builder()
        cohort = 3
        params = _perturbed_params(model, cohort, seed=4)
        patterns = [random_pattern(model, ratio,
                                   rng=np.random.default_rng(10 + i))
                    for i, ratio in enumerate((0.5, 0.75, 1.0))]
        batched = BatchedModel(model, cohort)
        batched.set_parameters(stack_param_dicts(params))
        gate_stacks = {
            group.layer_name: np.stack(
                [gates_from_pattern(patterns[i])[group.layer_name]
                 for i in range(cohort)])
            for group in model.unit_groups}
        batched.set_unit_gates(gate_stacks)

        rng = np.random.default_rng(5)
        x = rng.normal(size=(cohort, 4) + tuple(model.input_shape))
        y = rng.integers(0, 3, size=(cohort, 4))
        batched.zero_grad()
        logits = batched.forward(x)
        grad = np.empty_like(logits)
        for i in range(cohort):
            _, g = softmax_cross_entropy(logits[i], y[i])
            grad[i] = g
        batched.backward(grad)
        grads = batched.live_gradients()
        for i in range(cohort):
            ref_logits, ref_grads = _sequential_pass(
                model, params[i], x[i], y[i],
                gates=gates_from_pattern(patterns[i]))
            np.testing.assert_array_equal(logits[i], ref_logits)
            for key in ref_grads:
                np.testing.assert_array_equal(grads[key][i], ref_grads[key])


@pytest.mark.parametrize("builder", [
    lambda: build_mlp(6, [5], 3, seed=1),
    lambda: build_cnn(1, 8, 4, seed=1),
], ids=["mlp", "cnn"])
class TestRaggedEquivalence:
    """Ragged cohorts: real rows bit-identical, padded rows exactly zero.

    GEMM results depend on the operand row count (edge micro-kernels regroup
    the k accumulation), so the ragged path must NOT push padded rows
    through batched matmuls — these tests pin both the equivalence and the
    padded-row no-op proof.
    """

    COUNTS = (4, 2, 3)

    def test_real_rows_bit_identical(self, builder):
        model = builder()
        cohort = len(self.COUNTS)
        width = max(self.COUNTS)
        params = _perturbed_params(model, cohort, seed=6)
        batched = BatchedModel(model, cohort)
        batched.set_parameters(stack_param_dicts(params))
        batched.set_batch_counts(np.asarray(self.COUNTS))

        rng = np.random.default_rng(7)
        x = np.zeros((cohort, width) + tuple(model.input_shape))
        y = np.zeros((cohort, width), dtype=np.int64)
        for i, count in enumerate(self.COUNTS):
            x[i, :count] = rng.normal(size=(count,) + tuple(model.input_shape))
            y[i, :count] = rng.integers(0, 3, size=count)

        batched.zero_grad()
        logits = batched.forward(x)
        grad = np.zeros_like(logits)
        for i, count in enumerate(self.COUNTS):
            _, g = softmax_cross_entropy(logits[i, :count], y[i, :count])
            grad[i, :count] = g
        batched.backward(grad)
        grads = batched.live_gradients()
        for i, count in enumerate(self.COUNTS):
            ref_logits, ref_grads = _sequential_pass(
                model, params[i], x[i, :count], y[i, :count])
            np.testing.assert_array_equal(logits[i, :count], ref_logits)
            for key in ref_grads:
                np.testing.assert_array_equal(grads[key][i], ref_grads[key])

    def test_padded_rows_are_exact_zeros(self, builder):
        model = builder()
        cohort = len(self.COUNTS)
        width = max(self.COUNTS)
        params = _perturbed_params(model, cohort, seed=8)
        batched = BatchedModel(model, cohort)
        batched.set_parameters(stack_param_dicts(params))
        batched.set_batch_counts(np.asarray(self.COUNTS))

        rng = np.random.default_rng(9)
        x = np.zeros((cohort, width) + tuple(model.input_shape))
        for i, count in enumerate(self.COUNTS):
            x[i, :count] = rng.normal(size=(count,) + tuple(model.input_shape))
        logits = batched.forward(x)
        for i, count in enumerate(self.COUNTS):
            assert np.all(logits[i, count:] == 0.0)
        grad = np.zeros_like(logits)
        for i, count in enumerate(self.COUNTS):
            grad[i, :count] = rng.normal(size=(count, logits.shape[-1]))
        batched.zero_grad()
        grad_x = batched.backward(grad)
        for i, count in enumerate(self.COUNTS):
            assert np.all(grad_x[i, count:] == 0.0)
