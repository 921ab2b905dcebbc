"""FedLPS learnable sparse training (Algorithm 1, lines 17-27).

One client-side update round:

1. import the global parameters and the client's persisted importance
   indicator ``Q``;
2. in every local iteration, derive the importance-based pattern at the
   assigned sparse ratio (Eq. 4/5), train the masked model on a mini-batch
   (Eq. 10) and update ``Q`` by back-propagation (Eq. 11);
3. after the last iteration, store the personalized sparse model locally and
   upload only the masked residual ``(omega_global - omega_local) * m``
   (Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..nn import SGD, accuracy, softmax_cross_entropy
from ..nn.batched import BatchedModel, stack_param_dicts, unstack_param_dict
from ..nn.losses import accuracy_cohort, softmax_cross_entropy_cohort
from ..nn.model import Sequential
from ..nn.optim import BatchedSGD, cohort_squared_norms
from ..nn.params import ParamDict, copy_params, multiply, subtract
from ..sparsity.masks import UnitPattern, build_parameter_mask, gates_from_pattern
from ..federated.batched import client_batch_schedule
from ..federated.local import iterate_batches
from .importance import (ImportanceIndicator, smoothed_targets,
                         smoothed_unit_magnitudes)
from .losses import combine_unit_gradients


@dataclass
class SparseTrainingResult:
    """Everything the FedLPS client produces in one round."""

    personalized_params: ParamDict
    residual: ParamDict
    pattern: UnitPattern
    importance: ImportanceIndicator
    sparse_ratio: float
    train_accuracy: float
    train_loss: float
    examples_seen: int


def learnable_sparse_training(model: Sequential,
                              global_params: Mapping[str, np.ndarray],
                              importance: ImportanceIndicator,
                              dataset: Dataset, *, sparse_ratio: float,
                              iterations: int, batch_size: int,
                              learning_rate: float, momentum: float = 0.0,
                              clip_norm: Optional[float] = None,
                              prox_mu: float = 1.0,
                              importance_lambda: float = 1.0,
                              importance_learning_rate: Optional[float] = None,
                              refresh_pattern_each_iteration: bool = False,
                              rng: Optional[np.random.Generator] = None
                              ) -> SparseTrainingResult:
    """Run the FedLPS local update and return the personalized sparse model.

    Args:
        refresh_pattern_each_iteration: Algorithm 1 re-derives the mask from
            ``Q`` in every local iteration.  With the small backbones of this
            reproduction that per-iteration re-masking makes the top-k pattern
            oscillate between marginal units and wastes most of the round's
            training, so by default the pattern is derived once per round from
            the incoming ``Q`` and held fixed while ``Q`` itself keeps being
            learned for the next round (see DESIGN.md).  Set this flag to True
            for the paper's literal per-iteration behaviour.
    """
    if not 0.0 < sparse_ratio <= 1.0:
        raise ValueError(f"sparse_ratio must be in (0, 1], got {sparse_ratio}")
    if prox_mu < 0:
        raise ValueError("prox_mu must be non-negative")
    rng = rng or np.random.default_rng(0)
    importance = importance.copy()
    q_lr = importance_learning_rate if importance_learning_rate is not None \
        else learning_rate

    global_reference = copy_params(global_params)
    optimizer = SGD(learning_rate, momentum=momentum, clip_norm=clip_norm)

    losses = []
    accuracies = []
    examples = 0
    # (Eq. 4/5) importance-derived pattern and parameter mask
    pattern = importance.pattern(model, sparse_ratio)
    param_mask = build_parameter_mask(model, pattern)
    model.set_parameters(global_params)
    model.set_unit_gates(gates_from_pattern(pattern))
    # the optimizer steps these arrays in place for the whole round
    params = model.live_parameters()
    # omega - omega_global: the operand of this step's Eq. 7 gradient is
    # the one the previous step's L_pr was computed from
    drift = subtract(params, global_reference)
    factor = 2.0 * prox_mu
    for batch_x, batch_y in iterate_batches(dataset, batch_size, iterations, rng=rng):
        if refresh_pattern_each_iteration:
            pattern = importance.pattern(model, sparse_ratio)
            param_mask = build_parameter_mask(model, pattern)
            model.set_unit_gates(gates_from_pattern(pattern))

        model.zero_grad()
        logits = model.forward(batch_x, train=True)
        task_loss, grad = softmax_cross_entropy(logits, batch_y)
        accuracies.append(accuracy(logits, batch_y))
        model.backward(grad, input_grad=False)

        gate_grads = _normalize_gate_gradients(model.gate_gradients())
        # (Eq. 7) proximal pull towards the global parameters, then
        # (Eq. 10) only the retained sub-model's parameters are updated
        optimizer.step(params, {
            key: (grad + factor * drift[key]) * param_mask[key]
            for key, grad in model.live_gradients().items()})
        drift = subtract(params, global_reference)

        # (Eq. 11) importance indicator update: straight-through task gradient
        # through the unit gates plus the Eq. (8) regularizer gradient; the
        # targets depend on the parameters only, so one pass serves the
        # gradient here and the loss below
        targets = smoothed_unit_magnitudes(model)
        reg_grads = importance.regularization_gradient(targets, importance_lambda)
        importance.apply_gradient(
            combine_unit_gradients(gate_grads, reg_grads), q_lr)

        prox_total = sum(float(np.sum(diff ** 2)) for diff in drift.values())
        losses.append(task_loss + prox_mu * prox_total
                      + importance.regularization_loss(targets, importance_lambda))
        examples += len(batch_y)
    model.set_unit_gates(None)

    # (Alg. 1 lines 23-25) personalized model and masked residual.  The mask
    # is the one the round actually trained with; the updated ``Q`` shapes the
    # next round's pattern.
    if refresh_pattern_each_iteration:
        pattern = importance.pattern(model, sparse_ratio)
        param_mask = build_parameter_mask(model, pattern)
    personalized = multiply(params, param_mask)
    residual = multiply(subtract(global_reference, params), param_mask)
    return SparseTrainingResult(
        personalized_params=personalized, residual=residual,
        pattern=pattern, importance=importance, sparse_ratio=sparse_ratio,
        train_accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
        train_loss=float(np.mean(losses)) if losses else 0.0,
        examples_seen=examples)


def learnable_sparse_training_cohort(
        model: Sequential,
        global_params: Mapping[str, np.ndarray],
        importances: Sequence[ImportanceIndicator],
        datasets: Sequence[Dataset], *,
        sparse_ratios: Sequence[float],
        iterations: int, batch_size: int,
        learning_rate: float, momentum: float = 0.0,
        clip_norm: Optional[float] = None,
        prox_mu: float = 1.0,
        importance_lambda: float = 1.0,
        importance_learning_rate: Optional[float] = None,
        refresh_pattern_each_iteration: bool = False,
        rngs: Optional[Sequence[np.random.Generator]] = None
) -> List[SparseTrainingResult]:
    """Run the FedLPS local update for a whole cohort as one batched program.

    Bit-for-bit equivalent to calling :func:`learnable_sparse_training` once
    per client in order.  The client axis is the only loop: the
    forward/backward/step tensor program runs batched along a leading client
    axis (per-client patterns as stacked unit gates, per-client masks
    broadcast over the gradients), ``Q`` lives as stacked ``(C, n_units)``
    scores for the round, and the per-unit machinery — gate-gradient
    normalization, importance targets/regularizers, prox losses — is
    element-wise or reduces the last axis (all trailing axes) of a
    C-contiguous stack, which is slice-identical to the sequential reduction
    (see the contract in :mod:`repro.nn.batched`).  Only pattern derivation
    and the mini-batch gather visit clients one by one.  ``model`` is the
    architecture template; its own parameters are left untouched.
    """
    cohort = len(datasets)
    if cohort == 0:
        return []
    for name, value in (("importances", importances),
                        ("sparse_ratios", sparse_ratios), ("rngs", rngs)):
        if value is not None and len(value) != cohort:
            raise ValueError(f"{name} must have one entry per client")
    for ratio in sparse_ratios:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"sparse_ratio must be in (0, 1], got {ratio}")
    if prox_mu < 0:
        raise ValueError("prox_mu must be non-negative")
    if rngs is None:
        rngs = [np.random.default_rng(0) for _ in range(cohort)]
    scores = ImportanceIndicator.stack(importances)
    q_lr = importance_learning_rate if importance_learning_rate is not None \
        else learning_rate

    reference = {key: np.array(value, dtype=np.float64)[None]
                 for key, value in global_params.items()}
    batched = BatchedModel(model, cohort)
    batched.set_parameters({key: np.repeat(value, cohort, axis=0)
                            for key, value in reference.items()})
    params = batched.live_parameters()
    optimizer = BatchedSGD(learning_rate, momentum=momentum,
                           clip_norm=clip_norm)

    def derive_patterns():
        """(Eq. 4/5) every client's pattern from its row of ``Q``, installed
        as stacked gates; returns the patterns and the stacked masks."""
        patterns = [scores.row(i).pattern(model, sparse_ratios[i])
                    for i in range(cohort)]
        batched.set_unit_gates(
            {name: np.stack([pattern[name] for pattern in patterns])
             for name in patterns[0]})
        return patterns, stack_param_dicts(
            [build_parameter_mask(model, pattern) for pattern in patterns])

    patterns, masks = derive_patterns()
    schedules = [client_batch_schedule(len(datasets[i]), batch_size,
                                       iterations, rng=rngs[i])
                 for i in range(cohort)]
    steps = len(schedules[0])
    counts = np.array([len(schedule[0]) if steps else 0
                       for schedule in schedules], dtype=np.int64)
    width = int(counts.max())
    if np.any(counts != width):
        batched.set_batch_counts(counts)

    losses = np.zeros((cohort, steps))
    accuracies = np.zeros((cohort, steps))
    x_pad = np.zeros((cohort, width) + datasets[0].x.shape[1:])
    y_pad = np.zeros((cohort, width), dtype=np.int64)
    # omega - omega_global, as in learnable_sparse_training; the (1, ...)
    # reference broadcasts along the client axis
    drift = subtract(params, reference)
    factor = 2.0 * prox_mu
    for step in range(steps):
        if refresh_pattern_each_iteration:
            patterns, masks = derive_patterns()
        for index in range(cohort):
            batch = schedules[index][step]
            x_pad[index, :counts[index]] = datasets[index].x[batch]
            y_pad[index, :counts[index]] = datasets[index].y[batch]
        batched.zero_grad()
        logits = batched.forward(x_pad, train=True)
        task_losses, grad = softmax_cross_entropy_cohort(logits, y_pad, counts)
        accuracies[:, step] = accuracy_cohort(logits, y_pad, counts)
        batched.backward(grad, input_grad=False)

        gate_grads = _normalize_gate_gradients(batched.gate_gradients())
        # (Eq. 7) proximal pull towards the global parameters, then
        # (Eq. 10) each client's mask over its own gradients
        optimizer.step(params, {
            key: (grad + factor * drift[key]) * masks[key]
            for key, grad in batched.live_gradients().items()})
        drift = subtract(params, reference)

        # (Eq. 11) importance update on the stacked scores: normalized task
        # gate-gradient plus the Eq. (8) regularizer derived from the
        # POST-step parameters
        targets = smoothed_targets(batched.unit_weight_magnitudes())
        reg_grads = scores.regularization_gradient(targets, importance_lambda)
        scores.apply_gradient(
            combine_unit_gradients(gate_grads, reg_grads), q_lr)
        losses[:, step] = (
            task_losses + prox_mu * cohort_squared_norms(drift)
            + scores.regularization_loss(targets, importance_lambda))

    # the masks the round trained with are the final ones unless Q moved them
    if refresh_pattern_each_iteration:
        patterns, masks = derive_patterns()
    personalized = multiply(params, masks)
    residual = multiply(subtract(reference, params), masks)
    train_accuracies = np.mean(accuracies, axis=-1) if steps else np.zeros(cohort)
    train_losses = np.mean(losses, axis=-1) if steps else np.zeros(cohort)
    return [SparseTrainingResult(
        personalized_params=unstack_param_dict(personalized, index),
        residual=unstack_param_dict(residual, index),
        pattern=patterns[index], importance=scores.row(index),
        sparse_ratio=sparse_ratios[index],
        train_accuracy=float(train_accuracies[index]),
        train_loss=float(train_losses[index]),
        examples_seen=steps * int(counts[index]))
        for index in range(cohort)]


def _normalize_gate_gradients(gate_grads: Mapping[str, np.ndarray]
                              ) -> dict[str, np.ndarray]:
    """Scale each layer's gate gradient to unit maximum magnitude.

    The raw straight-through gradient sums over batch and spatial positions,
    so convolution layers produce values orders of magnitude larger than
    fully-connected layers.  Only the relative ordering within a layer matters
    for the quantile threshold of Eq. (4), so each layer is normalized to make
    the importance learning rate meaningful across architectures.  The peak
    is taken over the last axis — per client on a stacked ``(C, n_units)``
    gradient — and a row without a positive peak (all zero, or NaN) divides
    by ``1.0``, a bitwise identity that keeps its sign bits.
    """
    normalized = {}
    for name, grad in gate_grads.items():
        grad = np.asarray(grad, dtype=np.float64)
        peak = np.max(np.abs(grad), axis=-1, keepdims=True)
        normalized[name] = grad / np.where(peak > 0, peak, 1.0)
    return normalized
