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
from ..nn.batched import BatchedModel, stack_param_dicts
from ..nn.losses import accuracy_cohort, softmax_cross_entropy_cohort
from ..nn.model import Sequential
from ..nn.optim import BatchedSGD
from ..nn.params import ParamDict, copy_params, multiply, subtract
from ..sparsity.masks import UnitPattern, build_parameter_mask, gates_from_pattern
from ..federated.batched import client_batch_schedule
from ..federated.local import iterate_batches
from .importance import (ImportanceIndicator, smoothed_targets,
                         smoothed_unit_magnitudes)
from .losses import add_gradients, combine_unit_gradients, proximal_gradient, proximal_loss


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
    rng = rng or np.random.default_rng(0)
    importance = importance.copy()
    q_lr = importance_learning_rate if importance_learning_rate is not None \
        else learning_rate

    params = copy_params(global_params)
    global_reference = copy_params(global_params)
    optimizer = SGD(learning_rate, momentum=momentum, clip_norm=clip_norm)

    losses = []
    accuracies = []
    examples = 0
    # (Eq. 4/5) importance-derived pattern and parameter mask
    pattern = importance.pattern(model, sparse_ratio)
    param_mask = build_parameter_mask(model, pattern)
    for batch_x, batch_y in iterate_batches(dataset, batch_size, iterations, rng=rng):
        if refresh_pattern_each_iteration:
            pattern = importance.pattern(model, sparse_ratio)
            param_mask = build_parameter_mask(model, pattern)

        model.set_parameters(params)
        model.set_unit_gates(gates_from_pattern(pattern))
        model.zero_grad()
        logits = model.forward(batch_x, train=True)
        task_loss, grad = softmax_cross_entropy(logits, batch_y)
        accuracies.append(accuracy(logits, batch_y))
        model.backward(grad, input_grad=False)

        grads = model.get_gradients()
        gate_grads = _normalize_gate_gradients(model.gate_gradients())
        # (Eq. 7) proximal pull towards the global parameters
        prox_grads = proximal_gradient(params, global_reference, prox_mu)
        grads = add_gradients(grads, prox_grads)
        # (Eq. 10) only the retained sub-model's parameters are updated
        grads = {key: grads[key] * param_mask[key] for key in grads}
        _step_on_live_params(model, optimizer, grads)
        params = model.get_parameters()

        # (Eq. 11) importance indicator update: straight-through task gradient
        # through the unit gates plus the Eq. (8) regularizer gradient; the
        # targets depend on the parameters only, so one pass serves the
        # gradient here and the loss below
        targets = smoothed_unit_magnitudes(model)
        reg_grads = importance.regularization_gradient(targets, importance_lambda)
        q_grads = combine_unit_gradients(gate_grads, reg_grads)
        importance.apply_gradient(q_grads, q_lr)

        losses.append(task_loss
                      + proximal_loss(params, global_reference, prox_mu)
                      + importance.regularization_loss(targets, importance_lambda))
        examples += len(batch_y)
    model.set_unit_gates(None)

    # (Alg. 1 lines 23-25) personalized model and masked residual.  The mask
    # is the one the round actually trained with; the updated ``Q`` shapes the
    # next round's pattern.
    final_pattern = (importance.pattern(model, sparse_ratio)
                     if refresh_pattern_each_iteration else pattern)
    final_mask = build_parameter_mask(model, final_pattern)
    personalized = multiply(params, final_mask)
    residual = multiply(subtract(global_reference, params), final_mask)
    return SparseTrainingResult(
        personalized_params=personalized, residual=residual,
        pattern=final_pattern, importance=importance, sparse_ratio=sparse_ratio,
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
    per client in order: the heavy forward/backward/step tensor program runs
    batched along a leading client axis (per-client patterns as stacked unit
    gates, per-client masks broadcast over the gradients), while the cheap
    per-unit machinery — pattern derivation, gate-gradient normalization,
    importance targets/regularizers, prox losses — loops over contiguous
    per-client slices so every reduction reproduces the sequential
    computation exactly.  ``model`` is the architecture template; its own
    parameters are left untouched.
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
    if rngs is None:
        rngs = [np.random.default_rng(0) for _ in range(cohort)]
    importances = [importance.copy() for importance in importances]
    q_lr = importance_learning_rate if importance_learning_rate is not None \
        else learning_rate

    global_reference = copy_params(global_params)
    reference_b = {key: np.asarray(value, dtype=np.float64)[None]
                   for key, value in global_reference.items()}
    batched = BatchedModel(model, cohort)
    batched.set_parameters(
        {key: np.repeat(np.asarray(value, dtype=np.float64)[None],
                        cohort, axis=0)
         for key, value in global_params.items()})
    optimizer = BatchedSGD(learning_rate, momentum=momentum,
                           clip_norm=clip_norm)

    patterns = [importances[i].pattern(model, sparse_ratios[i])
                for i in range(cohort)]
    param_masks = [build_parameter_mask(model, pattern)
                   for pattern in patterns]
    stacked_masks = stack_param_dicts(param_masks)

    def _stack_gates(pattern_list):
        gate_dicts = [gates_from_pattern(pattern) for pattern in pattern_list]
        return {group.layer_name:
                np.stack([gates[group.layer_name] for gates in gate_dicts])
                for group in model.unit_groups}

    batched.set_unit_gates(_stack_gates(patterns))

    schedules = [client_batch_schedule(len(datasets[i]), batch_size,
                                       iterations, rng=rngs[i])
                 for i in range(cohort)]
    counts = np.array([len(schedule[0]) if schedule else 0
                       for schedule in schedules], dtype=np.int64)
    steps = len(schedules[0]) if schedules else 0
    width = int(counts.max()) if steps else 0
    if np.any(counts != width):
        batched.set_batch_counts(counts)

    losses: List[List[float]] = [[] for _ in range(cohort)]
    accuracies: List[List[float]] = [[] for _ in range(cohort)]
    examples = [0] * cohort
    x_pad = None
    y_pad = None
    if steps:
        sample_shape = datasets[0].x.shape[1:]
        x_pad = np.zeros((cohort, width) + tuple(sample_shape),
                         dtype=np.float64)
        y_pad = np.zeros((cohort, width), dtype=np.int64)

    factor = 2.0 * prox_mu
    for step in range(steps):
        if refresh_pattern_each_iteration:
            patterns = [importances[i].pattern(model, sparse_ratios[i])
                        for i in range(cohort)]
            param_masks = [build_parameter_mask(model, pattern)
                           for pattern in patterns]
            stacked_masks = stack_param_dicts(param_masks)
            batched.set_unit_gates(_stack_gates(patterns))
        for index in range(cohort):
            batch = schedules[index][step]
            x_pad[index, :counts[index]] = datasets[index].x[batch]
            y_pad[index, :counts[index]] = datasets[index].y[batch]
        batched.zero_grad()
        logits = batched.forward(x_pad, train=True)
        task_losses, grad = softmax_cross_entropy_cohort(logits, y_pad, counts)
        step_accuracies = accuracy_cohort(logits, y_pad, counts)
        batched.backward(grad, input_grad=False)

        grads = batched.get_gradients()
        stacked_gate_grads = batched.gate_gradients()
        current = batched.get_parameters()
        # (Eq. 7) proximal pull towards the global parameters, broadcast
        # along the client axis (same values as per-client add_gradients)
        grads = {key: grads[key] + factor * (current[key] - reference_b[key])
                 for key in grads}
        # (Eq. 10) only the retained sub-models' parameters are updated
        grads = {key: grads[key] * stacked_masks[key] for key in grads}
        optimizer.step(batched.live_parameters(), grads)
        post = batched.get_parameters()

        for index in range(cohort):
            # (Eq. 11) importance update on this client's slice, mirroring
            # the sequential order: normalized task gate-gradient plus the
            # Eq. (8) regularizer derived from the POST-step parameters
            gate_grads = _normalize_gate_gradients(
                {name: values[index]
                 for name, values in stacked_gate_grads.items()})
            targets = smoothed_targets(batched.unit_weight_magnitudes(index))
            reg_grads = importances[index].regularization_gradient(
                targets, importance_lambda)
            q_grads = combine_unit_gradients(gate_grads, reg_grads)
            importances[index].apply_gradient(q_grads, q_lr)

            prox_total = 0.0
            for key in post:
                diff = post[key][index] - global_reference[key]
                prox_total += float(np.sum(diff ** 2))
            losses[index].append(
                float(task_losses[index]) + prox_mu * prox_total
                + importances[index].regularization_loss(
                    targets, importance_lambda))
            accuracies[index].append(float(step_accuracies[index]))
            examples[index] += int(counts[index])

    batched.set_unit_gates(None)
    final_stacked = batched.get_parameters()
    results: List[SparseTrainingResult] = []
    for index in range(cohort):
        params = {key: np.array(value[index], copy=True)
                  for key, value in final_stacked.items()}
        final_pattern = (importances[index].pattern(model, sparse_ratios[index])
                         if refresh_pattern_each_iteration
                         else patterns[index])
        final_mask = build_parameter_mask(model, final_pattern)
        personalized = multiply(params, final_mask)
        residual = multiply(subtract(global_reference, params), final_mask)
        results.append(SparseTrainingResult(
            personalized_params=personalized, residual=residual,
            pattern=final_pattern, importance=importances[index],
            sparse_ratio=sparse_ratios[index],
            train_accuracy=(float(np.mean(accuracies[index]))
                            if accuracies[index] else 0.0),
            train_loss=(float(np.mean(losses[index]))
                        if losses[index] else 0.0),
            examples_seen=examples[index]))
    return results


def _normalize_gate_gradients(gate_grads: Mapping[str, np.ndarray]
                              ) -> dict[str, np.ndarray]:
    """Scale each layer's gate gradient to unit maximum magnitude.

    The raw straight-through gradient sums over batch and spatial positions,
    so convolution layers produce values orders of magnitude larger than
    fully-connected layers.  Only the relative ordering within a layer matters
    for the quantile threshold of Eq. (4), so each layer is normalized to make
    the importance learning rate meaningful across architectures.
    """
    normalized = {}
    for name, grad in gate_grads.items():
        grad = np.asarray(grad, dtype=np.float64)
        peak = float(np.max(np.abs(grad)))
        normalized[name] = grad / peak if peak > 0 else grad
    return normalized


def _step_on_live_params(model: Sequential, optimizer: SGD,
                         grads: ParamDict) -> None:
    live = {}
    for layer in model.layers:
        for key in layer.params:
            live[f"{layer.name}.{key}"] = layer.params[key]
    optimizer.step(live, grads)
