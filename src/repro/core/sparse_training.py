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

The round is spelled once, in :func:`_sparse_training_program`, over a
*program* (:class:`~repro.nn.batched.BatchedModel`'s training surface): a
``BatchedModel`` for :func:`learnable_sparse_training_cohort`, one client's
own ``Sequential`` behind a :class:`~repro.nn.batched.CohortOfOne` for
:func:`learnable_sparse_training`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..federated.batched import CohortBatches
from ..nn.batched import (BatchedModel, CohortOfOne, stack_param_dicts,
                          unstack_param_dict)
from ..nn.model import Sequential
from ..nn.optim import BatchedSGD, cohort_squared_norms
from ..nn.params import ParamDict, multiply, subtract
from ..sparsity.masks import UnitPattern, build_parameter_mask
from .importance import (ImportanceIndicator, combine_unit_gradients,
                         smoothed_targets)


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

    ``model`` is trained in place: on return it holds the round's dense
    parameters, gates cleared.

    Args:
        refresh_pattern_each_iteration: Algorithm 1 re-derives the mask from
            ``Q`` in every local iteration.  With the small backbones of this
            reproduction that per-iteration re-masking makes the top-k pattern
            oscillate between marginal units and wastes most of the round's
            training, so by default the pattern is derived once per round from
            the incoming ``Q`` and held fixed while ``Q`` itself keeps being
            learned for the next round (README, "Departures from the paper").
            Set this flag to True for the paper's literal per-iteration
            behaviour.
    """
    return _sparse_training_program(
        CohortOfOne(model), model, global_params, [importance], [dataset],
        sparse_ratios=[sparse_ratio], iterations=iterations,
        batch_size=batch_size, learning_rate=learning_rate, momentum=momentum,
        clip_norm=clip_norm, prox_mu=prox_mu,
        importance_lambda=importance_lambda,
        importance_learning_rate=importance_learning_rate,
        refresh_pattern_each_iteration=refresh_pattern_each_iteration,
        rngs=None if rng is None else [rng])[0]


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
    per client in order.  ``model`` is the architecture template; its own
    parameters are left untouched.
    """
    if len(datasets) == 0:
        return []
    return _sparse_training_program(
        BatchedModel(model, len(datasets)), model, global_params, importances,
        datasets, sparse_ratios=sparse_ratios, iterations=iterations,
        batch_size=batch_size, learning_rate=learning_rate, momentum=momentum,
        clip_norm=clip_norm, prox_mu=prox_mu,
        importance_lambda=importance_lambda,
        importance_learning_rate=importance_learning_rate,
        refresh_pattern_each_iteration=refresh_pattern_each_iteration,
        rngs=rngs)


def _sparse_training_program(
        program, model, global_params, importances, datasets, *,
        sparse_ratios, iterations, batch_size, learning_rate, momentum,
        clip_norm, prox_mu, importance_lambda, importance_learning_rate,
        refresh_pattern_each_iteration, rngs) -> List[SparseTrainingResult]:
    """The FedLPS trainer's one body: ``len(datasets)`` clients on
    ``program``, with ``model`` as the architecture the patterns refer to.

    Patterns are stacked unit gates, masks broadcast over the gradients and
    ``Q`` is a ``(C, n_units)`` stack for the round; the per-unit machinery
    is element-wise or reduces the trailing axes of a C-contiguous stack,
    slice-identical to one client's own reduction (the contract in
    :mod:`repro.nn.batched`).  Only pattern derivation and the mini-batch
    gather visit clients one by one.
    """
    cohort = len(datasets)
    for ratio in sparse_ratios:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"sparse_ratio must be in (0, 1], got {ratio}")
    if prox_mu < 0:
        raise ValueError("prox_mu must be non-negative")
    batches = CohortBatches(program, datasets, batch_size=batch_size,
                            iterations=iterations, rngs=rngs,
                            importances=importances,
                            sparse_ratios=sparse_ratios)
    scores = ImportanceIndicator.stack(importances)
    q_lr = importance_learning_rate if importance_learning_rate is not None \
        else learning_rate

    reference = stack_param_dicts([global_params])
    program.set_parameters({key: np.repeat(value, cohort, axis=0)
                            for key, value in reference.items()})
    # the optimizer steps these arrays in place for the whole round
    params = program.live_parameters()
    optimizer = BatchedSGD(learning_rate, momentum=momentum,
                           clip_norm=clip_norm)

    def derive_patterns():
        """(Eq. 4/5) every client's pattern from its row of ``Q``, installed
        as stacked gates; returns the patterns and the stacked masks."""
        patterns = [scores.row(i).pattern(model, sparse_ratios[i])
                    for i in range(cohort)]
        program.set_unit_gates(stack_param_dicts(patterns))
        return patterns, stack_param_dicts(
            [build_parameter_mask(model, pattern) for pattern in patterns])

    patterns, masks = derive_patterns()
    # omega - omega_global: the operand of this step's Eq. 7 gradient is
    # the one the previous step's L_pr was computed from; the (1, ...)
    # reference broadcasts along the client axis
    drift = subtract(params, reference)
    factor = 2.0 * prox_mu
    for step in range(batches.steps):
        if refresh_pattern_each_iteration:
            patterns, masks = derive_patterns()
        task_losses = batches.step(step)

        gate_grads = _normalize_gate_gradients(program.gate_gradients())
        # (Eq. 7) proximal pull towards the global parameters, then
        # (Eq. 10) each client's mask over its own gradients: only the
        # retained sub-model's parameters are updated
        optimizer.step(params, {
            key: (grad + factor * drift[key]) * masks[key]
            for key, grad in program.live_gradients().items()})
        drift = subtract(params, reference)

        # (Eq. 11) importance update on the stacked scores: normalized
        # straight-through task gradient through the unit gates plus the
        # Eq. (8) regularizer derived from the POST-step parameters; the
        # targets depend on the parameters only, so one pass serves the
        # gradient here and the loss below
        targets = smoothed_targets(program.unit_weight_magnitudes())
        reg_grads = scores.regularization_gradient(targets, importance_lambda)
        scores.apply_gradient(
            combine_unit_gradients(gate_grads, reg_grads), q_lr)
        batches.losses[:, step] = (
            task_losses + prox_mu * cohort_squared_norms(drift)
            + scores.regularization_loss(targets, importance_lambda))

    # (Alg. 1 lines 23-25) personalized models and masked residuals.  The
    # masks are the ones the round trained with unless Q moved them; the
    # updated ``Q`` shapes the next round's pattern.
    if refresh_pattern_each_iteration:
        patterns, masks = derive_patterns()
    program.set_unit_gates(None)
    personalized = multiply(params, masks)
    residual = multiply(subtract(reference, params), masks)
    return [SparseTrainingResult(
        personalized_params=unstack_param_dict(personalized, index),
        residual=unstack_param_dict(residual, index),
        pattern=patterns[index], importance=scores.row(index),
        sparse_ratio=sparse_ratios[index], **metrics)
        for index, metrics in enumerate(batches.metrics())]


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
