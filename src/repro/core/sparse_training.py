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

The round is spelled once, in :func:`learnable_sparse_training_cohort`, over
a *program* (:class:`~repro.nn.batched.BatchedModel`'s training surface): a
``BatchedModel`` for a cohort, one client's own ``Sequential`` behind a
:class:`~repro.nn.batched.CohortOfOne` for one client.  The program's
parameters, gradients and gate gradients are flat
:class:`~repro.nn.arena.Arena` buffers, and so are the round's masks,
proximal reference, drift and stacked ``Q``: each step's
bookkeeping — the Eq. 7 proximal pull, the Eq. 10 masked SGD step and the
Eq. 11 ``Q`` update against the Eq. 8 targets — is one ufunc call per
operation over a whole buffer, and only the norms, peaks and Eq. 8
statistics reduce per key or per unit layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..federated.batched import CohortBatches
from ..nn.arena import Arena, cohort_squared_norms
from ..nn.batched import cohort_program, stack_param_dicts, unstack_param_dict
from ..nn.model import Sequential
from ..nn.optim import BatchedSGD
from ..nn.params import ParamDict
from ..sparsity.masks import UnitPattern, build_parameter_mask
from ..util import in_range, non_negative, positive
from .importance import ImportanceIndicator, smoothed_targets


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
    """Run the FedLPS local update for ``len(datasets)`` clients, client
    ``i`` from its own ``importances[i]`` at ``sparse_ratios[i]`` on
    ``datasets[i]``, and return one result each.

    The program is :func:`~repro.nn.batched.cohort_program`'s: one client
    trains ``model`` in place (on return it holds the round's dense
    parameters, gates cleared), a larger cohort runs as one stacked tensor
    program with ``model`` as its untouched template.  Each client's
    result is bit-for-bit the same either way.

    Patterns are stacked unit gates, masks an arena over the parameters and
    ``Q`` a ``(C, n_units)`` unit arena for the round.  Every element-wise
    operation of a step is one ufunc call over a whole arena, and every
    reduction reduces the trailing axes of one key's (one unit layer's)
    C-contiguous view, slice-identical to one client's own reduction (the
    contract in :mod:`repro.nn.batched`).  Only pattern derivation and the
    mini-batch gather visit clients one by one.

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
    cohort = len(datasets)
    if cohort == 0:
        return []
    for ratio in sparse_ratios:
        in_range(ratio, "sparse_ratio", 0, 1, low_open=True)
    non_negative(prox_mu, "prox_mu")
    program = cohort_program(model, cohort)
    # the optimizer steps these arrays in place for the whole round
    params = program.live_parameters()
    grads = program.live_gradients()
    optimizer = BatchedSGD(params, learning_rate, momentum=momentum,
                           clip_norm=clip_norm)
    q_lr = positive(importance_learning_rate
                    if importance_learning_rate is not None
                    else learning_rate, "importance_learning_rate")
    batches = CohortBatches(program, datasets, batch_size=batch_size,
                            iterations=iterations, rngs=rngs,
                            importances=importances,
                            sparse_ratios=sparse_ratios)
    gate_grads = program.gate_gradients()
    scores = ImportanceIndicator.stack(importances, layout=gate_grads)
    q = scores.scores.flat

    reference = params.like()
    reference.load(stack_param_dicts([global_params] * cohort))
    program.set_parameters(reference)
    masks, drift, scratch = params.like(), params.like(), params.like()
    normalized, targets, units = (gate_grads.like() for _ in range(3))

    def derive_patterns():
        """(Eq. 4/5) every client's pattern from its row of ``Q``, installed
        as stacked gates and loaded as the stacked masks."""
        patterns = [scores.row(i).pattern(model, sparse_ratios[i])
                    for i in range(cohort)]
        program.set_unit_gates(stack_param_dicts(patterns))
        masks.load(stack_param_dicts(
            [build_parameter_mask(model, pattern) for pattern in patterns]))
        return patterns

    patterns = derive_patterns()
    # omega - omega_global: the operand of this step's Eq. 7 gradient is
    # the one the previous step's L_pr was computed from
    np.subtract(params.flat, reference.flat, out=drift.flat)
    factor = 2.0 * prox_mu
    for step in range(batches.steps):
        if refresh_pattern_each_iteration:
            patterns = derive_patterns()
        task_losses = batches.step(step)

        _normalize_gate_gradients(gate_grads, out=normalized)
        # (Eq. 7) proximal pull towards the global parameters, then
        # (Eq. 10) each client's mask over its own gradients: only the
        # retained sub-model's parameters are updated
        np.multiply(factor, drift.flat, out=scratch.flat)
        np.add(grads.flat, scratch.flat, out=grads.flat)
        np.multiply(grads.flat, masks.flat, out=grads.flat)
        optimizer.step(grads)
        np.subtract(params.flat, reference.flat, out=drift.flat)

        # (Eq. 11) importance update on the stacked scores: normalized
        # straight-through task gradient through the unit gates plus the
        # Eq. (8) regularizer gradient 2 * lambda * (Q - T), with the
        # targets T derived from the POST-step parameters; they depend on
        # the parameters only, so one pass serves the gradient here and
        # the loss below
        smoothed_targets(program.unit_weight_magnitudes(), out=targets)
        np.subtract(q, targets.flat, out=units.flat)
        np.multiply(2.0 * importance_lambda, units.flat, out=units.flat)
        np.add(normalized.flat, units.flat, out=units.flat)
        np.multiply(q_lr, units.flat, out=units.flat)
        np.subtract(q, units.flat, out=q)
        # L_ir = lambda * ||Q - T||^2 of the updated scores
        np.subtract(q, targets.flat, out=units.flat)
        batches.losses[:, step] = (
            task_losses + prox_mu * cohort_squared_norms(drift, scratch)
            + importance_lambda * cohort_squared_norms(units, units))

    # (Alg. 1 lines 23-25) personalized models and masked residuals.  The
    # masks are the ones the round trained with unless Q moved them; the
    # updated ``Q`` shapes the next round's pattern.
    if refresh_pattern_each_iteration:
        patterns = derive_patterns()
    program.set_unit_gates(None)
    personalized, residual = scratch, drift
    np.multiply(params.flat, masks.flat, out=personalized.flat)
    np.subtract(reference.flat, params.flat, out=residual.flat)
    np.multiply(residual.flat, masks.flat, out=residual.flat)
    return [SparseTrainingResult(
        personalized_params=unstack_param_dict(personalized, index),
        residual=unstack_param_dict(residual, index),
        pattern=patterns[index], importance=scores.row(index),
        sparse_ratio=sparse_ratios[index], **metrics)
        for index, metrics in enumerate(batches.metrics())]


def _normalize_gate_gradients(gate_grads: Arena, *, out: Arena) -> Arena:
    """Scale each layer's gate gradient to unit maximum magnitude, into
    ``out`` (laid out like ``gate_grads``).

    The raw straight-through gradient sums over batch and spatial positions,
    so convolution layers produce values orders of magnitude larger than
    fully-connected layers.  Only the relative ordering within a layer matters
    for the quantile threshold of Eq. (4), so each layer is normalized to make
    the importance learning rate meaningful across architectures.  The peak
    is ``np.max``'s ``maximum.reduce`` of one flat ``abs`` over the last
    axis of each layer's ``(C, n_units)`` block — per client — and a row
    without a positive peak (all zero, or NaN) divides by ``1.0``, a bitwise
    identity that keeps its sign bits.
    """
    np.abs(gate_grads.flat, out=out.flat)
    for name, block in out.items():
        peak = np.maximum.reduce(block, axis=-1)
        np.divide(gate_grads[name], np.where(peak > 0, peak, 1.0)[:, None],
                  out=block)
    return out
