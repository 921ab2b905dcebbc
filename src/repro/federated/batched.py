"""Vectorized cohort-local training: the client axis as a tensor dimension.

``train_cohort_batched`` is the batched twin of
:func:`repro.federated.local.train_locally`: it stacks a cohort's
same-architecture clients along a leading client axis and runs ONE batched
forward/backward/SGD-step program per mini-batch step.  Per-client masks and
unit-gate patterns apply as multiplicative gates broadcast along the client
axis; per-client prox terms and metrics are last-axis reductions of the
stack, slice-identical to the sequential ones.

Ragged cohorts — clients whose shard is smaller than the batch size — pad
to the widest per-client batch with zero rows and per-client row counts;
the padded rows are provable no-ops (the loss gradient zeroes them before
backward, and count-aware reductions in :mod:`repro.nn.batched` keep every
summation tree identical to the sequential loop).

Each client's mini-batch index sequence replicates
:func:`repro.federated.local.iterate_batches` exactly (same RNG consumption,
same reshuffle-on-exhaustion), so a batched run consumes per-client RNG
streams identically to the per-client loop and the resulting
:class:`~repro.federated.local.LocalUpdateResult` list is bit-for-bit equal
to running ``train_locally`` once per client.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..nn.batched import BatchedModel, stack_param_dicts, unstack_param_dict
from ..nn.losses import accuracy_cohort, softmax_cross_entropy_cohort
from ..nn.model import Sequential
from ..nn.optim import BatchedSGD, cohort_squared_norms
from ..nn.params import ParamDict, copy_params, multiply
from ..sparsity.masks import gates_from_pattern
from .local import LocalUpdateResult

__all__ = ["client_batch_schedule", "train_cohort_batched"]


def client_batch_schedule(n_examples: int, batch_size: int, iterations: int, *,
                          rng: np.random.Generator) -> List[np.ndarray]:
    """Precompute the index batches ``iterate_batches`` would draw.

    Consumes ``rng`` exactly as :func:`repro.federated.local.iterate_batches`
    does (one permutation up front, reshuffle when fewer than ``batch_size``
    indices remain), so a batched run and a sequential run advance a
    client's RNG stream identically.  Every batch has the same length
    ``min(batch_size, n_examples)``.
    """
    batches: List[np.ndarray] = []
    if iterations <= 0:
        return batches
    indices = rng.permutation(n_examples)
    cursor = 0
    for _ in range(iterations):
        if cursor + batch_size > len(indices):
            indices = rng.permutation(n_examples)
            cursor = 0
        batches.append(indices[cursor:cursor + batch_size])
        cursor += batch_size
    return batches


def train_cohort_batched(
        model: Sequential,
        start_params: Sequence[Mapping[str, np.ndarray]],
        datasets: Sequence[Dataset], *,
        iterations: int, batch_size: int, learning_rate,
        momentum: float = 0.0, clip_norm: Optional[float] = None,
        prox_mu: float = 0.0,
        prox_center: Optional[Mapping[str, np.ndarray]] = None,
        param_masks: Optional[Sequence[Mapping[str, np.ndarray]]] = None,
        patterns: Optional[Sequence[Mapping[str, np.ndarray]]] = None,
        trainable_keys: Optional[Sequence[str]] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
) -> List[LocalUpdateResult]:
    """Run local SGD for a whole cohort as one batched tensor program.

    Semantically equivalent to calling ``train_locally(model,
    start_params[i], datasets[i], ...)`` for each client in order — and
    bit-for-bit equal on every returned parameter and metric.  ``model`` is
    the architecture template; its own parameters are left untouched.

    ``learning_rate`` may be a scalar or a per-client ``(C,)`` vector;
    ``prox_center`` is the shared proximal reference (defaults to each
    client's own ``start_params`` when ``prox_mu > 0``, matching
    ``train_locally``).
    """
    cohort = len(datasets)
    if cohort == 0:
        return []
    if len(start_params) != cohort:
        raise ValueError("start_params and datasets must have equal length")
    for name, value in (("param_masks", param_masks), ("patterns", patterns),
                        ("rngs", rngs)):
        if value is not None and len(value) != cohort:
            raise ValueError(f"{name} must have one entry per client")
    if rngs is None:
        rngs = [np.random.default_rng(0) for _ in range(cohort)]

    batched = BatchedModel(model, cohort)
    masked_starts: List[ParamDict] = []
    for index in range(cohort):
        params = copy_params(start_params[index])
        if param_masks is not None:
            params = multiply(params, param_masks[index])
        masked_starts.append(params)
    batched.set_parameters(stack_param_dicts(masked_starts))

    stacked_masks: Optional[ParamDict] = None
    if param_masks is not None:
        stacked_masks = stack_param_dicts(param_masks)
    if patterns is not None:
        gate_dicts = [gates_from_pattern(pattern) for pattern in patterns]
        batched.set_unit_gates(
            {name: np.stack([gates[name] for gates in gate_dicts])
             for name in gate_dicts[0]})

    centers: Optional[ParamDict] = None
    if prox_mu > 0.0:
        if prox_center is not None:
            # shared center: a (1, ...) view broadcasts along the client axis
            centers = {key: np.asarray(value, dtype=np.float64)[None]
                       for key, value in prox_center.items()}
        else:
            centers = stack_param_dicts([copy_params(p) for p in start_params])

    schedules = [client_batch_schedule(len(datasets[index]), batch_size,
                                       iterations, rng=rngs[index])
                 for index in range(cohort)]
    steps = len(schedules[0])
    counts = np.array([len(schedule[0]) if steps else 0
                       for schedule in schedules], dtype=np.int64)
    width = int(counts.max())
    if np.any(counts != width):
        batched.set_batch_counts(counts)

    optimizer = BatchedSGD(learning_rate, momentum=momentum,
                           clip_norm=clip_norm)
    # the optimizer steps these arrays in place for the whole round
    params = batched.live_parameters()
    losses = np.zeros((cohort, steps))
    accuracies = np.zeros((cohort, steps))

    frozen_zeros: Optional[Dict[str, np.ndarray]] = None
    allowed: Optional[set] = None
    if trainable_keys is not None:
        allowed = set(trainable_keys)
        frozen_zeros = {key: np.zeros_like(value)
                        for key, value in params.items()
                        if key not in allowed}

    x_pad = np.zeros((cohort, width) + datasets[0].x.shape[1:])
    y_pad = np.zeros((cohort, width), dtype=np.int64)
    for step in range(steps):
        for index in range(cohort):
            batch = schedules[index][step]
            x_pad[index, :counts[index]] = datasets[index].x[batch]
            y_pad[index, :counts[index]] = datasets[index].y[batch]
        batched.zero_grad()
        logits = batched.forward(x_pad, train=True)
        losses[:, step], grad = softmax_cross_entropy_cohort(
            logits, y_pad, counts)
        accuracies[:, step] = accuracy_cohort(logits, y_pad, counts)
        batched.backward(grad, input_grad=False)
        grads = batched.live_gradients()
        if centers is not None:
            # mirror train_locally: grads + (2 * mu) * (w - center), and the
            # loss term accumulates the per-key sums in dictionary order
            drift = {key: value - centers[key] for key, value in params.items()}
            grads = {key: grad + drift[key] * (2.0 * prox_mu)
                     for key, grad in grads.items()}
            losses[:, step] += prox_mu * cohort_squared_norms(drift)
        if stacked_masks is not None:
            grads = {key: grads[key] * stacked_masks[key] for key in grads}
        if allowed is not None:
            grads = {key: (value if key in allowed else frozen_zeros[key])
                     for key, value in grads.items()}
        optimizer.step(params, grads)

    final_stacked = params
    if stacked_masks is not None:
        final_stacked = multiply(params, stacked_masks)
    train_accuracies = np.mean(accuracies, axis=-1) if steps else np.zeros(cohort)
    train_losses = np.mean(losses, axis=-1) if steps else np.zeros(cohort)
    return [LocalUpdateResult(
        params=unstack_param_dict(final_stacked, index),
        train_accuracy=float(train_accuracies[index]),
        train_loss=float(train_losses[index]),
        examples_seen=steps * int(counts[index]))
        for index in range(cohort)]
