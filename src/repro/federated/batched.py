"""The generic local trainer: one step body, run as a cohort program.

Local SGD for ``C`` same-architecture clients is ONE entry,
:func:`train_cohort_batched`, over a *program* — an object with
:class:`~repro.nn.batched.BatchedModel`'s training surface, every parameter,
gradient and gate carrying a leading client axis: a ``BatchedModel`` for a
cohort, a :class:`~repro.nn.batched.CohortOfOne` for one client (its own
``Sequential``, trained in place by its own kernels, so models without
batched kernels — dropout, embeddings, recurrent layers — train too).

The body covers what the baselines combine: dense SGD (FedAvg), a proximal
pull (FedProx, Ditto), parameter masks that keep zeroed entries zero,
unit-gate patterns for structured sub-models (HeteroFL, FjORD, FedRolex)
and updates restricted to some keys (FedPer, FedRep heads).  Clients whose
shard is smaller than the batch pad to the widest batch with zero rows and
per-client row counts (provable no-ops, see :mod:`repro.nn.batched`), and
every client draws its mini-batches from its own RNG stream
(:func:`client_batch_schedule`), so its :class:`LocalUpdateResult` is
bit-for-bit the same whichever cohort — or none — it trains in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..nn.arena import cohort_squared_norms
from ..nn.batched import cohort_program, stack_param_dicts, unstack_param_dict
from ..nn.losses import accuracy_cohort, softmax_cross_entropy_cohort
from ..nn.model import Sequential
from ..nn.optim import BatchedSGD
from ..nn.params import ParamDict

__all__ = ["CohortBatches", "LocalUpdateResult", "client_batch_schedule",
           "train_cohort_batched"]


@dataclass
class LocalUpdateResult:
    """Outcome of one client's local training pass."""

    params: ParamDict
    train_accuracy: float
    train_loss: float
    examples_seen: int


def client_batch_schedule(n_examples: int, batch_size: int, iterations: int, *,
                          rng: np.random.Generator) -> List[np.ndarray]:
    """One client's ``iterations`` mini-batch index arrays for a round.

    Draws one permutation up front and reshuffles when fewer than
    ``batch_size`` indices remain; the draws depend on ``rng`` alone, so a
    client's stream advances the same way in any cohort.  Every batch has
    the same length ``min(batch_size, n_examples)``.
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


class CohortBatches:
    """What both trainer families do around their step: per-client argument
    checks, batch schedules, the padded ``(C, width, ...)`` gather and the
    ``(C, steps)`` metric ledgers."""

    def __init__(self, program, datasets: Sequence[Dataset], *,
                 batch_size: int, iterations: int,
                 rngs: Optional[Sequence[np.random.Generator]],
                 **per_client: Optional[Sequence]) -> None:
        cohort = len(datasets)
        for name, value in dict(per_client, rngs=rngs).items():
            if value is not None and len(value) != cohort:
                raise ValueError(f"{name} must have one entry per client")
        if rngs is None:
            rngs = [np.random.default_rng(0) for _ in range(cohort)]
        self.program = program
        self.datasets = datasets
        self.schedules = [client_batch_schedule(len(dataset), batch_size,
                                                iterations, rng=rng)
                          for dataset, rng in zip(datasets, rngs)]
        self.steps = len(self.schedules[0])
        self.counts = np.array([len(schedule[0]) if self.steps else 0
                                for schedule in self.schedules], dtype=np.int64)
        width = int(self.counts.max())
        if np.any(self.counts != width):
            program.set_batch_counts(self.counts)
        # the dataset's own input dtype: token ids reach an Embedding as ints
        self._x = np.zeros((cohort, width) + datasets[0].x.shape[1:],
                           dtype=datasets[0].x.dtype)
        self._y = np.zeros((cohort, width), dtype=np.int64)
        # one all-zero column when no step runs, so both means read 0.0
        self.losses = np.zeros((cohort, max(self.steps, 1)))
        self._accuracies = np.zeros_like(self.losses)

    def step(self, step: int) -> np.ndarray:
        """Gather every client's batch of ``step``, run forward, loss and
        backward, record the accuracies and return the ``(C,)`` task losses
        (the trainer fills in ``losses[:, step]``)."""
        for index, dataset in enumerate(self.datasets):
            batch = self.schedules[index][step]
            self._x[index, :self.counts[index]] = dataset.x[batch]
            self._y[index, :self.counts[index]] = dataset.y[batch]
        self.program.zero_grad()
        logits = self.program.forward(self._x, train=True)
        task_losses, grad = softmax_cross_entropy_cohort(
            logits, self._y, self.counts)
        self._accuracies[:, step] = accuracy_cohort(logits, self._y, self.counts)
        self.program.backward(grad, input_grad=False)
        return task_losses

    def metrics(self) -> List[Dict[str, float]]:
        """Per client: the step means and ``examples_seen`` of a result."""
        accuracies = np.mean(self._accuracies, axis=-1)
        losses = np.mean(self.losses, axis=-1)
        return [dict(train_accuracy=float(accuracies[index]),
                     train_loss=float(losses[index]),
                     examples_seen=self.steps * int(count))
                for index, count in enumerate(self.counts)]


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
    """Run local SGD for ``len(datasets)`` clients, client ``i`` starting
    from ``start_params[i]`` on ``datasets[i]``, and return one result each.

    The program is :func:`~repro.nn.batched.cohort_program`'s: one client
    trains ``model`` in place (on return it holds the trained parameters,
    gates cleared), a larger cohort runs as one stacked tensor program
    with ``model`` as its untouched template.  Each client's result is
    bit-for-bit the same either way.

    Args:
        iterations: number of SGD steps (``E`` in the paper).
        batch_size: mini-batch size.
        learning_rate, momentum, clip_norm: optimizer settings;
            ``learning_rate`` may be a scalar or a per-client ``(C,)``
            vector.
        prox_mu: weight of the proximal term ``mu * ||w - w_center||^2``.
        prox_center: the shared reference of the proximal term (defaults
            to each client's own ``start_params`` when ``prox_mu > 0``).
        param_masks: per-client binary parameter masks; masked entries are
            zeroed at the start and their gradients suppressed, so they
            stay zero.
        patterns: per-client structured unit patterns, installed as
            forward gates during training (sub-model training).
        trainable_keys: if given, only these parameter keys are updated.
        rngs: per-client randomness sources for batch sampling.

    The step's bookkeeping is one ufunc call per operation over the flat
    parameter and gradient arenas (the gradient arena doubles as the
    step's scratch: ``zero_grad`` refills it before every backward).
    """
    cohort = len(datasets)
    if cohort == 0:
        return []
    program = cohort_program(model, cohort)
    batches = CohortBatches(program, datasets, batch_size=batch_size,
                            iterations=iterations, rngs=rngs,
                            start_params=start_params,
                            param_masks=param_masks, patterns=patterns,
                            learning_rate=None if np.ndim(learning_rate) == 0
                            else learning_rate)
    # the optimizer steps these arrays in place for the whole round
    params = program.live_parameters()
    grads = program.live_gradients()
    optimizer = BatchedSGD(params, learning_rate, momentum=momentum,
                           clip_norm=clip_norm)

    starts = stack_param_dicts(start_params)
    program.set_parameters(starts)
    masks = None
    if param_masks is not None:
        masks = params.like()
        masks.load(stack_param_dicts(param_masks))
        np.multiply(params.flat, masks.flat, out=params.flat)
    if patterns is not None:
        program.set_unit_gates(stack_param_dicts(patterns))
    centers = drift = scratch = None
    if prox_mu > 0.0:
        # each client's own unmasked start, or the shared center repeated
        # along the client axis
        centers = params.like()
        centers.load(starts if prox_center is None
                     else stack_param_dicts([prox_center] * cohort))
        drift, scratch = params.like(), params.like()
    # frozen keys step by zeros, written over the gradient (a 0/1 mask
    # would turn an infinite gradient into NaN)
    frozen = [] if trainable_keys is None else [
        grad for key, grad in grads.items() if key not in trainable_keys]

    for step in range(batches.steps):
        losses = batches.step(step)
        if centers is not None:
            # grads + (2 * mu) * (w - center) from the PRE-step drift; the
            # loss term accumulates the per-key sums in key order
            np.subtract(params.flat, centers.flat, out=drift.flat)
            np.multiply(drift.flat, 2.0 * prox_mu, out=scratch.flat)
            np.add(grads.flat, scratch.flat, out=grads.flat)
            losses = losses + prox_mu * cohort_squared_norms(drift, scratch)
        if masks is not None:
            np.multiply(grads.flat, masks.flat, out=grads.flat)
        for grad in frozen:
            grad.fill(0.0)
        batches.losses[:, step] = losses
        optimizer.step(grads)
    program.set_unit_gates(None)

    trained = params
    if masks is not None:
        np.multiply(params.flat, masks.flat, out=masks.flat)
        trained = masks
    return [LocalUpdateResult(params=unstack_param_dict(trained, index),
                              **metrics)
            for index, metrics in enumerate(batches.metrics())]
