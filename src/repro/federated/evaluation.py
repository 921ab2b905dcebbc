"""Evaluation of global and personalized models on client test shards."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Dataset
from ..nn import accuracy
from ..nn.batched import BatchedModel, stack_param_dicts
from ..nn.model import Sequential
from ..sparsity.masks import gates_from_pattern

#: one client's inference model: its parameters and optional unit pattern
Evaluation = Tuple[Mapping[str, np.ndarray], Optional[Mapping[str, np.ndarray]]]


def evaluate_params(model: Sequential, params: Mapping[str, np.ndarray],
                    dataset: Dataset, *, batch_size: int = 64,
                    pattern: Optional[Mapping[str, np.ndarray]] = None
                    ) -> float:
    """Accuracy of ``params`` on ``dataset``.

    ``pattern`` installs structured gates for methods whose inference model is
    a sub-model of the global architecture.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    model.set_parameters(params)
    if pattern is not None:
        model.set_unit_gates(gates_from_pattern(pattern))
    correct = 0.0
    total = 0
    for start in range(0, len(dataset), batch_size):
        batch_x = dataset.x[start:start + batch_size]
        batch_y = dataset.y[start:start + batch_size]
        logits = model.forward(batch_x, train=False)
        correct += accuracy(logits, batch_y) * len(batch_y)
        total += len(batch_y)
    model.set_unit_gates(None)
    return float(correct / total)


def evaluate_cohort(model: Sequential, evaluations: Sequence[Evaluation],
                    test_sets: Sequence[Dataset], *, max_rows: int,
                    batch_size: int = 64) -> List[float]:
    """Accuracy of each ``evaluations[i] = (params, pattern)`` on
    ``test_sets[i]``, as stacked ``(C, ...)`` forward programs.

    Clients stack when their test shards have the same length and they all
    or none carry a pattern, so no row is padded and no gate is a row of
    ones; a forward carries at most ``max_rows`` rows (clients x
    ``min(length, batch_size)``), and a client that stacks with no other
    runs through :func:`evaluate_params` on ``model`` itself (a ``(1, N,
    K)`` GEMM is not a proven bit-identity of the 2-D one).  Stacks of
    one size share one :class:`~repro.nn.batched.BatchedModel`, built from
    ``model`` as its template, which must therefore be batchable
    (:func:`~repro.nn.batched.batchable_model`) once two clients stack.

    Each accuracy is the float :func:`evaluate_params` returns: the same
    ``batch_size`` windows, each client's slice of the stacked logits is
    its own forward's bit for bit (C > 1 batched matmuls and last-axis
    reductions, ``tests/nn/test_slice_identity.py``), and the hits add up
    in the same order.
    """
    if len(evaluations) != len(test_sets):
        raise ValueError("evaluations and test_sets must pair up")
    if any(len(dataset) == 0 for dataset in test_sets):
        raise ValueError("cannot evaluate on an empty dataset")
    groups: Dict[Tuple[int, bool], List[int]] = {}
    for index, (dataset, (_, pattern)) in enumerate(zip(test_sets, evaluations)):
        groups.setdefault((len(dataset), pattern is None), []).append(index)
    accuracies = [0.0] * len(test_sets)
    programs: Dict[int, BatchedModel] = {}
    for (length, _), members in groups.items():
        # as few forwards as keep each within max_rows, sizes within one
        per_forward = max(1, max_rows // min(length, batch_size))
        forwards = -(-len(members) // per_forward)
        for part in range(forwards):
            stack = members[len(members) * part // forwards:
                            len(members) * (part + 1) // forwards]
            if len(stack) == 1:
                params, pattern = evaluations[stack[0]]
                accuracies[stack[0]] = evaluate_params(
                    model, params, test_sets[stack[0]], batch_size=batch_size,
                    pattern=pattern)
                continue
            if len(stack) not in programs:
                programs[len(stack)] = BatchedModel(model, len(stack))
            for index, value in zip(stack, _stacked_accuracies(
                    programs[len(stack)],
                    [evaluations[index] for index in stack],
                    [test_sets[index] for index in stack], batch_size)):
                accuracies[index] = value
    return accuracies


def _stacked_accuracies(program: BatchedModel,
                        evaluations: Sequence[Evaluation],
                        test_sets: Sequence[Dataset], batch_size: int
                        ) -> List[float]:
    """:func:`evaluate_params`' accuracies of the ``program.cohort``
    clients, whose shards have one length and whose patterns are all set
    or all ``None``, as one stacked forward per window."""
    program.set_parameters(stack_param_dicts([params for params, _ in evaluations]))
    patterns = [pattern for _, pattern in evaluations]
    program.set_unit_gates(None if patterns[0] is None else stack_param_dicts(
        [gates_from_pattern(pattern) for pattern in patterns]))
    correct = [0.0] * len(evaluations)
    length = len(test_sets[0])
    for start in range(0, length, batch_size):
        # float64 rows, as each client's first layer would cast them
        logits = program.forward(np.array(
            [dataset.x[start:start + batch_size] for dataset in test_sets],
            dtype=np.float64), train=False)
        for index, dataset in enumerate(test_sets):
            batch_y = dataset.y[start:start + batch_size]
            correct[index] += accuracy(logits[index], batch_y) * len(batch_y)
    return [float(hits / length) for hits in correct]
