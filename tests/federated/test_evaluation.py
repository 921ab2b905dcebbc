"""The stacked evaluation sweep against the per-client loop, bit for bit.

``repro.federated.evaluation.evaluate_cohort`` runs a chunk of clients'
personalized models as stacked ``(C, ...)`` forwards; every accuracy it
returns must be the very float ``evaluate_params`` computes for that client
alone — for every registry method's inference models, for chunks that mix
patterned and pattern-less clients or test lengths, for chunks past the
row budget and for one client — and the server's sweep under
``batch_cohort`` must leave histories and the evaluation ledger unchanged.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.baselines import available_strategies, build_strategy
from repro.data.dataset import Dataset
from repro.experiments import preset_for, scaled
from repro.experiments.presets import build_experiment
from repro.federated import (FederatedTrainer, evaluate_cohort,
                             evaluate_params, evaluation)
from repro.models import build_model_for_dataset
from repro.nn import BatchedModel
from repro.parallel import ThreadPoolExecutor
from repro.server.core import _CHUNK_ROWS
from repro.sparsity import random_pattern


def small_preset(**overrides):
    """Eight clients with five test rows each: one sweep is one stack."""
    base = dict(num_clients=8, num_rounds=2, clients_per_round=4,
                examples_per_client=20, local_iterations=2, batch_size=8,
                seed=11)
    base.update(overrides)
    return scaled(preset_for("mnist"), **base)


def build_trainer(method, preset, *, executor=None):
    dataset, model_builder, config, fleet = build_experiment(preset)
    return FederatedTrainer(build_strategy(method), dataset, model_builder,
                            config=config, fleet=fleet, executor=executor)


def per_client(model, evaluations, test_sets):
    return [evaluate_params(model, params, dataset, pattern=pattern)
            for (params, pattern), dataset in zip(evaluations, test_sets)]


@pytest.fixture
def forwards(monkeypatch):
    """``(clients, rows)`` of every stacked forward evaluate_cohort runs."""
    seen = []

    class Recording(BatchedModel):
        def forward(self, x, *, train=True):
            seen.append(x.shape[:2])
            return super().forward(x, train=train)

    monkeypatch.setattr(evaluation, "BatchedModel", Recording)
    return seen


def random_clients(model, lengths, patterned):
    """Per-client perturbed parameters, optional random patterns and test
    shards of the given lengths."""
    rng = np.random.default_rng(0)
    evaluations, test_sets = [], []
    for length, has_pattern in zip(lengths, patterned):
        params = {key: value + rng.normal(scale=0.3, size=value.shape)
                  for key, value in model.get_parameters().items()}
        pattern = (random_pattern(model, 0.5, rng=rng) if has_pattern
                   else None)
        evaluations.append((params, pattern))
        test_sets.append(Dataset(
            rng.normal(size=(length,) + model.input_shape),
            rng.integers(0, 10, size=length)))
    return evaluations, test_sets


class TestEveryMethod:
    @pytest.mark.parametrize("method", available_strategies())
    def test_stacked_sweep_returns_the_loop_floats(self, method, forwards):
        trainer = build_trainer(method, small_preset())
        trainer.run()
        clients = [trainer.clients.observer(cid)
                   for cid in trainer.clients.client_ids]
        evaluations = [trainer.strategy.client_evaluation(client)
                       for client in clients]
        test_sets = [client.test_data for client in clients]
        model = trainer.model
        stacked = evaluate_cohort(model, evaluations, test_sets,
                                  max_rows=_CHUNK_ROWS)
        assert forwards and all(count > 1 for count, _ in forwards)
        assert stacked == per_client(model, evaluations, test_sets)


class TestChunkShapes:
    def check(self, lengths, patterned, max_rows=_CHUNK_ROWS):
        model = build_model_for_dataset("mnist", seed=0)
        evaluations, test_sets = random_clients(model, lengths, patterned)
        stacked = evaluate_cohort(model, evaluations, test_sets,
                                  max_rows=max_rows)
        assert stacked == per_client(model, evaluations, test_sets)
        return stacked

    def test_patterned_and_pattern_less_clients_mix(self, forwards):
        self.check([6] * 8, [True, False] * 4)
        # one stack of four per kind, never a gate row of ones
        assert sorted(forwards) == [(4, 6), (4, 6)]

    def test_unequal_test_lengths(self, forwards):
        lengths = [4, 6, 15, 4, 6, 15, 70, 70, 3]
        self.check(lengths, [False] * len(lengths))
        assert sorted(forwards) == [(2, 4), (2, 6), (2, 15)]

    def test_past_the_row_budget(self, forwards):
        self.check([6] * 23, [True] * 23)
        # 23 clients of 6 rows, at most 10 per forward: 8 + 8 + 7
        assert sorted(forwards) == [(7, 6), (8, 6), (8, 6)]
        assert all(count * rows <= _CHUNK_ROWS for count, rows in forwards)

    def test_windows_of_a_long_shard(self, forwards):
        self.check([100] * 3, [False] * 3, max_rows=256)
        # each 64-row window as evaluate_params cuts it
        assert forwards == [(3, 64), (3, 36)]

    def test_a_single_client(self, forwards):
        assert len(self.check([6], [True])) == 1
        assert forwards == []

    def test_clients_past_half_the_budget_run_alone(self, forwards):
        self.check([40, 40], [False, False])
        assert forwards == []

    def test_an_empty_test_shard_is_rejected(self):
        model = build_model_for_dataset("mnist", seed=0)
        evaluations, test_sets = random_clients(model, [6, 0], [False] * 2)
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate_cohort(model, evaluations, test_sets,
                            max_rows=_CHUNK_ROWS)


def history_json(history):
    return json.dumps(history.to_dict(), sort_keys=True)


class TestServerSweep:
    @pytest.mark.parametrize("method", ["fedlps", "fedavg", "hermes"])
    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_stacking_changes_no_history_and_no_ledger(self, method, backend,
                                                       forwards):
        runs = {}
        for batch_cohort in (False, True):
            preset = small_preset(num_rounds=3, batch_cohort=batch_cohort)
            with (ThreadPoolExecutor(2) if backend == "thread"
                  else nullcontext()) as executor:
                trainer = build_trainer(method, preset, executor=executor)
                history = trainer.run()
            runs[batch_cohort] = (history_json(history),
                                  dict(trainer.evaluation_stats))
            # stacked forwards run exactly when the run trains stacked
            assert bool(forwards) == batch_cohort
        assert runs[True] == runs[False]

    def test_a_model_without_batched_kernels_evaluates_one_by_one(
            self, forwards):
        preset = scaled(preset_for("reddit"), num_clients=4, num_rounds=1,
                        clients_per_round=2, examples_per_client=20,
                        local_iterations=1, batch_size=8, batch_cohort=True)
        build_trainer("fedavg", preset).run()
        assert forwards == []
