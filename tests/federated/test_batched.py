"""Vectorized cohort training vs the per-client loop, bit-for-bit.

The batched engine (``repro.federated.batched``, ``repro.core
.sparse_training.learnable_sparse_training_cohort``) and its server wiring
(``FederatedConfig.batch_cohort``) promise EXACT equality with the
sequential per-client path: every returned parameter, metric and RNG
stream, across masks, patterns, proximal terms, momentum, clipping and
ragged dataset sizes.  These tests pin that contract — a single flipped
bit anywhere fails them.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FedProx
from repro.core.importance import initialize_importance
from repro.core.sparse_training import learnable_sparse_training_cohort
from repro.data.dataset import Dataset
from repro.federated import (client_batch_schedule, run_federated,
                             train_cohort_batched)
from repro.models import build_mlp
from repro.nn import (AvgPool2d, BatchedModel, Conv2d, Dense, Flatten, ReLU,
                      Sequential, softmax_cross_entropy, stack_param_dicts)
from repro.sparsity import build_parameter_mask, random_pattern

INPUT_DIM = 6
NUM_CLASSES = 3


def _model():
    return build_mlp(INPUT_DIM, [5], NUM_CLASSES, seed=0)


def _dataset(n, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, INPUT_DIM)),
                   rng.integers(0, NUM_CLASSES, size=n))


def _reference_iterate_batches(dataset, batch_size, iterations, *, rng):
    """``federated.local.iterate_batches`` as it stood, verbatim: the
    generator the per-client loop drew its mini-batches from."""
    if iterations <= 0:
        return
    indices = rng.permutation(len(dataset))
    cursor = 0
    for _ in range(iterations):
        if cursor + batch_size > len(indices):
            indices = rng.permutation(len(dataset))
            cursor = 0
        batch = indices[cursor:cursor + batch_size]
        cursor += batch_size
        yield dataset.x[batch], dataset.y[batch]


def _assert_results_equal(loop_results, batched_results):
    assert len(loop_results) == len(batched_results)
    for a, b in zip(loop_results, batched_results):
        assert set(a.params) == set(b.params)
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])
        assert a.train_accuracy == b.train_accuracy
        assert a.train_loss == b.train_loss
        assert a.examples_seen == b.examples_seen


class TestBatchSchedule:
    @given(n_examples=st.integers(min_value=1, max_value=40),
           batch_size=st.integers(min_value=1, max_value=16),
           iterations=st.integers(min_value=0, max_value=12),
           seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=80, deadline=None)
    def test_matches_iterate_batches(self, n_examples, batch_size,
                                     iterations, seed):
        dataset = _dataset(n_examples, seed)
        loop_batches = list(_reference_iterate_batches(
            dataset, batch_size, iterations,
            rng=np.random.default_rng(seed)))
        schedule = client_batch_schedule(
            n_examples, batch_size, iterations,
            rng=np.random.default_rng(seed))
        assert len(schedule) == len(loop_batches) == iterations
        for indices, (x, y) in zip(schedule, loop_batches):
            np.testing.assert_array_equal(dataset.x[indices], x)
            np.testing.assert_array_equal(dataset.y[indices], y)
            assert len(indices) == min(batch_size, n_examples)


class TestTrainCohortBatched:
    @given(sizes=st.lists(st.integers(min_value=3, max_value=20),
                          min_size=2, max_size=4),
           momentum=st.sampled_from([0.0, 0.9]),
           clip_norm=st.sampled_from([None, 0.5]),
           prox_mu=st.sampled_from([0.0, 0.2]),
           masked=st.booleans(),
           seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_loop(self, sizes, momentum, clip_norm,
                                   prox_mu, masked, seed):
        model = _model()
        cohort = len(sizes)
        datasets = [_dataset(n, seed * 31 + i) for i, n in enumerate(sizes)]
        rng = np.random.default_rng(seed)
        base = model.get_parameters()
        starts = [{key: value + 0.01 * rng.normal(size=value.shape)
                   for key, value in base.items()} for _ in range(cohort)]
        patterns = masks = None
        if masked:
            patterns = [random_pattern(model, 0.5 + 0.5 * (i % 2),
                                       rng=np.random.default_rng(seed + i))
                        for i in range(cohort)]
            masks = [build_parameter_mask(model, pattern)
                     for pattern in patterns]
        kwargs = dict(iterations=3, batch_size=8, learning_rate=0.1,
                      momentum=momentum, clip_norm=clip_norm, prox_mu=prox_mu)
        loop = [train_cohort_batched(
            model, [starts[i]], [datasets[i]],
            param_masks=None if masks is None else [masks[i]],
            patterns=None if patterns is None else [patterns[i]],
            rngs=[np.random.default_rng(seed + 1000 + i)], **kwargs)[0]
                for i in range(cohort)]
        batched = train_cohort_batched(
            model, starts, datasets, param_masks=masks, patterns=patterns,
            rngs=[np.random.default_rng(seed + 1000 + i)
                  for i in range(cohort)],
            **kwargs)
        _assert_results_equal(loop, batched)

    def test_shared_prox_center_and_trainable_keys(self):
        model = _model()
        sizes = [12, 5, 9]
        datasets = [_dataset(n, 7 + i) for i, n in enumerate(sizes)]
        base = model.get_parameters()
        center = {key: value + 0.05 for key, value in base.items()}
        keys = ["fc1.W", "fc1.b"]
        kwargs = dict(iterations=4, batch_size=8, learning_rate=0.1,
                      prox_mu=0.1, prox_center=center, trainable_keys=keys)
        loop = [train_cohort_batched(model, [base], [datasets[i]],
                                     rngs=[np.random.default_rng(50 + i)],
                                     **kwargs)[0]
                for i in range(len(sizes))]
        batched = train_cohort_batched(
            model, [base] * len(sizes), datasets,
            rngs=[np.random.default_rng(50 + i) for i in range(len(sizes))],
            **kwargs)
        _assert_results_equal(loop, batched)
        # frozen keys really stayed frozen in the batched run too
        for result in batched:
            np.testing.assert_array_equal(result.params["head.W"],
                                          base["head.W"])

    def test_per_client_learning_rates(self):
        model = _model()
        sizes = [10, 10]
        datasets = [_dataset(n, 90 + i) for i, n in enumerate(sizes)]
        base = model.get_parameters()
        rates = [0.1, 0.05]
        loop = [train_cohort_batched(model, [base], [datasets[i]],
                                     iterations=3, batch_size=8,
                                     learning_rate=rates[i],
                                     rngs=[np.random.default_rng(60 + i)])[0]
                for i in range(2)]
        batched = train_cohort_batched(
            model, [base] * 2, datasets, iterations=3, batch_size=8,
            learning_rate=np.asarray(rates),
            rngs=[np.random.default_rng(60 + i) for i in range(2)])
        _assert_results_equal(loop, batched)

    @pytest.mark.parametrize("rates", [[0.1, 0.1, 0.1], [0.1]])
    def test_wrong_length_learning_rates_fail_at_the_boundary(self, rates):
        model = _model()
        datasets = [_dataset(10, 90 + i) for i in range(2)]
        with pytest.raises(ValueError,
                           match="learning_rate must have one entry per client"):
            train_cohort_batched(
                model, [model.get_parameters()] * 2, datasets, iterations=3,
                batch_size=8, learning_rate=np.asarray(rates),
                rngs=[np.random.default_rng(60 + i) for i in range(2)])


class TestLearnableSparseCohort:
    @pytest.mark.parametrize("sizes,kwargs", [
        ([20, 20, 20], {}),
        ([20, 7, 13], {}),
        ([20, 7, 13], dict(prox_mu=0.2)),
        ([20, 20, 20], dict(momentum=0.9, clip_norm=1.0)),
        ([20, 9, 14], dict(refresh_pattern_each_iteration=True)),
        ([20, 20, 20], dict(importance_learning_rate=0.02,
                            importance_lambda=0.3)),
    ], ids=["homog", "ragged", "ragged-prox", "momentum-clip",
            "ragged-refresh", "importance-lr"])
    def test_bit_identical_to_loop(self, sizes, kwargs):
        model = _model()
        cohort = len(sizes)
        datasets = [_dataset(n, 70 + i) for i, n in enumerate(sizes)]
        start = model.get_parameters()
        importances = [initialize_importance(model, seed=1000 + i)
                       for i in range(cohort)]
        ratios = [0.5, 0.75, 1.0][:cohort]
        common = dict(iterations=3, batch_size=8, learning_rate=0.1, **kwargs)
        loop = [learnable_sparse_training_cohort(
            model, start, [importances[i]], [datasets[i]],
            sparse_ratios=[ratios[i]], rngs=[np.random.default_rng(100 + i)],
            **common)[0] for i in range(cohort)]
        batched = learnable_sparse_training_cohort(
            model, start, importances, datasets, sparse_ratios=ratios,
            rngs=[np.random.default_rng(100 + i) for i in range(cohort)],
            **common)
        for a, b in zip(loop, batched):
            for key in a.personalized_params:
                np.testing.assert_array_equal(a.personalized_params[key],
                                              b.personalized_params[key])
                np.testing.assert_array_equal(a.residual[key],
                                              b.residual[key])
            for name in a.importance.scores:
                np.testing.assert_array_equal(a.importance.scores[name],
                                              b.importance.scores[name])
            assert set(a.pattern) == set(b.pattern)
            for name in a.pattern:
                np.testing.assert_array_equal(a.pattern[name],
                                              b.pattern[name])
            assert a.train_loss == b.train_loss
            assert a.train_accuracy == b.train_accuracy
            assert a.examples_seen == b.examples_seen
            assert a.sparse_ratio == b.sparse_ratio


class TestAvgPoolParity:
    """A folded ``AvgPool2d`` must see the bytes the sequential layer sees.

    The mean of a window sums in memory order, and a conv -> ReLU output is
    channels-last in memory: the pool has to reduce the same layout on both
    paths for the cohort stack to reproduce each client's pass.
    """

    @staticmethod
    def _model():
        rng = np.random.default_rng(0)
        return Sequential([
            Conv2d(2, 4, 3, padding=1, name="conv", rng=rng),
            ReLU(name="relu"),
            AvgPool2d(2, name="pool"),
            Flatten(name="flatten"),
            Dense(4 * 4 * 4, NUM_CLASSES, name="head", sparsifiable=False,
                  rng=rng),
        ], input_shape=(2, 8, 8), name="avgpool_cnn")

    def test_forward_backward_bit_identical(self):
        model = self._model()
        cohort, batch = 3, 4
        rng = np.random.default_rng(1)
        base = model.get_parameters()
        params = [{key: value + 0.1 * rng.normal(size=value.shape)
                   for key, value in base.items()} for _ in range(cohort)]
        x = rng.normal(size=(cohort, batch) + model.input_shape)
        y = rng.integers(0, NUM_CLASSES, size=(cohort, batch))

        batched = BatchedModel(model, cohort)
        batched.set_parameters(stack_param_dicts(params))
        batched.zero_grad()
        logits = batched.forward(x, train=True)
        grad = np.stack([softmax_cross_entropy(logits[i], y[i])[1]
                         for i in range(cohort)])
        grad_x = batched.backward(grad)
        grads = batched.get_gradients()

        for i in range(cohort):
            model.set_parameters(params[i])
            model.zero_grad()
            ref_logits = model.forward(x[i], train=True)
            assert logits[i].tobytes() == ref_logits.tobytes()
            ref_grad_x = model.backward(softmax_cross_entropy(ref_logits, y[i])[1])
            assert grad_x[i].tobytes() == ref_grad_x.tobytes()
            for key, value in model.get_gradients().items():
                assert grads[key][i].tobytes() == value.tobytes(), key


def _history_key(history):
    return json.dumps(json.loads(json.dumps(history.to_dict())),
                      sort_keys=True)


def _run_custom(strategy, preset):
    """Run a test-local strategy instance (not a registry method) on a preset."""
    from repro.experiments import build_experiment

    dataset, model_builder, config, fleet = build_experiment(preset)
    return run_federated(strategy, dataset, model_builder, config=config,
                         fleet=fleet)


def _small(preset_name="mnist", **overrides):
    from repro.experiments import preset_for, scaled

    base = dict(num_clients=8, num_rounds=2, clients_per_round=4,
                examples_per_client=20, local_iterations=2, batch_size=8,
                seed=11)
    base.update(overrides)
    return scaled(preset_for(preset_name), **base)


def _example_module(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}",
        Path(__file__).resolve().parents[2] / "examples" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class VisitCountingFedProx(FedProx):
    """Overrides ``local_update`` only: must stay on the per-client loop."""

    def local_update(self, round_index, client):
        client.state["visits"] = client.state.get("visits", 0) + 1
        return super().local_update(round_index, client)


class BatchedVisitCountingFedProx(VisitCountingFedProx):
    """Supplies the cohort twin of its override too: batches again."""

    def local_update_cohort(self, round_index, clients):
        for client in clients:
            client.state["visits"] = client.state.get("visits", 0) + 1
        return FedProx.local_update_cohort(self, round_index, clients)


class TestEndToEnd:
    @pytest.mark.parametrize("method", ["fedavg", "fedprox", "fedlps", "oort"])
    def test_histories_identical_with_batching(self, method):
        from repro.experiments import run_method, scaled

        preset = _small()
        default = run_method(method, preset)
        batched = run_method(method, scaled(preset, batch_cohort=True))
        assert _history_key(default) == _history_key(batched)

    @pytest.mark.parametrize("method", ["heterofl", "fedavg"],
                             ids=["strategy-fallback", "model-fallback"])
    def test_fallback_paths_identical(self, method):
        """Strategies/models without a batched path fall back to the loop."""
        from repro.experiments import run_method, scaled

        preset = _small("reddit" if method == "fedavg" else "mnist")
        default = run_method(method, preset)
        batched = run_method(method, scaled(preset, batch_cohort=True))
        assert _history_key(default) == _history_key(batched)

    def test_supervised_execution_disables_batching(self):
        from repro.experiments import run_method, scaled

        preset = _small(max_retries=1)
        default = run_method("fedavg", preset)
        batched = run_method("fedavg", scaled(preset, batch_cohort=True))
        assert _history_key(default) == _history_key(batched)


    @pytest.mark.parametrize("make_strategy", [
        lambda: _example_module("custom_strategy").FedLPSTopUp(margin=0.15),
        VisitCountingFedProx], ids=["fedlps-topup", "fedprox-subclass"])
    def test_subclass_local_update_override_survives_batching(
            self, make_strategy):
        """A subclass that replaces ``local_update`` alone keeps its override
        under ``batch_cohort``: the cohort is planned as per-client tasks
        and the history matches the unbatched run bit-for-bit.

        Regression: ``FedLPS`` and ``FedProx`` used to answer
        ``cohort_batchable`` without checking who supplies ``local_update``,
        so the batched run silently trained through the parent's
        ``local_update_cohort`` (``FedLPSTopUp`` lost its ratio margin).
        """
        from repro.experiments import scaled

        preset = _small(num_rounds=4)
        default = _run_custom(make_strategy(), preset)
        batched = _run_custom(make_strategy(), scaled(preset, batch_cohort=True))
        assert _history_key(default) == _history_key(batched)
        core = TestChunkPlan._core(make_strategy())
        assert core._plan_chunks([3, 1, 2]) == [[3], [1], [2]]

    @pytest.mark.parametrize("make_strategy", [
        lambda: _example_module("custom_strategy").CapabilityStepFedAvg(),
        BatchedVisitCountingFedProx], ids=["same-class", "below-the-override"])
    def test_subclass_with_its_own_cohort_hook_still_batches(
            self, make_strategy):
        from repro.experiments import scaled

        core = TestChunkPlan._core(make_strategy())
        assert core._plan_chunks([3, 1, 2]) == [[3, 1, 2]]
        preset = _small()
        default = _run_custom(make_strategy(), preset)
        batched = _run_custom(make_strategy(), scaled(preset, batch_cohort=True))
        assert _history_key(default) == _history_key(batched)

    def test_cohort_batches_on_every_executor(self, monkeypatch):
        """``batch_cohort`` engages with no executor, serial and a pool —
        and on a pool every worker gets a chunk of the cohort.

        Regressions: the serial executor (the CLI's default backend) used to
        take a per-task path that never consulted the batching opt-in; and
        an opted-in cohort used to be ONE task on ONE worker of a pool.
        """
        from repro.baselines import build_strategy
        from repro.experiments import run_method
        from repro.parallel import SerialExecutor, ThreadPoolExecutor

        # the bench's batched-cohort16 shape, shortened
        preset = _small(num_clients=64, clients_per_round=16,
                        examples_per_client=16, local_iterations=4,
                        batch_size=1, eval_clients=16, batch_cohort=True)
        fedlps = type(build_strategy("fedlps"))
        original = fedlps.local_update_cohort
        cohort_sizes = []

        def counting(self, round_index, clients):
            cohort_sizes.append(len(clients))
            return original(self, round_index, clients)

        monkeypatch.setattr(fedlps, "local_update_cohort", counting)
        histories = []
        for make_executor, per_round in (
                (lambda: None, [16]), (SerialExecutor, [16]),
                (lambda: ThreadPoolExecutor(2), [8, 8])):
            del cohort_sizes[:]
            executor = make_executor()
            try:
                histories.append(_history_key(
                    run_method("fedlps", preset, executor=executor)))
            finally:
                if executor is not None:
                    executor.close()
            assert cohort_sizes == per_round * preset.num_rounds
        assert histories[0] == histories[1] == histories[2]


class TestChunkPlan:
    """``ServerCore._plan_chunks``: an opted-in batchable cohort goes out as
    balanced stacked chunks — one per worker, or more when the row budget
    asks for it — and every other cohort as per-client tasks."""

    @staticmethod
    def _core(method="fedavg", *, workers=None, **overrides):
        from repro.baselines import build_strategy
        from repro.experiments.presets import build_experiment
        from repro.server.core import ServerCore

        dataset, model_builder, config, fleet = build_experiment(
            _small(**{"batch_cohort": True, **overrides}))
        strategy = build_strategy(method) if isinstance(method, str) \
            else method
        core = ServerCore(strategy, dataset, model_builder,
                          config=config, fleet=fleet)
        if workers is not None:
            # the planner reads nothing of an executor but its worker count
            core.executor = SimpleNamespace(workers=workers)
        core.strategy.setup(core.context)
        return core

    def test_batchable_opt_in_cohort_is_one_chunk(self):
        # 3 clients x batch 8 = 24 rows: inside the budget, one worker
        assert self._core()._plan_chunks([3, 1, 2]) == [[3, 1, 2]]
        # the bench's batched-cohort16 shape: 16 x 1 rows stay one program
        assert self._core(batch_size=1)._plan_chunks(list(range(16))) \
            == [list(range(16))]

    def test_one_chunk_per_worker(self):
        assert self._core(workers=2)._plan_chunks([3, 1, 2]) \
            == [[3], [1, 2]]
        assert self._core(workers=2, batch_size=1) \
            ._plan_chunks(list(range(16))) \
            == [list(range(8)), list(range(8, 16))]
        # more workers than clients: one client each, never an empty chunk
        assert self._core(workers=8)._plan_chunks([3, 1, 2]) \
            == [[3], [1], [2]]

    def test_chunks_stay_inside_the_row_budget(self):
        from repro.server.core import _CHUNK_ROWS

        assert _CHUNK_ROWS == 64
        ids = list(range(35))
        # fleet100k-fedbuff-ckpt's shape: 35 x 16 rows -> 9 chunks of 3-4
        chunks = self._core(batch_size=16)._plan_chunks(ids)
        assert [len(chunk) for chunk in chunks] \
            == [3, 4, 4, 4, 4, 4, 4, 4, 4]
        assert [cid for chunk in chunks for cid in chunk] == ids
        # the budget outranks the worker count, not the other way round
        assert self._core(batch_size=16, workers=2)._plan_chunks(ids) \
            == chunks
        # a batch that fills the budget alone leaves nothing to stack
        assert self._core(batch_size=64)._plan_chunks([3, 1, 2]) \
            == [[3], [1], [2]]
        assert self._core(batch_size=200)._plan_chunks([3, 1, 2]) \
            == [[3], [1], [2]]

    def test_size_one_chunks_otherwise(self):
        per_client = [[3], [1], [2]]
        assert self._core(max_retries=1)._plan_chunks([3, 1, 2]) == per_client
        assert self._core("heterofl")._plan_chunks([3, 1, 2]) == per_client
        assert self._core(batch_cohort=False)._plan_chunks([3, 1, 2]) \
            == per_client
        assert self._core(batch_cohort=False, workers=2) \
            ._plan_chunks([3, 1, 2]) == per_client
        assert self._core()._plan_chunks([5]) == [[5]]
        assert self._core()._plan_chunks([]) == []

    @given(ids=st.lists(st.integers(min_value=0, max_value=10_000),
                        unique=True, max_size=80),
           workers=st.integers(min_value=1, max_value=12),
           batch_size=st.integers(min_value=1, max_value=160),
           off=st.sampled_from(["", "supervised", "non-batchable",
                                "opted-out"]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_plan_properties(self, ids, workers, batch_size, off):
        from dataclasses import replace

        from repro.server.core import _CHUNK_ROWS

        core = _planner_core("heterofl" if off == "non-batchable"
                             else "fedavg")
        core.executor = SimpleNamespace(workers=workers)
        core.config = replace(core.config, batch_size=batch_size,
                              batch_cohort=off != "opted-out")
        core.supervised = off == "supervised"
        chunks = core._plan_chunks(ids)
        assert [cid for chunk in chunks for cid in chunk] == ids
        if off:
            assert all(len(chunk) == 1 for chunk in chunks)
            return
        sizes = [len(chunk) for chunk in chunks]
        assert not sizes or max(sizes) - min(sizes) <= 1
        per_chunk = max(1, _CHUNK_ROWS // batch_size)
        assert len(chunks) == min(len(ids), max(
            workers, math.ceil(len(ids) / per_chunk)))
        assert all(size == 1 or size * batch_size <= _CHUNK_ROWS
                   for size in sizes)
        if _CHUNK_ROWS % batch_size == 0:
            # where a whole number of clients fills the budget, the count
            # is ceil(rows / budget)
            assert len(chunks) == max(min(workers, len(ids)), math.ceil(
                len(ids) * batch_size / _CHUNK_ROWS))


@functools.lru_cache(maxsize=None)
def _planner_core(method):
    return TestChunkPlan._core(method)


#: round-loop shapes of the chunk-boundary cells (the second one is
#: ``fleet100k-fedbuff-ckpt``'s: arrivals buffered, cohorts thinned)
_LOOPS = {"sync": dict(aggregation="sync", scenario="ideal"),
          "fedbuff-flaky": dict(aggregation="fedbuff", scenario="flaky")}


@functools.lru_cache(maxsize=None)
def _looped_history(method, cohort, batch_size, loop, codec):
    """The reference: the same federation through the per-client loop."""
    from repro.experiments import run_method

    return _history_key(run_method(method, _boundary_preset(
        cohort, batch_size, loop, codec, batch_cohort=False)))


def _boundary_preset(cohort, batch_size, loop, codec, **overrides):
    return _small(num_clients=3 * cohort, clients_per_round=cohort,
                  num_rounds=3, examples_per_client=12,
                  batch_size=batch_size, codec=codec, **_LOOPS[loop],
                  **overrides)


class TestChunkBoundaries:
    """Histories do not show where the planner cut the cohort: cohorts of 5
    and 7 split unevenly (2 + 3, 3 + 4) by the row budget at batch 16 and by
    the two workers at batch 1, and not at all at batch 64."""

    @pytest.fixture(scope="class")
    def thread_pool(self):
        from repro.parallel import ThreadPoolExecutor

        with ThreadPoolExecutor(2) as executor:
            yield executor

    @pytest.mark.parametrize("codec", ["dense", "sparse"])
    @pytest.mark.parametrize("loop", sorted(_LOOPS))
    @pytest.mark.parametrize("batch_size", [1, 16, 64])
    @pytest.mark.parametrize("cohort", [5, 7])
    @pytest.mark.parametrize("method", ["fedlps", "fedavg"])
    def test_histories_equal_the_loop(self, method, cohort, batch_size,
                                      loop, codec, thread_pool):
        from repro.experiments import run_method

        expected = _looped_history(method, cohort, batch_size, loop, codec)
        preset = _boundary_preset(cohort, batch_size, loop, codec,
                                  batch_cohort=True)
        assert _history_key(run_method(method, preset)) == expected
        assert _history_key(run_method(method, preset,
                                       executor=thread_pool)) == expected

    @pytest.mark.parametrize("loop", sorted(_LOOPS))
    @pytest.mark.parametrize("cohort", [5, 7])
    @pytest.mark.parametrize("method", ["fedlps", "fedavg"])
    def test_across_an_interrupt_and_resume(self, method, cohort, loop,
                                            tmp_path):
        from repro.checkpoint import TrainingInterrupted
        from repro.experiments import run_method

        expected = _looped_history(method, cohort, 16, loop, "dense")
        preset = _boundary_preset(cohort, 16, loop, "dense",
                                  batch_cohort=True)
        with pytest.raises(TrainingInterrupted):
            run_method(method, preset, checkpoint_dir=tmp_path,
                       stop_after_round=0)
        resumed = run_method(method, preset, checkpoint_dir=tmp_path,
                             resume=True)
        assert _history_key(resumed) == expected

    def test_fleet_preset_opt_in_does_not_show_in_the_history(self):
        from repro.experiments import preset_for, run_method, scaled

        preset = preset_for("mnist-100k")
        assert preset.batch_cohort and preset.num_rounds == 3
        assert preset_for("mnist-1m").batch_cohort
        assert _history_key(run_method("fedlps", preset)) == _history_key(
            run_method("fedlps", scaled(preset, batch_cohort=False)))


class TestGoldenParity:
    @pytest.mark.parametrize("method", ["fedavg", "fedlps", "fedprox"])
    def test_batched_run_reproduces_golden_fixture(self, method):
        """The batched path replays pinned fixtures with ZERO regeneration."""
        import importlib.util
        from pathlib import Path

        from repro.experiments import run_method, scaled

        spec = importlib.util.spec_from_file_location(
            "golden_fixtures",
            Path(__file__).resolve().parents[1] / "fixtures"
            / "regenerate_golden.py")
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        payload = json.loads(golden.fixture_path(method).read_text())
        preset = scaled(golden.golden_preset("ideal"), batch_cohort=True)
        history = run_method(method, preset)
        assert json.loads(json.dumps(history.to_dict())) == payload["history"]
