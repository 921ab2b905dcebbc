"""The evaluation memo: remembered accuracies behind the state write path.

``ServerCore.evaluate_personalized`` re-runs only the swept clients whose
state has been written since their last evaluation, and remembers a result
only when ``Strategy.evaluates_from_state`` vouches that the client's state
alone determined it.  Three things keep that sound:

* **the predicate tells the truth** — for every registry method, whenever
  it says ``True`` for a state, ``client_evaluation`` returns the very same
  bytes after everything shared on the strategy is replaced by garbage,
  and the same bytes right after ``local_updates`` as at sweep time, after
  ``post_round``; and exactly the methods in :data:`OPT_IN` ever say
  ``True`` (the CI ``lint`` job reads that set: an override elsewhere
  needs a row here);
* **a remembered float is the float** — histories equal those of a run
  that remembers nothing and takes no accuracy from a training chunk,
  across backends, codecs, schedulers and an interrupt + resume;
* **the ledger** (``ServerCore.evaluation_stats``, out-of-band) shows the
  sweep costing what the round changed.
"""

from __future__ import annotations

import json
import pickle
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import available_strategies, build_strategy
from repro.checkpoint import TrainingInterrupted
from repro.core.strategy import FedLPS
from repro.experiments import preset_for, run_method, scaled
from repro.experiments.presets import build_experiment
from repro.federated import Client, FederatedTrainer
from repro.federated.config import FleetConfig
from repro.federated.fleet import FleetStateStore
from repro.parallel import (FaultPlan, ProcessPoolExecutor,
                            ThreadPoolExecutor)
from repro.server.core import ServerCore, _balanced_chunks, _evaluate_clients

#: the registry methods whose clients keep their evaluation model entirely
#: in ``client.state`` once they have trained — the only ones allowed to
#: answer ``evaluates_from_state`` with ``True``
OPT_IN = {"fedlps", "flst", "p-ucbv", "rcr",
          "lotteryfl", "hermes", "fedspa", "fedp3",
          "ditto"}


def tiny_preset(aggregation="sync", scenario="ideal", codec="dense",
                **extra):
    """Six clients, two per round: trained, re-trained and untouched ones."""
    overrides = dict(num_clients=6, num_rounds=4, clients_per_round=2,
                     examples_per_client=20, local_iterations=2,
                     batch_size=8, seed=13)
    overrides.update(extra)
    return scaled(preset_for("mnist"), scenario=scenario,
                  aggregation=aggregation, codec=codec, **overrides)


def build_trainer(method, preset, *, executor=None, **config_changes):
    dataset, model_builder, config, fleet = build_experiment(preset)
    return FederatedTrainer(build_strategy(method), dataset, model_builder,
                            config=replace(config, **config_changes),
                            fleet=fleet, executor=executor)


def history_json(history) -> str:
    return json.dumps(history.to_dict(), sort_keys=True)


@contextmanager
def forgetful():
    """Every sweep starts from an empty memo: the pre-memo behaviour."""
    real = ServerCore.evaluate_personalized

    def evaluate_personalized(core):
        core.clients.state_store._remembered.clear()
        return real(core)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServerCore, "evaluate_personalized",
                      evaluate_personalized)
        yield


@contextmanager
def untrained_sweeps():
    """No accuracy reaches a sweep from a training chunk: the server drops
    what the chunks returned, so every sweep evaluates what is stale."""
    real = ServerCore.run_local_updates

    def run_local_updates(core, round_index, selected):
        updates = real(core, round_index, selected)
        core._trained_accuracies.clear()
        return updates

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServerCore, "run_local_updates", run_local_updates)
        yield


@pytest.fixture
def sweeps(monkeypatch):
    """``(evaluated, from_training, reused)`` of every sweep, read off the
    ledger; each sweep's three counts add up to the ids it swept."""
    real = ServerCore.evaluate_personalized
    seen = []

    def evaluate_personalized(core):
        before = dict(core.evaluation_stats)
        accuracy = real(core)
        counts = tuple(core.evaluation_stats[key] - before[key]
                       for key in ("evaluated", "from_training", "reused"))
        assert sum(counts) == len(core.evaluation_client_ids())
        seen.append(counts)
        return accuracy

    monkeypatch.setattr(ServerCore, "evaluate_personalized",
                        evaluate_personalized)
    return seen


# ------------------------------------------------------- predicate truth
def _garble(strategy) -> None:
    """Replace every array the strategy itself holds — the global
    parameters and any shared pattern — by garbage of the same shape."""
    rng = np.random.default_rng(0)
    for name, value in list(vars(strategy).items()):
        if name == "context" or not isinstance(value, dict):
            continue
        if value and all(isinstance(entry, np.ndarray)
                         for entry in value.values()):
            setattr(strategy, name, {
                key: (~entry if entry.dtype == bool
                      else rng.normal(size=entry.shape).astype(entry.dtype))
                for key, entry in value.items()})


class TestPredicateTruth:
    @pytest.mark.parametrize("method", available_strategies())
    def test_opted_in_evaluation_reads_only_the_state(self, method):
        trainer = build_trainer(method, tiny_preset())
        trainer.run()
        strategy = trainer.strategy
        vouched = [cid for cid, state
                   in trainer.clients.state_store.snapshot().items()
                   if strategy.evaluates_from_state(state)]
        # the opt-in list is exact: a method outside it never vouches, a
        # method inside it does for a client it has trained
        assert bool(vouched) == (method in OPT_IN)
        before = {cid: pickle.dumps(
            strategy.client_evaluation(trainer.clients.observer(cid)))
            for cid in vouched}
        _garble(strategy)
        for cid in vouched:
            after = pickle.dumps(
                strategy.client_evaluation(trainer.clients.observer(cid)))
            assert after == before[cid], (
                f"{method}: client {cid}'s evaluation read shared state")

    @pytest.mark.parametrize("shape", ["sync", "fedbuff-flaky"])
    @pytest.mark.parametrize("method", sorted(OPT_IN))
    def test_post_round_keeps_what_a_vouched_evaluation_reads(
            self, method, shape, monkeypatch):
        """A training chunk evaluates its vouched clients before
        ``post_round`` runs; the sweep would evaluate them after it.  So for
        every state vouched for right after ``local_updates``,
        ``client_evaluation`` must give the same bytes then and at the next
        sweep, and the state must still be vouched for."""
        from repro.federated import Strategy

        trained, checked = {}, []

        def note(strategy, clients):
            for client in clients:
                if strategy.evaluates_from_state(client.state):
                    trained[client.client_id] = pickle.dumps(
                        strategy.client_evaluation(client))

        one, cohort = Strategy.local_update, Strategy.local_update_cohort

        def local_update(strategy, round_index, client):
            update = one(strategy, round_index, client)
            note(strategy, [client])
            return update

        def local_update_cohort(strategy, round_index, clients):
            updates = cohort(strategy, round_index, clients)
            note(strategy, clients)
            return updates

        sweep = ServerCore.evaluate_personalized

        def evaluate_personalized(core):
            for cid, expected in trained.items():
                client = core.clients.observer(cid)
                assert core.strategy.evaluates_from_state(client.state)
                assert pickle.dumps(
                    core.strategy.client_evaluation(client)) == expected, (
                    f"{method}: post_round changed client {cid}'s evaluation")
                checked.append(cid)
            trained.clear()
            return sweep(core)

        monkeypatch.setattr(Strategy, "local_update", local_update)
        monkeypatch.setattr(Strategy, "local_update_cohort",
                            local_update_cohort)
        monkeypatch.setattr(ServerCore, "evaluate_personalized",
                            evaluate_personalized)
        build_trainer(method, tiny_preset(**SHAPES[shape])).run()
        assert checked, f"{method}: no client was ever vouched for"

    @pytest.mark.parametrize("method", sorted(OPT_IN))
    def test_untrained_state_is_not_vouched_for(self, method):
        """Before a client trains it evaluates the moving global model."""
        trainer = build_trainer(method, tiny_preset())
        trainer.strategy.setup(trainer.context)
        fresh = trainer.clients.observer(0).state
        assert not trainer.strategy.evaluates_from_state(fresh)


# --------------------------------------------------- a float is the float
METHODS = ("fedlps", "lotteryfl", "ditto", "fedp3", "fedavg")
SHAPES = {"sync": dict(aggregation="sync", scenario="ideal"),
          "fedbuff-flaky": dict(aggregation="fedbuff", scenario="flaky",
                                num_clients=10, num_rounds=6,
                                clients_per_round=3)}


class TestHistoriesEqualTheForgetfulRun:
    @pytest.fixture(scope="class")
    def thread_pool(self):
        with ThreadPoolExecutor(2) as executor:
            yield executor

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("codec", ["dense", "int8"])
    @pytest.mark.parametrize("method", METHODS)
    def test_across_backends_codecs_and_schedulers(self, method, codec,
                                                   shape, thread_pool):
        preset = tiny_preset(codec=codec, **SHAPES[shape])
        with forgetful():
            expected = history_json(run_method(method, preset))
        assert history_json(run_method(method, preset)) == expected
        assert history_json(run_method(method, preset,
                                       executor=thread_pool)) == expected

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("method", METHODS)
    def test_across_an_interrupt_and_resume(self, method, shape, tmp_path):
        """A resumed run starts without a memo and recomputes the values."""
        preset = tiny_preset(**SHAPES[shape])
        with forgetful():
            expected = history_json(run_method(method, preset))
        with pytest.raises(TrainingInterrupted):
            run_method(method, preset, checkpoint_dir=tmp_path,
                       stop_after_round=1)
        resumed = run_method(method, preset, checkpoint_dir=tmp_path,
                             resume=True)
        assert history_json(resumed) == expected


class TestHistoriesEqualTheUntrainedSweepRun:
    """A training chunk's accuracy is the float the sweep would compute:
    every registry method's history equals that of a run whose sweeps take
    nothing from a training chunk (nor from the memo), on every backend,
    stacked or not, and across an interrupt + resume."""

    @pytest.fixture(scope="class")
    def backends(self):
        with ThreadPoolExecutor(2) as thread, \
                ProcessPoolExecutor(2) as process:
            yield {"inline": None, "thread": thread, "process": process}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("method", available_strategies())
    def test_every_method_on_every_backend(self, method, shape, backends):
        preset = tiny_preset(**SHAPES[shape])
        with forgetful(), untrained_sweeps():
            expected = history_json(run_method(method, preset))
        for name, executor in backends.items():
            assert history_json(run_method(
                method, preset, executor=executor)) == expected, name
        assert history_json(run_method(
            method, replace(preset, batch_cohort=True))) == expected

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_across_an_interrupt_and_resume(self, shape, tmp_path):
        """The accuracies a run took from training before the interrupt are
        not checkpointed; the resumed run recomputes them."""
        preset = tiny_preset(**SHAPES[shape])
        with forgetful(), untrained_sweeps():
            expected = history_json(run_method("fedlps", preset))
        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", preset, checkpoint_dir=tmp_path,
                       stop_after_round=1)
        resumed = run_method("fedlps", preset, checkpoint_dir=tmp_path,
                             resume=True)
        assert history_json(resumed) == expected


class TestUplinkCodecOnAProcessPool:
    """The training body encodes the uplink on every backend, so a process
    worker's encoded updates make the inline run's history, byte for byte,
    wire report included."""

    @pytest.fixture(scope="class")
    def process_pool(self):
        with ProcessPoolExecutor(2) as executor:
            yield executor

    @pytest.mark.parametrize("codec", ["sparse", "int8"])
    def test_fedlps_history_equals_the_inline_run(self, codec, process_pool):
        preset = tiny_preset(codec=codec)
        inline = run_method("fedlps", preset)
        assert all(record.extras["wire_upload_bytes"]
                   < record.extras["wire_upload_dense_bytes"]
                   for record in inline.records)
        assert (history_json(run_method("fedlps", preset,
                                        executor=process_pool))
                == history_json(inline))


# -------------------------------------------------------------- the ledger
def trained_before(history):
    """Per round: the clients some earlier round already trained."""
    trained, before = set(), []
    for record in history.records:
        before.append(set(trained))
        trained |= set(record.sparse_ratios)
    return before


class TestLedger:
    def test_fedlps_sweep_costs_what_the_round_dispatched(self, sweeps):
        trainer = build_trainer("fedlps", tiny_preset(num_rounds=12))
        history = trainer.run()
        fleet = set(range(6))
        all_trained = [fleet <= seen for seen in trained_before(history)]
        assert any(all_trained), "preset drift: some client never trains"
        for record, (evaluated, from_training, reused), settled in zip(
                history.records, sweeps, all_trained):
            assert evaluated + from_training + reused == len(fleet)
            # the cohort's accuracies rode its training chunks
            assert from_training == len(record.selected_clients)
            if settled:
                # exactly the cohort: the only states written this round
                assert evaluated == 0
        assert trainer.evaluation_stats == {
            key: sum(counts[index] for counts in sweeps) for index, key
            in enumerate(("evaluated", "from_training", "reused"))}
        # out-of-band: the ledger reaches no record
        assert not any(name in key for record in history.records
                       for key in record.extras
                       for name in trainer.evaluation_stats)

    def test_untrained_clients_are_evaluated_every_round(self, sweeps):
        """Before its first update a client infers with the global model."""
        history = build_trainer("fedlps", tiny_preset()).run()
        for record, (evaluated, from_training, _), before in zip(
                history.records, sweeps, trained_before(history)):
            untouched = set(range(6)) - before - set(record.selected_clients)
            assert evaluated == len(untouched)
            assert from_training == len(record.selected_clients)

    def test_a_global_model_method_never_reuses(self):
        trainer = build_trainer("fedavg", tiny_preset())
        trainer.run()
        assert trainer.evaluation_stats == {"evaluated": 4 * 6,
                                            "from_training": 0, "reused": 0}

    def test_exhausted_retries_keep_the_memo_on_a_broadcast_backend(
            self, sweeps):
        """A poisoned client's task never came back: its state was only
        peeked for the payload, never adopted, so what the server
        remembered about it still stands."""
        preset = tiny_preset(num_clients=4, num_rounds=10)
        plan = FaultPlan(seed=3, poison_rate=0.3)
        with ThreadPoolExecutor(2) as executor:
            trainer = build_trainer("fedlps", preset, executor=executor,
                                    faults=plan, max_retries=1)
            history = trainer.run()
        inline = build_trainer("fedlps", preset, faults=plan,
                               max_retries=1).run()
        assert history_json(history) == history_json(inline)
        kept = 0
        for record, (evaluated, from_training, _), before in zip(
                history.records, sweeps, trained_before(history)):
            failed = set(record.dropped)
            assert failed <= set(record.selected_clients)
            kept += len(failed & before)
            untouched = set(range(4)) - before - set(record.selected_clients)
            # a failed client's chunk returned nothing, so the sweep
            # evaluates it unless it kept its memo
            assert evaluated == len(untouched) + len(failed - before)
            assert from_training == len(record.sparse_ratios)
        assert kept, "plan drift: no trained client ever exhausted retries"

    def test_one_evaluation_task_per_worker(self):
        """The sweep goes out as at most ``workers`` chunked payloads."""
        payloads = []
        with ThreadPoolExecutor(2) as executor:
            executor.payload_witness = payloads.append
            trainer = build_trainer("fedavg", tiny_preset(),
                                    executor=executor)
            trainer.run()
        # (body, session, round, round_index, client ids, states)
        sweeps = [payload for payload in payloads
                  if payload[0] is _evaluate_clients]
        assert len(sweeps) == 2 * 4
        assert sorted(cid for payload in sweeps[:2]
                      for cid in payload[4]) == list(range(6))

    def test_no_sweep_chunk_outgrows_the_shard_cache(self, monkeypatch):
        """An inline sweep binds its clients chunk by chunk, so it never
        holds more shards at once than the cache keeps."""
        expected = history_json(build_trainer("fedavg", tiny_preset()).run())
        real, sizes = _evaluate_clients, []

        def recording(strategy, round_index, clients):
            sizes.append(len(clients))
            return real(strategy, round_index, clients)

        monkeypatch.setattr("repro.server.core._evaluate_clients", recording)
        history = build_trainer("fedavg", tiny_preset(),
                                fleet=FleetConfig(shard_cache=4)).run()
        assert sizes[:2] == [3, 3] and max(sizes) <= 4
        assert history_json(history) == expected

    def test_nothing_to_evaluate_publishes_nothing(self):
        from repro.parallel import broadcast_stats

        with ThreadPoolExecutor(2) as executor:
            trainer = build_trainer("fedlps", tiny_preset(num_rounds=12),
                                    executor=executor)
            trainer.run()
            # every client has trained and nothing was written since the
            # run's last sweep
            publishes = broadcast_stats()["publishes"]
            before = dict(trainer.evaluation_stats)
            trainer.evaluate_personalized()
            trainer.close()
        assert broadcast_stats()["publishes"] == publishes
        assert trainer.evaluation_stats["reused"] == before["reused"] + 6
        assert trainer.evaluation_stats["evaluated"] == before["evaluated"]


# ------------------------------------------------------------- the pieces
class TestStoreDropsOnEveryWrite:
    def test_adopt_touch_and_bind_drop_reads_do_not(self):
        store = FleetStateStore()
        store.adopt(1, {"a": 1})
        store.adopt(2, {"a": 2})
        store.remember_accuracy(1, 0.5)
        store.remember_accuracy(2, 0.25)
        assert store.get(1) == {"a": 1}
        assert store.remembered_accuracy(1) == 0.5
        store.touch(1)
        assert store.remembered_accuracy(1) is None
        assert store.remembered_accuracy(2) == 0.25
        store.adopt(2, {"a": 3})
        assert store.remembered_accuracy(2) is None
        store.remember_accuracy(2, 0.75)
        store.bind(None)
        assert store.remembered_accuracy(2) is None

    def test_the_memo_is_not_checkpointed(self, tmp_path):
        from repro.checkpoint import CheckpointManager

        with pytest.raises(TrainingInterrupted):
            run_method("fedlps", tiny_preset(), checkpoint_dir=tmp_path,
                       stop_after_round=2)
        capsule = CheckpointManager(tmp_path).latest()
        # the head, and every state and event blob it references
        data = b"".join([pickle.dumps(capsule),
                         *map(capsule.table.read, capsule.table.refs)])
        assert b"_remembered" not in data
        assert b"evaluation_stats" not in data


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("size", [0, 1, 2, 5, 7, 16])
def test_balanced_chunks(size, count):
    ids = list(range(10, 10 + size))
    chunks = _balanced_chunks(ids, count)
    assert len(chunks) == min(count, size)
    assert [cid for chunk in chunks for cid in chunk] == ids
    lengths = [len(chunk) for chunk in chunks]
    assert not lengths or max(lengths) - min(lengths) <= 1


# ------------------------------------------------- never-trained clients
#: ids whose state a ``_RecordingFedLPS`` initialized, in call order;
#: module-level so that a thread worker's copy of the template records here
INITIALIZED = []


class _RecordingFedLPS(FedLPS):
    def init_client_state(self, client):
        INITIALIZED.append(client.client_id)
        super().init_client_state(client)


class TestInitClientState:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_the_sweep_initializes_no_client(self, workers):
        """A never-trained client is evaluated with an empty state: the
        sweep runs no ``init_client_state`` (under FedLPS, no throwaway
        P-UCBV agent), the training fan-out still does."""
        dataset, model_builder, config, fleet = build_experiment(
            tiny_preset())
        with (ThreadPoolExecutor(workers) if workers
              else nullcontext()) as executor:
            trainer = FederatedTrainer(_RecordingFedLPS(), dataset,
                                       model_builder, config=config,
                                       fleet=fleet, executor=executor)
            trainer.strategy.setup(trainer.context)
            INITIALIZED.clear()
            trainer.evaluate_personalized()
            assert INITIALIZED == []
            trainer.run_local_updates(0, [1, 4])
            assert sorted(INITIALIZED) == [1, 4]
            INITIALIZED.clear()
            trainer.evaluate_personalized()
            trainer.close()
        assert INITIALIZED == []
        # the trained pair's accuracies rode their training chunk
        assert trainer.evaluation_stats == {"evaluated": 10,
                                            "from_training": 2, "reused": 0}

    @pytest.mark.parametrize("method", available_strategies())
    def test_an_empty_state_evaluates_like_an_initialized_one(self, method):
        trainer = build_trainer(method, tiny_preset())
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        for cid in range(6):
            initialized = trainer.clients.observer(cid)
            empty = Client(cid, initialized.data, initialized.device)
            assert (pickle.dumps(strategy.client_evaluation(empty))
                    == pickle.dumps(strategy.client_evaluation(initialized)))
