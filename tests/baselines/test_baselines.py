"""Tests for the baseline strategies and the registry."""

import numpy as np
import pytest

from repro.baselines import (STRATEGY_REGISTRY, TABLE1_METHODS, Ditto, FedPer,
                             FedRep, FedSpa, Hermes, LotteryFL, Oort, PerFedAvg,
                             PruneFL, REFL, ablations, available_strategies,
                             body_keys, build_strategy, head_keys)
from repro.core import FedLPS
from repro.federated import FederatedConfig, FederatedTrainer, run_federated
from repro.models import build_model_for_dataset


def builder():
    return build_model_for_dataset("mnist", seed=0)


def make_trainer(strategy, dataset, config):
    return FederatedTrainer(strategy, dataset, builder, config=config)


class TestRegistry:
    def test_table1_methods_are_registered(self):
        assert set(TABLE1_METHODS) <= set(STRATEGY_REGISTRY)
        assert len(TABLE1_METHODS) == 21

    def test_build_strategy_unknown_name(self):
        with pytest.raises(ValueError):
            build_strategy("not-a-method")

    def test_available_strategies_sorted(self):
        names = available_strategies()
        assert names == sorted(names)

    @pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
    def test_every_registered_strategy_instantiates(self, name):
        strategy = build_strategy(name)
        assert strategy.name

    def test_head_and_body_keys_partition_parameters(self):
        params = builder().get_parameters()
        heads = head_keys(params)
        bodies = body_keys(params)
        assert set(heads) | set(bodies) == set(params)
        assert not set(heads) & set(bodies)
        assert all(key.startswith("head.") for key in heads)


@pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
def test_every_strategy_completes_a_short_run(name, small_fed_dataset):
    config = FederatedConfig(num_rounds=2, clients_per_round=2,
                             local_iterations=2, batch_size=8, seed=0)
    history = run_federated(build_strategy(name), small_fed_dataset, builder,
                            config=config)
    assert len(history) == 2
    assert history.total_flops > 0
    assert all(0.0 <= acc <= 1.0 for acc in history.accuracies)


class TestSelectionStrategies:
    def test_oort_prefers_high_loss_clients(self, small_fed_dataset, tiny_config):
        trainer = make_trainer(Oort(exploration_fraction=0.0),
                               small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        # post_round records loss and size together; mirror both here
        strategy._last_loss = {cid: float(cid) for cid in trainer.clients}
        strategy._num_examples = {
            cid: trainer.clients[cid].num_train_examples
            for cid in trainer.clients}
        selected = strategy.select_clients(1)
        assert len(selected) == tiny_config.clients_per_round
        # the highest-loss clients are chosen when not exploring
        assert max(trainer.clients) in selected

    def test_refl_prioritizes_stale_clients(self, small_fed_dataset, tiny_config):
        trainer = make_trainer(REFL(), small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        strategy._last_selected = {cid: 5 for cid in trainer.clients}
        strategy._last_selected[3] = -10  # very stale
        selected = strategy.select_clients(6)
        assert 3 in selected

    def test_refl_scales_iterations_with_capability(self, small_fed_dataset,
                                                    tiny_config):
        trainer = make_trainer(REFL(), small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        weak = min(trainer.clients.values(), key=lambda c: c.capability)
        update = strategy.local_update(0, weak)
        assert update.extras["iterations"] <= tiny_config.local_iterations


class TestPersonalizedStrategies:
    def test_ditto_keeps_personal_model_and_doubles_flops(self, small_fed_dataset,
                                                          tiny_config):
        trainer = make_trainer(Ditto(), small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        update = strategy.local_update(0, client)
        assert "personal_params" in client.state
        dense_flops, _, _ = strategy._round_footprint(client)
        assert update.flops == pytest.approx(2 * dense_flops)

    def test_fedper_keeps_global_head_unchanged(self, small_fed_dataset,
                                                tiny_config):
        trainer = make_trainer(FedPer(), small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        before_head = {k: v.copy() for k, v in strategy.global_params.items()
                       if k.startswith("head.")}
        updates = [strategy.local_update(0, trainer.clients[cid]) for cid in (0, 1)]
        strategy.aggregate(0, updates)
        for key, value in before_head.items():
            np.testing.assert_array_equal(strategy.global_params[key], value)

    def test_fedper_evaluation_merges_personal_head(self, small_fed_dataset,
                                                    tiny_config):
        trainer = make_trainer(FedPer(), small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        strategy.local_update(0, client)
        params, pattern = strategy.client_evaluation(client)
        assert pattern is None
        np.testing.assert_array_equal(params["head.W"],
                                      client.state["personal_head"]["head.W"])

    @pytest.mark.parametrize("strategy_class", [FedPer, FedRep])
    def test_only_the_head_stays_on_the_device(self, strategy_class,
                                               small_fed_dataset, tiny_config):
        """The body is shared: a participant's state keeps the trained head
        and no copy of the body."""
        trainer = make_trainer(strategy_class(), small_fed_dataset,
                               tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        strategy.local_update(0, client)
        assert "personal_head" in client.state
        assert "personal_body" not in client.state
        assert set(client.state["personal_head"]) == set(
            head_keys(strategy.global_params))

    def test_fedrep_uploads_cost_more_flops_than_fedper(self, small_fed_dataset,
                                                        tiny_config):
        fedrep = make_trainer(FedRep(), small_fed_dataset, tiny_config)
        fedrep.strategy.setup(fedrep.context)
        update = fedrep.strategy.local_update(0, fedrep.clients[0])
        dense, _, _ = fedrep.strategy._round_footprint(fedrep.clients[0])
        assert update.flops > dense

    def test_perfedavg_adapts_at_evaluation_time(self, small_fed_dataset,
                                                 tiny_config):
        trainer = make_trainer(PerFedAvg(adaptation_steps=1),
                               small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        params, _ = strategy.client_evaluation(trainer.clients[0])
        moved = any(not np.array_equal(params[k], strategy.global_params[k])
                    for k in params)
        assert moved


class TestPersonalizedSparseStrategies:
    def test_lotteryfl_ratio_decays_on_success(self, small_fed_dataset,
                                               tiny_config):
        trainer = make_trainer(LotteryFL(accuracy_threshold=0.0),
                               small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        strategy.local_update(0, client)
        assert client.state["ratio"] < 1.0

    def test_hermes_ratio_decays_every_k_participations(self, small_fed_dataset,
                                                        tiny_config):
        trainer = make_trainer(Hermes(prune_every=1, prune_step=0.2),
                               small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        strategy.local_update(0, client)
        assert client.state["ratio"] == pytest.approx(0.8)

    def test_fedspa_keeps_constant_ratio_but_evolves_pattern(self,
                                                             small_fed_dataset,
                                                             tiny_config):
        trainer = make_trainer(FedSpa(ratio=0.5, regrow_fraction=0.5),
                               small_fed_dataset, tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        first = strategy.local_update(0, client)
        first_pattern = {k: v.copy() for k, v in client.state["personal_pattern"].items()}
        second = strategy.local_update(1, client)
        assert first.sparse_ratio == second.sparse_ratio == 0.5
        changed = any(not np.array_equal(first_pattern[k],
                                         client.state["personal_pattern"][k])
                      for k in first_pattern)
        assert changed

    def test_prunefl_shares_one_pattern_across_clients(self, small_fed_dataset,
                                                       tiny_config):
        trainer = make_trainer(PruneFL(keep_ratio=0.75), small_fed_dataset,
                               tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        update_a = strategy.local_update(0, trainer.clients[0])
        update_b = strategy.local_update(0, trainer.clients[1])
        for key in update_a.pattern:
            np.testing.assert_array_equal(update_a.pattern[key],
                                          update_b.pattern[key])


class TestAblations:
    def test_ablation_factories_names(self):
        assert ablations.flst().name == "flst"
        assert ablations.rcr().name == "rcr"
        assert ablations.pucbv().name == "p-ucbv"

    def test_flst_uses_fixed_ratio_policy(self):
        strategy = ablations.flst(fixed_ratio=0.7)
        assert isinstance(strategy, FedLPS)
        assert strategy.ratio_policy == "fixed"
        assert strategy.fixed_ratio == 0.7

    def test_rcr_uses_capability_policy(self):
        assert ablations.rcr().ratio_policy == "capability"
