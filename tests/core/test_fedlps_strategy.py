"""Integration-level tests for the FedLPS strategy."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import build_strategy
from repro.core import FedLPS
from repro.experiments import build_experiment
from repro.federated import FederatedConfig, FederatedTrainer, run_federated
from repro.models import build_model_for_dataset
from repro.systems import affordable_ratio

_SPEC = importlib.util.spec_from_file_location(
    "golden_fixtures",
    Path(__file__).resolve().parents[1] / "fixtures" / "regenerate_golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def builder():
    return build_model_for_dataset("mnist", seed=0)


class TestFedLPSConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            FedLPS(ratio_policy="unknown")
        with pytest.raises(ValueError):
            FedLPS(pattern_mode="unknown")
        with pytest.raises(ValueError):
            FedLPS(fixed_ratio=0.0)

    @pytest.mark.parametrize("rate", [0.0, -0.1])
    def test_non_positive_importance_rate_fails_at_construction(self, rate):
        with pytest.raises(ValueError, match="importance_learning_rate"):
            FedLPS(importance_learning_rate=rate)

    def test_importance_rate_none_shares_the_model_rate(self):
        assert FedLPS(importance_learning_rate=None).importance_learning_rate is None

    def test_name_reflects_variant(self):
        assert FedLPS().name == "fedlps"
        assert "fixed" in FedLPS(ratio_policy="fixed").name
        assert "magnitude" in FedLPS(pattern_mode="magnitude").name


class TestFedLPSBehaviour:
    def test_setup_initializes_client_state(self, small_fed_dataset, tiny_config):
        trainer = FederatedTrainer(FedLPS(), small_fed_dataset, builder,
                                   config=tiny_config)
        trainer.strategy.setup(trainer.context)
        for client in trainer.clients.values():
            assert "ratio" in client.state
            assert client.state["agent"] is not None
            assert 0.0 < client.state["ratio"] <= 1.0

    def test_ratio_capped_by_capability(self, small_fed_dataset, tiny_config):
        trainer = FederatedTrainer(FedLPS(), small_fed_dataset, builder,
                                   config=tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        for client in trainer.clients.values():
            client.state["ratio"] = 1.0
            update = strategy.local_update(0, client)
            assert update.sparse_ratio <= affordable_ratio(client.capability) + 1e-9

    def test_residual_upload_respects_mask(self, small_fed_dataset, tiny_config):
        trainer = FederatedTrainer(FedLPS(), small_fed_dataset, builder,
                                   config=tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        update = strategy.local_update(0, client)
        mask = trainer.model.expand_unit_masks(
            {k: np.asarray(v, dtype=float) for k, v in update.pattern.items()})
        for key, values in update.params.items():
            assert np.all(values[mask[key] == 0.0] == 0.0)

    def test_personalized_evaluation_uses_stored_model(self, small_fed_dataset,
                                                       tiny_config):
        trainer = FederatedTrainer(FedLPS(), small_fed_dataset, builder,
                                   config=tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        params, pattern = strategy.client_evaluation(client)
        assert pattern is None  # never trained yet -> dense global model
        strategy.local_update(0, client)
        params, pattern = strategy.client_evaluation(client)
        assert pattern is not None

    def test_post_round_updates_ratio_via_bandit(self, small_fed_dataset,
                                                 tiny_config):
        trainer = FederatedTrainer(FedLPS(), small_fed_dataset, builder,
                                   config=tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        client = trainer.clients[0]
        update = strategy.local_update(0, client)
        strategy.aggregate(0, [update])
        from repro.systems import CostBreakdown
        strategy.post_round(0, [update], {0: CostBreakdown(1.0, 0.5)})
        assert "prev_accuracy" in client.state
        assert strategy.ratio_min <= client.state["ratio"] <= 1.0

    def test_first_time_importance_is_the_per_client_initialization(
            self, tiny_config, monkeypatch):
        """A cohort's first-timers share one ``smoothed_unit_magnitudes`` of
        the broadcast; each one's scores are still, byte for byte, what
        ``initialize_importance`` computes for it alone."""
        from repro.core import initialize_importance
        from repro.core import strategy as fedlps_module
        from repro.data import build_federated_dataset

        dataset = build_federated_dataset("mnist", num_clients=8,
                                          examples_per_client=20, seed=0)
        trainer = FederatedTrainer(FedLPS(), dataset, builder,
                                   config=tiny_config)
        strategy = trainer.strategy
        strategy.setup(trainer.context)
        real = fedlps_module.learnable_sparse_training_cohort
        handed_in = []

        def recording(model, global_params, importances, *args, **kwargs):
            handed_in.extend(each.copy() for each in importances)
            return real(model, global_params, importances, *args, **kwargs)

        monkeypatch.setattr(fedlps_module, "learnable_sparse_training_cohort",
                            recording)
        clients = [trainer.clients[cid] for cid in range(8)]
        strategy.local_update_cohort(0, clients)
        assert len(handed_in) == 8
        for client, importance in zip(clients, handed_in):
            trainer.model.set_parameters(strategy.global_params)
            alone = initialize_importance(
                trainer.model,
                seed=tiny_config.seed * 104_729 + client.client_id)
            assert list(importance.scores) == list(alone.scores)
            for name, scores in alone.scores.items():
                assert importance.scores[name].tobytes() == scores.tobytes()

    def test_full_run_beats_random_guessing(self, small_fed_dataset):
        config = FederatedConfig(num_rounds=6, clients_per_round=3,
                                 local_iterations=4, batch_size=10, seed=0)
        history = run_federated(FedLPS(), small_fed_dataset, builder,
                                config=config)
        assert history.final_accuracy() > 1.5 / small_fed_dataset.num_classes

    def test_fedlps_uses_fewer_flops_than_dense(self, small_fed_dataset,
                                                tiny_config):
        from repro.federated import Strategy
        dense = run_federated(Strategy(), small_fed_dataset, builder,
                              config=tiny_config)
        sparse = run_federated(FedLPS(), small_fed_dataset, builder,
                               config=tiny_config)
        assert sparse.total_flops < dense.total_flops

    @pytest.mark.parametrize("policy", ["fixed", "capability"])
    def test_ratio_policies_run(self, small_fed_dataset, tiny_config, policy):
        history = run_federated(FedLPS(ratio_policy=policy), small_fed_dataset,
                                builder, config=tiny_config)
        assert len(history) == tiny_config.num_rounds

    @pytest.mark.parametrize("pattern", ["random", "ordered", "magnitude"])
    def test_pattern_modes_run(self, small_fed_dataset, tiny_config, pattern):
        history = run_federated(FedLPS(pattern_mode=pattern, ratio_policy="fixed"),
                                small_fed_dataset, builder, config=tiny_config)
        assert len(history) == tiny_config.num_rounds
        ratios = history.records[-1].sparse_ratios
        assert all(0 < r <= 1 for r in ratios.values())


#: sha256 of the sorted-key history JSON, recorded at the parent commit of
#: PR 18 (9d506ca) on the unmodified three-body code
PINNED_ABLATION_DIGESTS = {
    "random":
        "f826de10dd367ccefc4e1a2d035e088e335130deb8feae78cba1465a3e688c8e",
    "ordered":
        "b3c6cf7eaf386abd76356156de4f1b22687bcf8709370c5b9e848d292c251bfa",
    "magnitude":
        "a65e0c7d48e5d69e6187ba8890e0d292ac7f7b88b0b7ae71bd7c353db961df4e",
    "learnable@0.5":
        "aa0f690969b3dc69916a7047bb24c9dbbbc5e8c756db15dbf4215ae89e848298",
}


@pytest.mark.parametrize("variant", list(PINNED_ABLATION_DIGESTS))
def test_pattern_ablation_histories_are_pinned(variant):
    """Byte-level oracle for the Figure 9a ablations the goldens do not cover.

    The registry goldens pin only the learnable P-UCBV / fixed / capability
    variants; the heuristic-pattern path (``FedLPS._heuristic_update``) and
    the fixed-ratio learnable sweep get their digests here.  The constants
    were recorded at the parent commit of the PR that folded the three
    pattern -> mask -> train bodies into one, before any source change, and
    must never be regenerated by a refactor.
    """
    strategy = build_strategy("fedlps", ratio_policy="fixed", fixed_ratio=0.5,
                              pattern_mode=variant.split("@")[0],
                              ratio_min=0.25)
    # the digests cover history.method, which is strategy.name: keep the
    # label each variant was recorded under
    strategy.name = f"pattern-{variant}"
    dataset, model_builder, config, fleet = build_experiment(
        golden.golden_preset("ideal"))
    history = run_federated(strategy, dataset, model_builder, config=config,
                            fleet=fleet)
    digest = hashlib.sha256(
        json.dumps(history.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_ABLATION_DIGESTS[variant]
