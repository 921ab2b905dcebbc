"""The FedLPS strategy: learnable patterns + P-UCBV adaptive ratios.

The class also exposes the knobs the paper ablates (Table II / Figure 9a):

* ``ratio_policy``: ``"pucbv"`` (adaptive, the full method), ``"fixed"``
  (a constant ratio for every client, the FLST ablation) or ``"capability"``
  (the rigid Resource-Controlled Ratio rule used by HeteroFL/FjORD/FedRolex);
* ``pattern_mode``: ``"learnable"`` (importance-derived, the full method) or
  one of the heuristic strategies (``"random"``, ``"ordered"``,
  ``"magnitude"``) for the pattern ablation.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..federated.client import Client
from ..federated.strategy import ClientUpdate, Strategy
from ..federated.aggregation import aggregate_residuals
from ..nn.params import ParamDict, multiply, subtract
from ..sparsity.masks import UnitPattern
from ..sparsity.patterns import heuristic_pattern
from ..systems.cost import CostBreakdown
from ..systems.devices import affordable_ratio
from ..util import in_range, positive
from .bandit import PUCBVAgent
from .importance import (ImportanceIndicator, initialize_importance,
                         smoothed_unit_magnitudes)
from .sparse_training import learnable_sparse_training_cohort

RATIO_POLICIES = ("pucbv", "fixed", "capability")
PATTERN_MODES = ("learnable", "random", "ordered", "magnitude")


class FedLPS(Strategy):
    """Learnable Personalized Sparsification for heterogeneous FL."""

    name = "fedlps"

    def __init__(self, *, ratio_policy: str = "pucbv",
                 pattern_mode: str = "learnable",
                 fixed_ratio: float = 0.5,
                 ratio_min: float = 0.4,
                 num_initial_partitions: int = 4,
                 accuracy_threshold: float = 0.5,
                 rho: float = 1.0,
                 importance_learning_rate: Optional[float] = 0.02) -> None:
        # The paper's arm space is [0, 1) and its indicator shares the model's
        # learning rate; ``ratio_min`` and ``importance_learning_rate`` are
        # re-tuned for the scaled-down backbones (README, "Departures from
        # the paper") and both remain constructor arguments.
        super().__init__()
        if ratio_policy not in RATIO_POLICIES:
            raise ValueError(f"ratio_policy must be one of {RATIO_POLICIES}")
        if pattern_mode not in PATTERN_MODES:
            raise ValueError(f"pattern_mode must be one of {PATTERN_MODES}")
        in_range(fixed_ratio, "fixed_ratio", 0, 1, low_open=True)
        # the clients build their agents inside worker tasks; one built now
        # checks the knobs (ratio_min also floors the capability policy)
        PUCBVAgent(total_rounds=1, num_clients=1, selection_fraction=1.0,
                   num_initial_partitions=num_initial_partitions,
                   accuracy_threshold=accuracy_threshold, rho=rho,
                   ratio_min=ratio_min)
        positive(importance_learning_rate, "importance_learning_rate",
                 optional=True)
        self.ratio_policy = ratio_policy
        self.pattern_mode = pattern_mode
        self.fixed_ratio = fixed_ratio
        self.ratio_min = ratio_min
        self.num_initial_partitions = num_initial_partitions
        self.accuracy_threshold = accuracy_threshold
        self.rho = rho
        self.importance_learning_rate = importance_learning_rate
        if ratio_policy != "pucbv":
            self.name = f"fedlps[{ratio_policy}/{pattern_mode}]"
        elif pattern_mode != "learnable":
            self.name = f"fedlps[{pattern_mode}]"

    # ------------------------------------------------------------ lifecycle
    def init_client_state(self, client: Client) -> None:
        """One client's persistent state, pure in ``(seed, client_id)``.

        Runs once per client, when it is first dispatched; any order of
        first appearance produces identical state because nothing here
        depends on other clients.
        """
        context = self._require_context()
        config = context.config
        # fleet size from the dataset, NOT len(context.clients): a broadcast
        # worker binding a chunk holds none of the fleet's other clients,
        # but the session dataset always knows the full federation size
        num_clients = max(context.dataset.num_clients, 1)
        # clamped to the fleet exactly like ``Strategy.select_clients``
        selection_fraction = (min(config.clients_per_round, num_clients)
                              / num_clients)
        baseline_accuracy = 100.0 / max(context.dataset.num_classes, 2)
        state = client.state
        state["importance"] = None
        state["prev_accuracy"] = baseline_accuracy
        state["personal_params"] = None
        state["personal_pattern"] = None
        if self.ratio_policy == "pucbv":
            agent = PUCBVAgent(
                total_rounds=config.num_rounds,
                num_clients=num_clients,
                selection_fraction=selection_fraction,
                num_initial_partitions=self.num_initial_partitions,
                accuracy_threshold=self.accuracy_threshold,
                rho=self.rho, ratio_min=self.ratio_min,
                seed=config.seed * 7919 + client.client_id)
            state["agent"] = agent
            state["ratio"] = agent.initial_ratio()
        elif self.ratio_policy == "fixed":
            state["agent"] = None
            state["ratio"] = self.fixed_ratio
        else:  # capability-controlled rigid rule
            state["agent"] = None
            state["ratio"] = affordable_ratio(client.capability)

    # --------------------------------------------------------- local update
    def local_updates(self, round_index: int,
                      clients: List[Client]) -> List[ClientUpdate]:
        """Learnable sparse training (Alg. 1 lines 17-27) for ``clients``,
        or a heuristic pattern in its place (``pattern_mode``)."""
        if self.pattern_mode != "learnable":
            return self._heuristic_updates(round_index, clients)
        context = self._require_context()
        config = context.config
        importances: List[ImportanceIndicator] = []
        targets = None
        for client in clients:
            importance = client.state.get("importance")
            if importance is None:
                # initialize from the broadcast global model, not from whatever
                # scratch state a previous client's training left behind — the
                # initial importance must be a pure function of the broadcast
                # and the client's seed so results do not depend on execution
                # order.  The broadcast's half is the same for every
                # first-time client of the call, so it is computed once
                if targets is None:
                    context.model.set_parameters(self.global_params)
                    targets = smoothed_unit_magnitudes(context.model)
                importance = initialize_importance(
                    context.model, targets=targets,
                    seed=config.seed * 104_729 + client.client_id)
            importances.append(importance)
        ratios = [self._effective_ratio(client) for client in clients]
        datasets = [client.train_data for client in clients]
        rngs = [self._client_rng(round_index, client.client_id)
                for client in clients]
        options = self._trainer_options(
            prox_mu=config.prox_mu, importance_lambda=config.importance_lambda,
            importance_learning_rate=self.importance_learning_rate)
        results = learnable_sparse_training_cohort(
            context.model, self.global_params, importances, datasets,
            sparse_ratios=ratios, rngs=rngs, **options)
        updates = []
        for client, ratio, result in zip(clients, ratios, results):
            client.state["importance"] = result.importance
            updates.append(self._record_update(
                client, ratio, result, pattern=result.pattern,
                residual=result.residual,
                personalized=result.personalized_params))
        return updates

    def _record_update(self, client: Client, ratio: float, result, *,
                       pattern: UnitPattern, residual: ParamDict,
                       personalized: ParamDict) -> ClientUpdate:
        """Store the client's personalized sparse model (Alg. 1 line 24) and
        wrap the masked residual it uploads (line 25); ``result`` carries the
        trainer's metrics."""
        state = client.state
        state["personal_params"] = personalized
        state["personal_pattern"] = pattern
        state["last_ratio"] = ratio
        return self._report(client, result, params=residual, pattern=pattern,
                            sparse_ratio=ratio)

    def _heuristic_updates(self, round_index: int,
                           clients: List[Client]) -> List[ClientUpdate]:
        """Pattern-ablation path (Figure 9a): a heuristic pattern in place
        of the learned one; same proximal pull, same residual upload."""
        context = self._require_context()
        # one stream per client: the pattern's draws come first, the
        # batches continue it
        rngs = {client.client_id: self._client_rng(round_index,
                                                   client.client_id)
                for client in clients}

        def pattern_of(client: Client, ratio: float) -> UnitPattern:
            return heuristic_pattern(self.pattern_mode, context.model, ratio,
                                     round_index=round_index,
                                     rng=rngs[client.client_id])

        runs = self._train_sparse(
            round_index, clients, self._effective_ratio, pattern_of,
            rngs=list(rngs.values()), prox_mu=context.config.prox_mu,
            prox_center=self.global_params)
        return [self._record_update(
                    client, ratio, result, pattern=pattern,
                    residual=multiply(subtract(self.global_params,
                                               result.params), param_mask),
                    personalized=result.params)
                for client, (ratio, pattern, result, param_mask)
                in zip(clients, runs)]

    def _effective_ratio(self, client: Client) -> float:
        """Cap the server-decided ratio by the client's capability (Sec. III-B).

        The cap uses :func:`affordable_ratio`: the capability translated into
        the largest sub-model fraction the device can host on the scaled-down
        backbones (README, "Departures from the paper").
        """
        ratio = client.state.get("ratio", self.fixed_ratio)
        cap = affordable_ratio(client.capability)
        if self.ratio_policy == "capability":
            ratio = cap
        elif self.ratio_policy == "fixed":
            # the paper's fixed-ratio experiments (FLST, Figure 9) assign the
            # same ratio to every client regardless of capability
            ratio = self.fixed_ratio
            return float(np.clip(ratio, min(self.ratio_min, ratio), 1.0))
        ratio = min(ratio, cap)
        return float(np.clip(ratio, self.ratio_min, 1.0))

    # ----------------------------------------------------------- aggregation
    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        """FedLPS aggregation of masked residuals (Eq. 13)."""
        if not updates:
            return
        self.global_params = aggregate_residuals(
            self.global_params,
            [update.params for update in updates],
            [update.num_examples for update in updates])

    # ------------------------------------------------------------ evaluation
    def client_evaluation(self, client: Client) -> Tuple[ParamDict, Optional[UnitPattern]]:
        personal = client.state.get("personal_params")
        if personal is None:
            return self.global_params, None
        return personal, client.state.get("personal_pattern")

    def evaluates_from_state(self, state: Mapping) -> bool:
        # the personalized sparse model stays on the device (Alg. 1 line 24)
        return state.get("personal_params") is not None

    # ------------------------------------------------------------- post-round
    def post_round(self, round_index: int, updates: List[ClientUpdate],
                   costs: Mapping[int, CostBreakdown]) -> None:
        """Online sparse-ratio decision for the clients that participated."""
        self._require_context()
        for update in updates:
            state = self._client_state(update.client_id)
            accuracy_percent = 100.0 * update.train_accuracy
            previous = state.get("prev_accuracy", accuracy_percent)
            if self.ratio_policy == "pucbv":
                agent: PUCBVAgent = state["agent"]
                cost_seconds = max(costs[update.client_id].total_seconds, 1e-9)
                next_ratio = agent.observe_and_select(
                    update.sparse_ratio, cost_seconds, accuracy_percent, previous)
                state["ratio"] = float(np.clip(next_ratio, self.ratio_min, 1.0))
            state["prev_accuracy"] = accuracy_percent
