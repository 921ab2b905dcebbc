"""Conventional (dense, same-model) federated learning baselines.

* FedAvg and FedProx train the identical dense model on every client.
* Oort and REFL keep the dense model but select participants intelligently:
  Oort by statistical utility with exploration, REFL by resource-aware
  prioritization of rarely-seen clients with capability-scaled local work.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..federated.client import Client
from ..federated.strategy import ClientUpdate, Strategy, StrategyContext
from ..util import in_range, non_negative


class FedAvg(Strategy):
    """McMahan et al.'s FedAvg: the base strategy under its canonical name."""

    name = "fedavg"


class FedProx(Strategy):
    """FedAvg plus a proximal term that limits local drift from the global model."""

    name = "fedprox"

    def __init__(self, mu: float = 0.01) -> None:
        super().__init__()
        self.mu = non_negative(mu, "mu")

    def _dense_updates(self, round_index: int, clients: List[Client],
                       **overrides) -> List[ClientUpdate]:
        # the proximal term broadcasts along the client axis, so both the
        # per-client and the cohort hook of the base go through here
        return super()._dense_updates(
            round_index, clients, prox_mu=self.mu,
            prox_center=self.global_params, **overrides)


class Oort(Strategy):
    """Guided participant selection by statistical utility (Lai et al., OSDI'21).

    A client's utility combines its most recent training loss (statistical
    utility) with a preference for fast devices; an epsilon fraction of slots
    is reserved for exploring clients that were never observed.
    """

    name = "oort"

    def __init__(self, exploration_fraction: float = 0.3,
                 speed_weight: float = 0.5) -> None:
        super().__init__()
        self.exploration_fraction = in_range(
            exploration_fraction, "exploration_fraction", 0, 1)
        self.speed_weight = non_negative(speed_weight, "speed_weight")
        self._last_loss: Dict[int, float] = {}
        self._num_examples: Dict[int, int] = {}

    def setup(self, context: StrategyContext) -> None:
        super().setup(context)
        self._last_loss = {}
        self._num_examples = {}

    def select_clients(self, round_index: int,
                       count: Optional[int] = None) -> List[int]:
        context = self._require_context()
        ids = context.client_ids
        if count is None:
            count = context.config.clients_per_round
        count = min(count, len(ids))
        explored = [int(cid) for cid in ids if cid in self._last_loss]
        unexplored = [int(cid) for cid in ids if cid not in self._last_loss]
        n_explore = min(len(unexplored),
                        max(1, int(round(self.exploration_fraction * count)))
                        if unexplored else 0)
        n_exploit = count - n_explore
        chosen: List[int] = []
        if n_explore > 0:
            chosen.extend(int(cid) for cid in context.rng.choice(
                unexplored, size=n_explore, replace=False))
        if n_exploit > 0 and explored:
            scores = {cid: self._utility(context, cid) for cid in explored}
            ranked = sorted(explored, key=lambda cid: scores[cid], reverse=True)
            chosen.extend(ranked[:n_exploit])
        # pad with random clients if we still have open slots
        remaining = [int(cid) for cid in ids if cid not in chosen]
        while len(chosen) < count and remaining:
            pick = int(context.rng.choice(remaining))
            remaining.remove(pick)
            chosen.append(pick)
        return sorted(chosen)

    def _utility(self, context: StrategyContext, client_id: int) -> float:
        # explored clients' sizes were recorded at post_round (identical to
        # num_train_examples) and speed comes from the device fleet, so
        # scoring never materializes a client's data shard — selection
        # stays O(cohort) in shard builds
        statistical = self._last_loss.get(client_id, 0.0) * np.sqrt(
            self._num_examples.get(client_id, 0))
        speed = context.fleet[client_id].capability
        return float(statistical + self.speed_weight * speed)

    def post_round(self, round_index, updates, costs) -> None:
        for update in updates:
            self._last_loss[update.client_id] = update.train_loss
            self._num_examples[update.client_id] = update.num_examples


class REFL(Strategy):
    """Resource-efficient FL: prioritize stale clients, scale work to capability.

    Clients that have not participated recently are preferred (diversity), and
    each selected client runs a number of local iterations proportional to its
    capability so that weak devices are not overloaded (this is what produces
    REFL's FLOP savings in Table I).  Updates from weak clients are therefore
    "partially stale" and are discounted at aggregation time.
    """

    name = "refl"

    def __init__(self, staleness_decay: float = 0.7) -> None:
        super().__init__()
        self.staleness_decay = in_range(staleness_decay, "staleness_decay",
                                        0, 1, low_open=True)
        self._last_selected: Dict[int, int] = {}

    def setup(self, context: StrategyContext) -> None:
        super().setup(context)
        # sparse: only clients that participated have an entry; everyone
        # else reads the -1 default, identical to the old dense pre-fill
        self._last_selected = {}

    def select_clients(self, round_index: int,
                       count: Optional[int] = None) -> List[int]:
        context = self._require_context()
        ids = context.client_ids
        if count is None:
            count = context.config.clients_per_round
        count = min(count, len(ids))
        staleness = {int(cid): round_index - self._last_selected.get(int(cid), -1)
                     for cid in ids}
        jitter = {int(cid): float(context.rng.random()) for cid in ids}
        ranked = sorted(staleness,
                        key=lambda cid: (staleness[cid], jitter[cid]),
                        reverse=True)
        return sorted(ranked[:count])

    def local_update(self, round_index: int, client: Client) -> ClientUpdate:
        local_iterations = self._require_context().config.local_iterations
        iterations = max(1, int(round(local_iterations * client.capability)))
        result = self._train(round_index, [client], iterations=iterations)[0]
        update = self._report(client, result,
                              extras={"iterations": float(iterations)})
        update.flops *= iterations / local_iterations
        return update

    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        if not updates:
            return
        config = self._require_context().config
        weights = []
        for update in updates:
            shortfall = 1.0 - update.extras.get(
                "iterations", config.local_iterations) / config.local_iterations
            weights.append(update.num_examples
                           * (self.staleness_decay ** (shortfall * 2.0)))
        from ..federated.aggregation import fedavg
        self.global_params = fedavg([u.params for u in updates], weights)

    def post_round(self, round_index, updates, costs) -> None:
        for update in updates:
            self._last_selected[update.client_id] = round_index
