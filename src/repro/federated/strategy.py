"""Strategy interface: how a federated method plugs into the simulator.

A strategy owns the global model state and decides

* which clients participate in a round (``select_clients``),
* what a client computes locally and what it uploads (``local_update``),
* how the server merges uploads (``aggregate``),
* which parameters each client uses for inference (``client_evaluation``),
* any end-of-round bookkeeping such as bandit updates (``post_round``).

The :class:`FederatedTrainer` drives the round loop, converts the uploaded
footprints into simulated time through the cost model and records metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..data.dataset import FederatedDataset, mapping_client_ids
from ..nn.model import Sequential
from ..nn.params import ParamDict, copy_params
from ..sparsity.accounting import local_round_cost
from ..sparsity.masks import UnitPattern
from ..systems.cost import CostBreakdown, LocalCostModel
from ..systems.devices import DeviceFleet
from ..nn.batched import batchable_model
from .aggregation import fedavg
from .batched import train_cohort_batched
from .client import Client
from .config import FederatedConfig
from .fleet import bind_client_state_initializer
from .local import train_locally


@dataclass
class StrategyContext:
    """Everything a strategy needs to run: model, data, devices, config.

    ``clients`` is any ``Mapping[int, Client]`` — a plain dict in
    hand-built setups, or a :class:`~repro.federated.fleet.ClientFleet`
    that materializes client facades lazily.  Strategies should index it by
    id and treat whole-mapping iteration as an O(num_clients)
    materialization.
    """

    model: Sequential
    clients: Mapping[int, Client]
    dataset: FederatedDataset
    fleet: DeviceFleet
    config: FederatedConfig
    cost_model: LocalCostModel
    rng: np.random.Generator

    @property
    def client_ids(self) -> np.ndarray:
        """Fleet ids as a cached read-only ``np.arange``-style int64 array."""
        return mapping_client_ids(self.clients)


@dataclass
class ClientUpdate:
    """What one client reports back to the server after a round."""

    client_id: int
    params: ParamDict
    num_examples: int
    train_accuracy: float
    train_loss: float
    pattern: Optional[UnitPattern] = None
    sparse_ratio: float = 1.0
    flops: float = 0.0
    upload_bytes: float = 0.0
    download_bytes: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)


class Strategy:
    """Base class implementing plain FedAvg behaviour.

    Subclasses override the hooks they need; the base implementations are a
    correct dense-FL method on their own (and are what the FedAvg baseline
    uses directly).
    """

    name = "fedavg"

    def __init__(self) -> None:
        self.context: Optional[StrategyContext] = None
        self.global_params: Optional[ParamDict] = None

    # ------------------------------------------------------------ lifecycle
    def setup(self, context: StrategyContext) -> None:
        self.context = context
        self.global_params = context.model.get_parameters()
        bind_client_state_initializer(context.clients, self.init_client_state)

    def init_client_state(self, client: Client) -> None:
        """Initialize one client's persistent ``state`` (pure per client).

        Strategies that keep per-client state (importance indicators, bandit
        bookkeeping, ...) override this instead of looping over every client
        in ``setup``: the fleet runs the hook the first time a client is
        materialized, so untouched clients cost nothing.  The
        implementation must depend only on the client (id, capability, data
        sizes) and the context — never on which other clients exist or have
        been initialized — so the order of first appearance cannot matter.
        For the fleet size use ``context.dataset.num_clients``, not
        ``len(context.clients)``: the hook may run on a broadcast worker
        whose context maps only the one client being rebuilt.
        """

    def _require_context(self) -> StrategyContext:
        if self.context is None or self.global_params is None:
            raise RuntimeError("strategy used before setup() was called")
        return self.context

    # ------------------------------------------------------------ selection
    def select_clients(self, round_index: int,
                       count: Optional[int] = None) -> List[int]:
        """Uniformly random selection of ``count`` clients.

        ``count`` defaults to ``config.clients_per_round``; the server
        passes a widened target explicitly when a scenario over-selects, so
        strategies never see (or mutate) a temporarily patched config.
        """
        context = self._require_context()
        ids = context.client_ids
        if count is None:
            count = context.config.clients_per_round
        count = min(count, len(ids))
        chosen = context.rng.choice(ids, size=count, replace=False)
        return sorted(int(cid) for cid in chosen)

    # --------------------------------------------------------- local update
    def local_update(self, round_index: int, client: Client) -> ClientUpdate:
        """Dense local SGD starting from the global parameters."""
        return self._dense_updates(round_index, [client], batched=False)[0]

    def _dense_updates(self, round_index: int, clients: List[Client], *,
                       batched: bool, **trainer_options) -> List[ClientUpdate]:
        """Dense local SGD from the global parameters for ``clients``: one
        stacked tensor program when ``batched``, else client by client on
        ``context.model``.  ``trainer_options`` reach the trainer as is."""
        context = self._require_context()
        config = context.config
        options = dict(
            iterations=config.local_iterations, batch_size=config.batch_size,
            learning_rate=config.learning_rate, momentum=config.momentum,
            clip_norm=config.clip_norm, **trainer_options)
        datasets = [client.train_data for client in clients]
        rngs = [self._client_rng(round_index, client.client_id)
                for client in clients]
        if batched:
            results = train_cohort_batched(
                context.model, [self.global_params] * len(clients), datasets,
                rngs=rngs, **options)
        else:
            results = [train_locally(context.model, self.global_params,
                                     dataset, rng=rng, **options)
                       for dataset, rng in zip(datasets, rngs)]
        updates = []
        for client, result in zip(clients, results):
            flops, upload, download = self._round_footprint(client)
            updates.append(ClientUpdate(
                client_id=client.client_id, params=result.params,
                num_examples=client.num_train_examples,
                train_accuracy=result.train_accuracy,
                train_loss=result.train_loss,
                flops=flops, upload_bytes=upload, download_bytes=download))
        return updates

    # ------------------------------------------------------ cohort batching
    def cohort_batchable(self) -> bool:
        """Whether ``local_update_cohort`` reproduces this strategy's
        per-client ``local_update`` bit-for-bit for a whole cohort.

        The base predicate is conservative: a subclass that overrides
        ``local_update`` (heterogeneous widths, personalization, custom
        uploads) automatically falls back to the per-client loop unless it
        also overrides the cohort hooks, and models containing layers
        without batched kernels (dropout, embeddings, recurrent cells)
        always fall back.
        """
        context = self._require_context()
        return (type(self).local_update is Strategy.local_update
                and batchable_model(context.model))

    def local_update_cohort(self, round_index: int,
                            clients: List[Client]
                            ) -> Optional[List[ClientUpdate]]:
        """Batched twin of ``local_update`` over a homogeneous cohort.

        Returns one :class:`ClientUpdate` per client in input order, or
        ``None`` to make the caller fall back to the per-client loop.  Only
        called when :meth:`cohort_batchable` is true.
        """
        return self._dense_updates(round_index, clients, batched=True)

    # ----------------------------------------------------------- aggregation
    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        """FedAvg: weighted average of the uploaded parameters."""
        if not updates:
            return
        self.global_params = fedavg(
            [update.params for update in updates],
            [update.num_examples for update in updates])

    # ------------------------------------------------------------ evaluation
    def client_evaluation(self, client: Client) -> Tuple[ParamDict, Optional[UnitPattern]]:
        """Parameters (and optional sub-model pattern) the client infers with."""
        self._require_context()
        return self.global_params, None

    # ------------------------------------------------------------- post-round
    def post_round(self, round_index: int, updates: List[ClientUpdate],
                   costs: Mapping[int, CostBreakdown]) -> None:
        """Hook for bandit updates, staleness bookkeeping, etc."""

    # --------------------------------------------------------------- helpers
    def _client_state(self, client_id: int) -> Dict:
        """A participant's persistent state without materializing its shard.

        ``post_round`` hooks should read state through this instead of
        ``context.clients[cid].state``: on the fleet the latter builds a
        full ``Client`` facade — synthesizing the client's data — just to
        reach a dict the fleet's sparse store already holds O(1).
        """
        context = self._require_context()
        clients = context.clients
        peek = getattr(clients, "peek_state", None)
        if peek is not None:
            state = peek(client_id)
            if state is not None:
                return state
        return clients[client_id].state

    def _client_rng(self, round_index: int, client_id: int) -> np.random.Generator:
        context = self._require_context()
        return np.random.default_rng(
            context.config.seed * 1_000_003 + round_index * 1009 + client_id)

    def _round_footprint(self, client: Client, *,
                         pattern: Optional[UnitPattern] = None,
                         uniform_ratio: Optional[float] = None
                         ) -> Tuple[float, float, float]:
        """FLOPs / upload / download footprint of one local round."""
        context = self._require_context()
        config = context.config
        cost = local_round_cost(
            context.model, client.num_train_examples, config.local_iterations,
            config.batch_size, pattern=pattern, uniform_ratio=uniform_ratio)
        return cost.flops, cost.upload_bytes, cost.download_bytes

    def snapshot_global(self) -> ParamDict:
        """A defensive copy of the current global parameters."""
        self._require_context()
        return copy_params(self.global_params)
