"""Strategy interface: how a federated method plugs into the simulator.

A strategy owns the global model state and decides which clients take part
in a round (``select_clients``), what its clients compute and upload
(``local_updates``), how the server merges uploads (``aggregate``), which
parameters a client infers with (``client_evaluation``, and
``evaluates_from_state``: whether those come from the client's own state
alone, so its accuracy need not be recomputed until that state is written)
and any end-of-round bookkeeping such as bandit updates (``post_round``).
The server core drives the round loop and turns the reported footprints into
simulated time.

A method overrides one hook, ``local_updates(round_index, clients)`` (one
update per client, in order, for a cohort of any size), and says only what
differs from dense FedAvg; helpers carry the rest and are the only place a
trainer is called or a :class:`ClientUpdate` is built:

* ``self._train(round_index, clients, starts=, rngs=, **overrides)`` runs
  local SGD under the config's optimizer settings (replace any, or add
  ``prox_mu=``, ``param_masks=``, ``trainable_keys=`` ...),
  ``self._train_submodels(round_index, clients, patterns)`` is the masked
  pass every sub-model method shares and ``self._train_sparse`` draws each
  client's ratio and pattern for it;
* ``self._report(client, result, params=, pattern=, sparse_ratio=)`` wraps
  the metrics, the upload and the round's FLOPs / traffic footprint.

The server calls the hook as ``local_update`` (one client) or
``local_update_cohort`` (a stacked chunk): two names, timed apart, that a
subclass may not define, as one path would then skip the override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import FederatedDataset, mapping_client_ids
from ..nn.model import Sequential
from ..nn.params import ParamDict
from ..sparsity.accounting import local_round_cost
from ..sparsity.masks import UnitPattern, build_parameter_mask
from ..systems.cost import CostBreakdown, LocalCostModel
from ..systems.devices import DeviceFleet
from .aggregation import fedavg, masked_average
from .batched import LocalUpdateResult, train_cohort_batched
from .client import Client
from .config import FederatedConfig


@dataclass
class StrategyContext:
    """Everything a strategy needs to run: model, data, devices, config.

    ``clients`` is the :class:`~repro.federated.fleet.ClientFleet` on the
    server (``setup`` and ``post_round`` run there), which builds clients
    lazily, and the chunk's bound ``{id: Client}`` on a worker.  Strategies
    should index it by id and treat whole-mapping iteration as an
    O(num_clients) materialization.
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

    ``client_evaluation`` and ``evaluates_from_state`` are a pair: a
    subclass that overrides the first to return parameters kept in
    ``client.state`` may override the second to return ``True`` for exactly
    the states where it reads nothing else; one that makes
    ``client_evaluation`` read shared state again must take the opt-in back.
    """

    name = "fedavg"

    def __init__(self) -> None:
        self.context: Optional[StrategyContext] = None
        self.global_params: Optional[ParamDict] = None

    # ------------------------------------------------------------ lifecycle
    def setup(self, context: StrategyContext) -> None:
        self.context = context
        self.global_params = context.model.get_parameters()
        context.clients.bind_state_initializer(self.init_client_state)

    def init_client_state(self, client: Client) -> None:
        """Initialize one client's persistent ``state`` (pure per client).

        Strategies that keep per-client state (importance indicators, bandit
        bookkeeping, ...) override this instead of looping over every client
        in ``setup``: the hook runs when a client is first dispatched (or
        first read through the fleet), so untouched clients cost nothing
        and an evaluation sweep never runs it.  The
        implementation must depend only on the client (id, capability, data
        sizes) and the context — never on which other clients exist or have
        been initialized — so the order of first appearance cannot matter.
        For the fleet size use ``context.dataset.num_clients``, not
        ``len(context.clients)``: the hook may run on a broadcast worker
        whose context maps none of the fleet's other clients.
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
    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        shims = sorted({"local_update", "local_update_cohort"} & set(vars(cls)))
        if shims:
            raise TypeError(
                f"{cls.__name__} defines {', '.join(shims)}: a strategy "
                "overrides local_updates(round_index, clients) alone")

    def local_updates(self, round_index: int, clients: List[Client]
                      ) -> List[ClientUpdate]:
        """Dense local SGD from the global parameters, one update per client
        in input order — the one hook a method overrides."""
        results = self._train(round_index, clients)
        return [self._report(client, result)
                for client, result in zip(clients, results)]

    def local_update(self, round_index: int, client: Client) -> ClientUpdate:
        """One client's :meth:`local_updates` (a loop chunk runs it per
        client)."""
        return self.local_updates(round_index, [client])[0]

    def local_update_cohort(self, round_index: int, clients: List[Client]
                            ) -> List[ClientUpdate]:
        """A stacked chunk's :meth:`local_updates`."""
        return self.local_updates(round_index, clients)

    def _trainer_options(self, **overrides) -> Dict:
        """The config's optimizer block as trainer keyword arguments."""
        config = self._require_context().config
        return {"iterations": config.local_iterations,
                "batch_size": config.batch_size,
                "learning_rate": config.learning_rate,
                "momentum": config.momentum, "clip_norm": config.clip_norm,
                **overrides}

    def _train(self, round_index: int, clients: List[Client], *,
               starts: Optional[Sequence[ParamDict]] = None,
               rngs: Optional[Sequence[np.random.Generator]] = None,
               **overrides) -> List[LocalUpdateResult]:
        """Local SGD for ``clients``: the one trainer call site.

        Client ``i`` starts from ``starts[i]`` (default: the global
        parameters) and draws its batches from ``rngs[i]`` (default: its
        ``_client_rng`` of this round); ``overrides`` reach the trainer as
        is.  Several clients run as one stacked tensor program, one trains
        on ``context.model`` itself and leaves it holding the trained
        parameters (:func:`train_cohort_batched`).
        """
        model = self._require_context().model
        options = self._trainer_options(**overrides)
        starts = starts or [self.global_params] * len(clients)
        rngs = rngs or [self._client_rng(round_index, client.client_id)
                        for client in clients]
        datasets = [client.train_data for client in clients]
        return train_cohort_batched(model, starts, datasets, rngs=rngs,
                                    **options)

    def _train_submodels(self, round_index: int, clients: List[Client],
                         patterns: Sequence[UnitPattern], **overrides
                         ) -> Tuple[List[LocalUpdateResult], List[ParamDict]]:
        """The one sub-model pass: expand each pattern to a parameter mask
        and train the gated, masked models from the global parameters.
        Returns ``(results, param_masks)``, each ``result.params`` already
        zero outside its mask; what is uploaded or kept is the caller's."""
        model = self._require_context().model
        masks = [build_parameter_mask(model, pattern) for pattern in patterns]
        return self._train(round_index, clients, patterns=patterns,
                           param_masks=masks, **overrides), masks

    def _train_sparse(self, round_index: int, clients: List[Client],
                      ratio_of: Callable[[Client], float],
                      pattern_of: Callable[[Client, float], UnitPattern],
                      **overrides) -> List[Tuple]:
        """Ratio -> pattern -> masked training, every sparse method's body:
        per client ``ratio_of(client)``, then ``pattern_of(client, ratio)``
        on a model reloaded with the global parameters (magnitude patterns
        read them; Hermes and FedSpa load others), then one
        :meth:`_train_submodels`.  Returns ``(ratio, pattern, result,
        param_mask)`` per client."""
        model = self._require_context().model
        ratios, patterns = [], []
        for client in clients:
            ratios.append(ratio_of(client))
            model.set_parameters(self.global_params)
            patterns.append(pattern_of(client, ratios[-1]))
        results, masks = self._train_submodels(round_index, clients, patterns,
                                               **overrides)
        return list(zip(ratios, patterns, results, masks))

    def _report(self, client: Client, result, *,
                params: Optional[ParamDict] = None,
                pattern: Optional[UnitPattern] = None,
                sparse_ratio: float = 1.0,
                uniform_ratio: Optional[float] = None,
                **fields) -> ClientUpdate:
        """The one place a :class:`ClientUpdate` is built: ``result``'s
        metrics, the uploaded ``params`` (default: all it trained) and the
        round's footprint under ``pattern`` / ``uniform_ratio``.  Methods
        that cost more or upload less than that footprint (double passes,
        on-device heads) rescale the fields of the returned update."""
        flops, upload, download = self._round_footprint(
            client, pattern=pattern, uniform_ratio=uniform_ratio)
        return ClientUpdate(
            client_id=client.client_id,
            params=result.params if params is None else params,
            num_examples=client.num_train_examples,
            train_accuracy=result.train_accuracy, train_loss=result.train_loss,
            pattern=pattern, sparse_ratio=sparse_ratio, flops=flops,
            upload_bytes=upload, download_bytes=download, **fields)

    # ----------------------------------------------------------- aggregation
    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        """FedAvg: weighted average of the uploaded parameters."""
        if not updates:
            return
        self.global_params = fedavg(
            [update.params for update in updates],
            [update.num_examples for update in updates])

    def _aggregate_submodels(self, updates: List[ClientUpdate]) -> None:
        """Coverage-aware average of masked uploads: an entry is averaged
        over the clients whose ``update.pattern`` covers it and keeps its
        old value where none does."""
        if not updates:
            return
        model = self._require_context().model
        # mask expansion reads the model's shapes only, never its values
        masks = [build_parameter_mask(model, update.pattern)
                 for update in updates]
        self.global_params = masked_average(
            self.global_params, [u.params for u in updates], masks,
            [u.num_examples for u in updates])

    # ------------------------------------------------------------ evaluation
    def client_evaluation(self, client: Client) -> Tuple[ParamDict, Optional[UnitPattern]]:
        """Parameters (and optional sub-model pattern) the client infers with.

        A client that has never trained is evaluated with an empty
        ``state``: the evaluation sweep does not run ``init_client_state``,
        so an override must give such a client what it would give it after
        initialization (typically the global model).
        """
        self._require_context()
        return self.global_params, None

    def evaluates_from_state(self, state: Mapping) -> bool:
        """Whether ``client_evaluation`` of a client holding ``state`` reads
        nothing but that state.

        When true, the client's test accuracy is a function of its state
        alone, and the server remembers it until the state is next written
        (``FleetStateStore``) instead of re-running the client every
        evaluation.  A method whose clients keep their personalized model on
        the device overrides this to say from when on (typically: once
        ``state`` holds the trained personal parameters); it must stay
        ``False`` for any state under which ``client_evaluation`` touches
        ``global_params`` or anything else on ``self`` — the default,
        because the base method evaluates the global model, which moves
        every round.

        The server also asks it of every state ``local_updates`` has just
        written, and evaluates a vouched client right there, inside its
        training chunk, before ``post_round`` runs: so a state vouched for
        must stay vouched for, and read the same by ``client_evaluation``,
        through ``post_round`` (see there).
        """
        return False

    # ------------------------------------------------------------- post-round
    def post_round(self, round_index: int, updates: List[ClientUpdate],
                   costs: Mapping[int, CostBreakdown]) -> None:
        """Hook for bandit updates, staleness bookkeeping, etc.

        Contract: for a client whose state ``evaluates_from_state`` vouches
        for, this hook may write to the state (bandit feedback, ratios) but
        never anything ``client_evaluation`` reads of it, nor anything that
        withdraws the vouching — the server has already evaluated that
        client inside its training chunk and uses the accuracy at the next
        sweep (``tests/federated/test_evaluation_memo.py`` checks every
        opted-in method).
        """

    # --------------------------------------------------------------- helpers
    def _client_state(self, client_id: int) -> Dict:
        """A participant's persistent state without materializing its shard.

        ``post_round`` hooks should read state through this instead of
        ``context.clients[cid].state``: on the fleet the latter builds a
        full ``Client`` — synthesizing the client's data — just to
        reach a dict the fleet's sparse store already holds O(1).  The
        hooks write through the returned dict, so the fleet marks the id
        dirty for the next checkpoint (``participant_state``).
        """
        clients = self._require_context().clients
        state = clients.participant_state(client_id)
        return clients[client_id].state if state is None else state

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
