"""Facade over the event-driven server core (:mod:`repro.server`).

Historically this module owned the whole synchronous round loop.  That loop
now lives in :class:`repro.server.scheduler.SyncScheduler`, one of several
schedulers (sync / fedasync / fedbuff) driving the
:class:`repro.server.core.ServerCore`; the trainer remains as the stable
public entry point that wires a strategy, dataset, executor and scenario
into the core and exposes the attributes tests and callers have always
used (``trainer.strategy``, ``trainer.context``, ``trainer.clients``, ...).

``config.aggregation`` selects the training shape:

* ``"sync"`` — the paper's synchronous round loop (select, fan out, wait
  for everyone, aggregate).  Bit-identical to the pre-refactor trainer.
* ``"fedasync"`` — FedAsync-style asynchronous aggregation: the server
  consumes client completions in simulated-time order and folds every
  arrival into the global model with the staleness-decayed weight
  ``alpha / (1 + staleness)^a``.
* ``"fedbuff"`` — FedBuff-style buffered aggregation: arrivals accumulate
  and are aggregated every ``buffer_size`` completions.

All three shapes share the executor fan-out (on pool backends per-round
client work crosses the worker boundary through the shared-memory broadcast
transport; the serial backend runs it inline on the live objects) and the
determinism contract: every decision is a pure function of
``(seed, round, client)``, so histories are bit-identical across the
serial/thread/process/socket backends.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..data.dataset import FederatedDataset
from ..nn.model import Sequential
from ..parallel import Executor
from ..server.core import ServerCore
from ..systems.cost import LocalCostModel
from ..systems.devices import DeviceFleet
from ..systems.metrics import TrainingHistory
from .config import FederatedConfig
from .fleet import ClientFleet
from .strategy import Strategy, StrategyContext


class FederatedTrainer:
    """Runs a federated simulation for one strategy on one federated dataset.

    The trainer is a thin facade: construction builds a
    :class:`~repro.server.core.ServerCore` (model, clients, fleet, cost
    model, scenario engine, broadcast transport) and :meth:`run` hands it to
    the scheduler selected by ``config.aggregation``.  See the module
    docstring for the available training shapes.

    Per-round local updates and evaluation always go through an
    :class:`~repro.parallel.Executor` — ``executor=None`` means a
    :class:`~repro.parallel.SerialExecutor`, which runs the tasks inline on
    the server's live strategy and fleet.  With a pool backend
    (``supports_broadcast``) the round-invariant payload ships through the
    shared-memory broadcast and each task only carries
    ``(client_ids, client states)`` plus two small handles.
    """

    def __init__(self, strategy: Strategy, dataset: FederatedDataset,
                 model_builder: Callable[[], Sequential], *,
                 config: Optional[FederatedConfig] = None,
                 fleet: Optional[DeviceFleet] = None,
                 cost_model: Optional[LocalCostModel] = None,
                 executor: Optional[Executor] = None) -> None:
        self.core = ServerCore(strategy, dataset, model_builder,
                               config=config, fleet=fleet,
                               cost_model=cost_model, executor=executor)

    # ------------------------------------------------------------ delegates
    @property
    def strategy(self) -> Strategy:
        return self.core.strategy

    @property
    def dataset(self) -> FederatedDataset:
        return self.core.dataset

    @property
    def config(self) -> FederatedConfig:
        return self.core.config

    @property
    def executor(self) -> Executor:
        return self.core.executor

    @property
    def fleet(self) -> DeviceFleet:
        return self.core.fleet

    @property
    def cost_model(self) -> LocalCostModel:
        return self.core.cost_model

    @property
    def scenario(self):
        return self.core.scenario

    @property
    def model(self) -> Sequential:
        return self.core.model

    @property
    def clients(self) -> ClientFleet:
        """The O(cohort) client fleet view, a ``Mapping[int, Client]``."""
        return self.core.clients

    @property
    def context(self) -> StrategyContext:
        return self.core.context

    # ------------------------------------------------------------------ run
    def run(self, *, checkpoint_dir: Optional[str] = None,
            checkpoint_every: int = 1, resume_from=None,
            stop_after_round: Optional[int] = None) -> TrainingHistory:
        """Execute the configured scheduler and return the history.

        The checkpoint knobs are forwarded to
        :meth:`repro.server.core.ServerCore.run`: ``checkpoint_dir`` turns
        on round-boundary checkpointing, ``resume_from`` (``"auto"``, a
        path, or a loaded checkpoint) continues an interrupted run
        bit-identically, ``stop_after_round`` is the deterministic
        preemption used by the resume tests.
        """
        return self.core.run(checkpoint_dir=checkpoint_dir,
                             checkpoint_every=checkpoint_every,
                             resume_from=resume_from,
                             stop_after_round=stop_after_round)

    def evaluate_personalized(self) -> float:
        """Average accuracy of every client's inference model on its test shard."""
        return self.core.evaluate_personalized()

    def close(self) -> None:
        """Release broadcast resources (recreated lazily if needed again)."""
        self.core.close()


def run_federated(strategy: Strategy, dataset: FederatedDataset,
                  model_builder: Callable[[], Sequential], *,
                  config: Optional[FederatedConfig] = None,
                  fleet: Optional[DeviceFleet] = None,
                  cost_model: Optional[LocalCostModel] = None,
                  executor: Optional[Executor] = None,
                  checkpoint_dir: Optional[str] = None,
                  checkpoint_every: int = 1, resume_from=None,
                  stop_after_round: Optional[int] = None) -> TrainingHistory:
    """Convenience wrapper: build a trainer and run it."""
    trainer = FederatedTrainer(strategy, dataset, model_builder, config=config,
                               fleet=fleet, cost_model=cost_model,
                               executor=executor)
    return trainer.run(checkpoint_dir=checkpoint_dir,
                       checkpoint_every=checkpoint_every,
                       resume_from=resume_from,
                       stop_after_round=stop_after_round)
