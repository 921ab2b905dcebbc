"""The trainer *is* the server core (:class:`repro.server.core.ServerCore`).

``FederatedTrainer`` is :class:`~repro.server.core.ServerCore` under its
historical name — same constructor, same ``run`` / ``evaluate_personalized``
/ ``close``, and ``strategy``, ``dataset``, ``config``, ``executor``,
``fleet``, ``cost_model``, ``scenario``, ``model``, ``clients`` and
``context`` are the core's own attributes.  ``ServerCore.run`` builds the
scheduler ``config.aggregation`` names and hands itself to the one round
loop, :meth:`repro.server.scheduler.Scheduler.run`:

* ``"sync"`` — the paper's synchronous round (select, fan out, wait for
  everyone, aggregate).
* ``"fedasync"`` — FedAsync-style asynchronous aggregation: the server
  consumes client completions in simulated-time order and folds every
  arrival into the global model with the staleness-decayed weight
  ``alpha / (1 + staleness)^a``.
* ``"fedbuff"`` — FedBuff-style buffered aggregation: arrivals accumulate
  and are aggregated every ``buffer_size`` completions.

All three shapes share the executor fan-out (on pool backends per-round
client work crosses the worker boundary through the shared-memory broadcast
transport; the serial backend — ``executor=None`` — runs it inline on the
live objects) and the determinism contract: every decision is a pure
function of ``(seed, round, client)``, so histories are bit-identical across
the serial/thread/process/socket backends.
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
from .strategy import Strategy

FederatedTrainer = ServerCore


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
