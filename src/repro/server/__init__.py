"""Event-driven federated server core.

The server is split into three layers:

* :mod:`repro.server.clock` — a simulated clock and a completion-event
  queue ordered by the pure key ``(finish_time, client_id)``;
* :mod:`repro.server.scheduler` — the one round loop
  (:meth:`Scheduler.run`) and the training *shape* as its two hooks:
  synchronous rounds (:class:`SyncScheduler`), FedAsync-style per-arrival
  aggregation (:class:`AsyncScheduler`) and FedBuff-style buffered
  aggregation (:class:`BufferedScheduler`);
* :mod:`repro.server.policy` — staleness-weighted merging of arrivals
  into the global model, separate from the averaging kernels.

:class:`~repro.server.core.ServerCore` carries the state and services the
schedulers compose; ``repro.federated.FederatedTrainer`` is the same class
under its historical name.
"""

from .clock import ClientEvent, EventQueue, SimClock
from .core import (ServerCore, dataset_from_blocks, dataset_to_blocks,
                   materialized_session)
from .policy import (AggregationPolicy, Arrival, mix_params, staleness_decay,
                     staleness_weight)
from .scheduler import (SCHEDULERS, AsyncScheduler, BufferedScheduler,
                        Scheduler, SyncScheduler, available_aggregations,
                        build_scheduler)

__all__ = [
    "SimClock",
    "EventQueue",
    "ClientEvent",
    "ServerCore",
    "dataset_to_blocks",
    "dataset_from_blocks",
    "materialized_session",
    "AggregationPolicy",
    "Arrival",
    "staleness_decay",
    "staleness_weight",
    "mix_params",
    "Scheduler",
    "SyncScheduler",
    "AsyncScheduler",
    "BufferedScheduler",
    "SCHEDULERS",
    "available_aggregations",
    "build_scheduler",
]
