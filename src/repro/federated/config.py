"""Configuration of a federated simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..scenarios.config import ScenarioConfig
from ..util import (in_range, non_negative, non_negative_int, positive,
                    positive_int)

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from ..parallel.faults import FaultPlan

#: the aggregation modes the event-driven server core understands (see
#: ``repro.server.scheduler`` — sync is the paper's synchronous round loop,
#: fedasync aggregates every arrival with a staleness-decayed weight,
#: fedbuff aggregates buffered batches of ``buffer_size`` arrivals)
AGGREGATIONS = ("sync", "fedasync", "fedbuff")


@dataclass
class FleetConfig:
    """How the server materializes the client fleet.

    Fleet construction is O(cohort): client shards, device profiles and
    per-client state come into existence only when a client is dispatched
    (or evaluated).  ``shard_cache`` bounds each of the two pinning layers
    — the dataset's materialized-shard LRU and the server's client-facade
    LRU — so resident shard memory is at most 2x ``shard_cache`` in the
    worst case (disjoint working sets), and typically ~1x because facades
    reference the same shard objects.

    ``eval_clients`` caps the personalized-evaluation sweep, which is
    otherwise O(num_clients) per evaluated round for a method that tests
    the global model (a method whose clients keep their own model re-tests
    only the clients written to since the last sweep): ``None`` evaluates every
    client (the paper's metric, the default), ``k > 0`` evaluates a fixed
    deterministic subset of ``k`` clients drawn once from the run seed, and
    ``0`` skips personalized evaluation entirely (reported accuracy 0.0) —
    for fleet-scale smoke runs where even one sweep would dominate.
    """

    shard_cache: int = 256
    eval_clients: Optional[int] = None

    def __post_init__(self) -> None:
        positive_int(self.shard_cache, "shard_cache")
        non_negative_int(self.eval_clients, "eval_clients", optional=True)


@dataclass
class FederatedConfig:
    """Hyper-parameters shared by every strategy.

    The defaults are scaled-down versions of the paper's configuration
    (100 rounds, 10 selected clients per round, batch size 20, SGD with
    learning rate 0.1) so that simulations finish quickly on a CPU; an
    experiment preset (``repro.experiments.presets``) overrides the fields
    it shares with this class by name.
    """

    num_rounds: int = 20
    clients_per_round: int = 4
    local_iterations: int = 6
    batch_size: int = 16
    learning_rate: float = 0.1
    momentum: float = 0.0
    clip_norm: Optional[float] = 5.0
    # FedLPS loss weights (Eq. 9): mu scales the proximal term, lam the
    # importance regularizer.  The paper uses mu = lambda = 1 with full-size
    # backbones; on this reproduction's scaled-down models a mu of 1.0
    # overwhelms the task gradient, so the default is re-tuned (README,
    # "Departures from the paper").
    prox_mu: float = 0.05
    importance_lambda: float = 0.1
    # communication/computation trade-off weight in the cost model (Eq. 14)
    cost_alpha: float = 1.0
    # evaluate the personalized models every ``eval_every`` rounds
    eval_every: int = 1
    seed: int = 0
    # system-heterogeneity scenario (availability / stragglers / deadlines);
    # None runs the paper's ideal setting where every client always finishes
    scenario: Optional[ScenarioConfig] = None
    # server aggregation mode: "sync" (the paper's synchronous round loop),
    # "fedasync" (aggregate every arrival, staleness-weighted) or "fedbuff"
    # (aggregate buffered batches of ``buffer_size`` arrivals)
    aggregation: str = "sync"
    # FedAsync mixing rate: a fresh update moves the global model by
    # ``async_alpha``; an update ``s`` server versions stale by
    # ``async_alpha / (1 + s) ** staleness_exponent``
    async_alpha: float = 0.6
    staleness_exponent: float = 0.5
    # FedBuff buffer: aggregate every ``buffer_size`` arrivals; a partial
    # buffer at run end is never flushed
    buffer_size: int = 2
    # arrivals the async server consumes before dispatching the next round;
    # None picks the scheduler default (clients_per_round for fedasync,
    # buffer_size for fedbuff)
    async_arrivals_per_round: Optional[int] = None
    # wire codec for the parameter round trip (``repro.parallel.codec``):
    # "dense" is the historical raw-float64 wire format; "sparse" is a
    # lossless indexed-slice delta (bit-identical histories, fewer uplink
    # bytes); "int8"/"pq" are lossy low-precision modes with their own
    # golden fixtures
    codec: str = "dense"
    # deterministic fault injection (``repro.parallel.faults``): a chaos
    # schedule whose decisions are pure in (fault_seed, round, client,
    # attempt) — rides the checkpoint digest and result cache like every
    # other field; None runs fault-free
    faults: Optional["FaultPlan"] = None
    # supervised execution (``repro.parallel.supervision``): per-task
    # wall-clock timeout and bounded retries with exponential backoff; a
    # task that exhausts its retries degrades into a dropped client
    task_timeout: Optional[float] = None
    max_retries: int = 0
    # client-fleet materialization: shard-cache bound, evaluation-sweep cap
    fleet: FleetConfig = field(default_factory=FleetConfig)
    # vectorized cohort training (``repro.federated.batched``): run a
    # round's same-architecture local updates as stacked tensor programs
    # with the client dimension as the leading axis — the server core plans
    # the cohort into contiguous balanced chunks, at least one per executor
    # worker and each stacking at most 64 rows (clients x batch_size) per
    # step (``ServerCore._plan_chunks``).  Bit-identical to the per-client
    # loop when the strategy/model pair supports it (the strategy
    # advertises via ``cohort_batchable``); unsupported pairs and supervised
    # fan-outs fall back to the loop.  Off by default (the cross-device
    # presets ``mnist-100k`` / ``mnist-1m`` opt in); it keys result caches
    # and checkpoint run digests like every field.
    batch_cohort: bool = False
    # sharded parameter-server aggregation (``repro.parallel.sharding``):
    # partition the parameter manifest by key across N reducer shards so
    # per-shard aggregation bandwidth scales ~1/N.  The key→shard map is a
    # pure function of the key name and shard count, and per-shard
    # reductions keep the input order, so histories stay bit-identical to
    # the serial reference at any shard count.
    reducer_shards: int = 1
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # every number is checked here, so a bad value fails at
        # construction, not from the optimizer inside a worker task
        for name in ("num_rounds", "clients_per_round", "local_iterations",
                     "batch_size", "eval_every", "buffer_size",
                     "reducer_shards"):
            positive_int(getattr(self, name), name)
        non_negative_int(self.seed, "seed")
        non_negative_int(self.max_retries, "max_retries")
        positive_int(self.async_arrivals_per_round,
                     "async_arrivals_per_round", optional=True)
        positive(self.learning_rate, "learning_rate")
        positive(self.clip_norm, "clip_norm", optional=True)
        positive(self.task_timeout, "task_timeout", optional=True)
        for name in ("prox_mu", "importance_lambda", "cost_alpha",
                     "staleness_exponent"):
            non_negative(getattr(self, name), name)
        in_range(self.momentum, "momentum", 0, 1, high_open=True)
        in_range(self.async_alpha, "async_alpha", 0, 1, low_open=True)
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation mode {self.aggregation!r}; "
                f"choose from {AGGREGATIONS}")
        # imported here to keep config importable without the parallel stack
        from ..parallel.codec import available_codecs

        if self.codec not in available_codecs():
            raise ValueError(f"unknown codec {self.codec!r}; "
                             f"choose from {available_codecs()}")
        if self.faults is not None:
            # imported late for the same reason as the codec check above
            from ..parallel.faults import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise TypeError("faults must be a FaultPlan")
        if not isinstance(self.fleet, FleetConfig):
            raise TypeError("fleet must be a FleetConfig")
