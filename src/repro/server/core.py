"""The event-driven server core: state, fan-out transport and services.

:class:`ServerCore` owns a run's strategy, dataset, device fleet, cost
model, scenario engine, executor and the shared-memory broadcast transport
— it *is* the trainer (``repro.federated.FederatedTrainer`` is this class
under its historical name) — but not the shape of a round.  The round loop
and its *shape* (when clients are dispatched, when arrivals are aggregated)
live in :meth:`repro.server.scheduler.Scheduler.run`, which
:meth:`ServerCore.run` hands the core to; the core provides the services
the loop composes:

* deterministic client selection (with scenario over-selection),
* availability splits and per-client latencies from the scenario engine,
* local-update fan-out over the executor, results in dispatch order, as
  one plan: the cohort is partitioned into chunks — the unit of dispatch —
  by :meth:`ServerCore._plan_chunks` (an opted-in batchable cohort into
  contiguous balanced chunks, at least one per worker and each stacking
  at most ``_CHUNK_ROWS`` rows per step; single clients otherwise), every
  chunk runs through one task body (a multi-client chunk as one stacked
  ``(C, ...)`` program), and the only transport selection is the
  executor's ``supports_broadcast`` (inline on the live objects vs bound
  from the shared-memory broadcast handles),
* cost accounting through the Eq. 14 cost model,
* personalized evaluation,
* the session/round shared-memory broadcasts from ``repro.parallel``.

The session broadcast ships the run invariants once per trainer; since the
event-driven refactor the *dataset arrays* ride the broadcast manifest as
raw shared-memory blocks (like the global parameters) instead of inside the
pickled session blob — only a small skeleton (names, shapes, client ids) is
pickled.
"""

from __future__ import annotations

import copy
import threading
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..data.dataset import ClientData, Dataset, FederatedDataset
from ..data.partition import VirtualFederatedDataset
from ..federated.client import Client
from ..federated.config import FederatedConfig
from ..federated.evaluation import evaluate_params
from ..federated.fleet import ClientFleet
from ..federated.strategy import ClientUpdate, Strategy, StrategyContext
from ..nn.model import Sequential
from ..nn.params import param_nbytes
from ..parallel import (Broadcast, BroadcastHandle, Executor, SerialExecutor,
                        materialize)
from ..parallel.codec import EncodedParams, resolve_codec
from ..parallel.supervision import RetryPolicy, run_supervised
from ..scenarios.engine import RoundOutcome, ScenarioEngine
from ..sparsity.accounting import SparseCost
from ..systems.cost import CostBreakdown, LocalCostModel
from ..systems.devices import DeviceFleet, VirtualDeviceFleet
from ..systems.metrics import TrainingHistory

#: key prefix of the dataset blocks on the session broadcast manifest
_DATASET_BLOCK_PREFIX = "dataset"

#: round_index tag of the session broadcast (round broadcasts use >= -1)
_SESSION_ROUND_INDEX = -2

#: salt of the deterministic evaluation-subset draw (fleet.eval_clients)
_EVAL_SUBSET_SALT = 0xE7A1

#: rows (clients x batch_size) one stacked chunk trains per step: past this
#: the ``(C, ...)`` activations fall out of cache and stacking stops paying
#: (measured optimum 64-128 on the MNIST backbone, <= 128 everywhere)
_CHUNK_ROWS = 64


# ----------------------------------------------------------- session blocks
def dataset_to_blocks(dataset: FederatedDataset
                      ) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Split a federated dataset into raw array blocks + a pickled skeleton.

    Eager datasets ship every client's train/test arrays as manifest blocks
    (the PR 4 transport).  Virtual datasets ship O(1) instead: generated
    federations put only their :class:`~repro.data.partition.FederationSpec`
    in the skeleton (any worker rebuilds any client from it), and pooled
    federations add the base arrays plus the CSR index assignment — per
    -client *index slices*, never per-client shard copies — so worker-side
    materialization stays O(cohort).
    """
    if isinstance(dataset, VirtualFederatedDataset) and dataset.spec is not None:
        # the descriptive fields travel alongside the spec (mirroring
        # VirtualFederatedDataset.__reduce__) so a post-construction change
        # to them survives this transport exactly like the pickle one
        skeleton = {"kind": "virtual", "spec": dataset.spec,
                    "overrides": {"name": dataset.name,
                                  "num_classes": dataset.num_classes,
                                  "input_shape": tuple(dataset.input_shape),
                                  "metadata": dict(dataset.metadata)}}
        return dict(dataset.transport_blocks()), skeleton
    blocks: Dict[str, np.ndarray] = {}
    for client_id in map(int, dataset.client_ids):
        shard = dataset.clients[client_id]
        blocks[f"{_DATASET_BLOCK_PREFIX}/{client_id}/train/x"] = shard.train.x
        blocks[f"{_DATASET_BLOCK_PREFIX}/{client_id}/train/y"] = shard.train.y
        blocks[f"{_DATASET_BLOCK_PREFIX}/{client_id}/test/x"] = shard.test.x
        blocks[f"{_DATASET_BLOCK_PREFIX}/{client_id}/test/y"] = shard.test.y
    skeleton = {
        "kind": "blocks",
        "name": dataset.name,
        "num_classes": dataset.num_classes,
        "input_shape": tuple(dataset.input_shape),
        "metadata": dict(dataset.metadata),
        "client_ids": [int(cid) for cid in dataset.client_ids],
    }
    return blocks, skeleton


def dataset_from_blocks(skeleton: Dict[str, object],
                        blocks: Dict[str, np.ndarray], *,
                        shard_cache: int = 256) -> FederatedDataset:
    """Inverse of :func:`dataset_to_blocks` (arrays are shared, not copied)."""
    if skeleton.get("kind") == "virtual":
        spec = skeleton["spec"]
        pooled = None
        if "dataset/base/x" in blocks:
            pooled = (blocks["dataset/base/x"], blocks["dataset/base/y"],
                      blocks["dataset/assign/indices"],
                      blocks["dataset/assign/offsets"])
        dataset = VirtualFederatedDataset.from_spec(spec,
                                                    shard_cache=shard_cache,
                                                    pooled_arrays=pooled)
        for field_name, value in skeleton.get("overrides", {}).items():
            setattr(dataset, field_name, value)
        return dataset
    clients: Dict[int, ClientData] = {}
    for client_id in skeleton["client_ids"]:
        prefix = f"{_DATASET_BLOCK_PREFIX}/{client_id}"
        clients[client_id] = ClientData(
            client_id=client_id,
            train=Dataset(blocks[f"{prefix}/train/x"],
                          blocks[f"{prefix}/train/y"]),
            test=Dataset(blocks[f"{prefix}/test/x"],
                         blocks[f"{prefix}/test/y"]))
    return FederatedDataset(
        name=skeleton["name"], clients=clients,
        num_classes=skeleton["num_classes"],
        input_shape=tuple(skeleton["input_shape"]),
        metadata=dict(skeleton["metadata"]))


#: worker-side memo of rebuilt sessions, keyed like the materialize cache —
#: thread-local for the same reason (per process-worker / per thread-worker)
_session_memo = threading.local()
_SESSION_MEMO_LIMIT = 2


def materialized_session(handle: BroadcastHandle) -> tuple:
    """The rebuilt ``(model, dataset, fleet, config, cost_model)`` session.

    :func:`repro.parallel.materialize` already caches the raw blocks and the
    pickled skeleton per worker; this memo additionally caches the
    *reconstructed* dataset so the per-task cost of a session hit is a pure
    dictionary lookup.
    """
    memo = getattr(_session_memo, "entries", None)
    if memo is None:
        memo = _session_memo.entries = {}
    key = handle.cache_key
    hit = memo.get(key)
    if hit is not None:
        return hit
    blocks, payload = materialize(handle)
    model, skeleton, fleet, config, cost_model = payload
    dataset = dataset_from_blocks(skeleton, blocks or {},
                                  shard_cache=config.fleet.shard_cache)
    session = (model, dataset, fleet, config, cost_model)
    if len(memo) >= _SESSION_MEMO_LIMIT:
        memo.clear()
    memo[key] = session
    return session


# ------------------------------------------------------------- task bodies
def _run_chunk(strategy: Strategy, round_index: int, clients: List[Client]
               ) -> List[Tuple[ClientUpdate, Dict]]:
    """Run one chunk of a cohort's local updates — the one task body.

    A multi-client chunk (only planned when the strategy is
    ``cohort_batchable``) runs through ``local_update_cohort`` as one
    batched tensor program, a size-1 chunk through ``local_update``; either
    way the result matches the per-client dispatch, update by update and
    state by state.  Strategies persist per-client information in
    ``client.state``, so the (possibly mutated) state dictionary rides back
    alongside each update: across a worker boundary the caller never sees
    in-place mutations.
    """
    if len(clients) > 1:
        updates = strategy.local_update_cohort(round_index, clients)
    else:
        updates = [strategy.local_update(round_index, client)
                   for client in clients]
    return [(update, client.state)
            for update, client in zip(updates, clients)]


def _evaluate_client(strategy: Strategy, client: Client) -> float:
    """Accuracy of one client's personalized model on its test shard."""
    params, pattern = strategy.client_evaluation(client)
    result = evaluate_params(strategy.context.model, params, client.test_data,
                             pattern=pattern)
    return result["accuracy"]


# --------------------------------------------------------- broadcast tasks
def _bind_broadcast(session_handle: BroadcastHandle,
                    round_handle: BroadcastHandle,
                    client_ids: Tuple[int, ...],
                    states: Tuple[Optional[Dict], ...]
                    ) -> Tuple[Strategy, List[Client]]:
    """Rebuild a dispatch-ready strategy + clients from broadcast handles.

    The session broadcast carries the run invariants (model architecture,
    dataset shards/spec, fleet, config, cost model); the round broadcast
    carries the strategy template and the global parameter blocks.  Both
    are cached per worker (:func:`repro.parallel.materialize` plus the
    session memo above), so only ``(client_ids, states)`` actually crosses
    the worker boundary per task.  A ``None`` state marks a client that has
    never participated: the worker runs the strategy's (pure per client)
    ``init_client_state`` itself, which is bit-identical to server-side
    initialization and saves the server from materializing the client at
    all.  Reusing the materialized template across a worker's sequential
    tasks mirrors the serial reference, where one strategy/model instance
    serves every client of the round in turn.
    """
    model, dataset, fleet, config, cost_model = \
        materialized_session(session_handle)
    global_params, (template, rng) = materialize(round_handle)
    clients: Dict[int, Client] = {}
    for client_id, state in zip(client_ids, states):
        clients[client_id] = Client(
            client_id, dataset.client(client_id), fleet[client_id],
            state={} if state is None else state)
    strategy = copy.copy(template)
    strategy.global_params = global_params
    strategy.context = StrategyContext(
        model=model, clients=clients, dataset=dataset,
        fleet=fleet, config=config, cost_model=cost_model, rng=rng)
    for client_id, state in zip(client_ids, states):
        if state is None:
            strategy.init_client_state(clients[client_id])
    return strategy, [clients[client_id] for client_id in client_ids]


def _broadcast_update_task(
        payload: Tuple[BroadcastHandle, BroadcastHandle, int,
                       Tuple[int, ...], Tuple[Optional[Dict], ...]]
        ) -> List[Tuple[ClientUpdate, Dict]]:
    """:func:`_run_chunk` on a worker, bound from the broadcast handles.

    Under a non-dense wire codec the worker encodes the updates' parameters
    before returning, so the *actual* cross-process pickle carries the
    compressed wire form; the server decodes on receipt.  (The inline path
    round-trips ``decode(encode(.))`` server-side instead, which composes
    to the identical numerics.)
    """
    session_handle, round_handle, round_index, client_ids, states = payload
    strategy, clients = _bind_broadcast(session_handle, round_handle,
                                        client_ids, states)
    results = _run_chunk(strategy, round_index, clients)
    config = strategy.context.config
    if config.codec != "dense":
        codec = resolve_codec(config.codec)
        for update, _ in results:
            update.params = codec.encode(update.params)
    return results


def _broadcast_evaluation_task(
        payload: Tuple[BroadcastHandle, BroadcastHandle,
                       Tuple[int, ...], Tuple[Optional[Dict], ...]]
        ) -> List[float]:
    """One worker's chunk of an evaluation sweep, bound from the handles.

    The strategy is bound once and evaluates the chunk's clients in turn,
    as the serial reference does on the server's one instance.
    """
    session_handle, round_handle, client_ids, states = payload
    strategy, clients = _bind_broadcast(session_handle, round_handle,
                                        client_ids, states)
    return [_evaluate_client(strategy, client) for client in clients]


def _balanced_chunks(ids: List[int], count: int) -> List[List[int]]:
    """``ids`` as ``min(count, len(ids))`` contiguous chunks, sizes within
    one of each other, order kept (an empty ``ids`` gives no chunk)."""
    count = min(count, len(ids))
    return [ids[len(ids) * index // count:len(ids) * (index + 1) // count]
            for index in range(count)]


# ------------------------------------------------------------------- core
class ServerCore:
    """Server-side state and services shared by every scheduler.

    The core is strategy-agnostic and *shape*-agnostic: it knows how to
    select clients, fan their local updates out across the executor, bill
    their costs and evaluate the personalized models — the scheduler decides
    in which order those services compose into a training run.
    """

    def __init__(self, strategy: Strategy, dataset: FederatedDataset,
                 model_builder: Callable[[], Sequential], *,
                 config: Optional[FederatedConfig] = None,
                 fleet: Optional[DeviceFleet] = None,
                 cost_model: Optional[LocalCostModel] = None,
                 executor: Optional[Executor] = None) -> None:
        self.strategy = strategy
        self.dataset = dataset
        self.config = config or FederatedConfig()
        if (self.config.aggregation == "fedbuff"
                and self.config.buffer_size > dataset.num_clients):
            # buffered clients stay blocked until their update is flushed
            raise ValueError(
                f"fedbuff buffer_size {self.config.buffer_size} exceeds the "
                f"{dataset.num_clients} clients: the buffer never fills, "
                "the global model never moves")
        # the serial executor is the null executor: inline on live objects
        self.executor = executor if executor is not None else SerialExecutor()
        self._session_broadcast: Optional[Broadcast] = None
        # wire codec of the parameter round trip
        self.codec = resolve_codec(self.config.codec)
        # supervised execution (retries/timeouts/fault injection): active
        # whenever the config asks for any of it
        self.retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            task_timeout=self.config.task_timeout)
        self.supervised = (self.config.faults is not None
                           or self.retry_policy.active)
        # the last fan-out's (extras, failed) for take_fanout_report: wire_*
        # counters only under a non-dense codec, fault_* counters and
        # exhausted clients only under supervision, so default runs attach
        # nothing and their histories stay byte-stable
        self._last_fanout: Tuple[Dict[str, float], List[int]] = ({}, [])
        self.fleet = fleet if fleet is not None else VirtualDeviceFleet(
            dataset.num_clients, seed=self.config.seed)
        self.cost_model = cost_model or LocalCostModel(self.config.cost_alpha,
                                                       seed=self.config.seed)
        self.scenario = (ScenarioEngine(self.config.scenario,
                                        seed=self.config.seed)
                         if self.config.scenario is not None else None)
        self.model = model_builder()
        # the fleet view: Client facades, shards, device profiles and state
        # come into existence per dispatched cohort, whatever dataset and
        # device fleet were handed in.
        # ``config.fleet.shard_cache`` is authoritative for both pinning
        # layers — the facade cache here and the dataset's shard LRU (which
        # may have been built with a different bound) — so worst-case
        # resident shards are <= 2x shard_cache (disjoint id sets in the
        # two caches), documented in FleetConfig.
        shard_map = dataset.clients
        if hasattr(shard_map, "resize"):
            shard_map.resize(self.config.fleet.shard_cache)
        self.clients: ClientFleet = ClientFleet(
            dataset, self.fleet, cache_size=self.config.fleet.shard_cache)
        self._eval_ids: Optional[List[int]] = None
        # out-of-band ledger (like ``ClientFleet.facade_builds``): clients an
        # evaluation sweep ran vs. took from the state store's memo
        self.evaluation_stats: Dict[str, int] = {"evaluated": 0, "reused": 0}
        self.context = StrategyContext(
            model=self.model, clients=self.clients, dataset=dataset,
            fleet=self.fleet, config=self.config, cost_model=self.cost_model,
            rng=np.random.default_rng(self.config.seed))

    @property
    def core(self) -> "ServerCore":
        """The trainer is the core; ``bench/probes.py`` is the last reader of
        the old facade's attribute (it moves in a ``benchmark`` PR)."""
        return self

    # ------------------------------------------------------------------ run
    def run(self, *, checkpoint_dir: Optional[str] = None,
            checkpoint_every: int = 1, resume_from=None,
            stop_after_round: Optional[int] = None) -> TrainingHistory:
        """Build the configured scheduler and drive it to completion.

        ``checkpoint_dir`` enables round-boundary checkpointing (every
        ``checkpoint_every`` rounds).  ``resume_from`` continues an earlier
        run: ``"auto"`` resumes from the directory's latest checkpoint (or
        starts fresh when there is none), a path loads that file/directory,
        and a loaded :class:`~repro.checkpoint.RunCheckpoint` is used as-is
        — resuming refuses a checkpoint whose run digest does not match
        this core.  ``stop_after_round`` deterministically interrupts the
        run (checkpoint first, then raise
        :class:`~repro.checkpoint.TrainingInterrupted`), which is how the
        resume tests and the CI smoke job simulate preemption.
        """
        from ..checkpoint import CheckpointManager, resolve_resume
        from .scheduler import build_scheduler

        scheduler = build_scheduler(self.config)
        checkpointer = None
        if checkpoint_dir is not None:
            checkpointer = CheckpointManager(checkpoint_dir,
                                             every=checkpoint_every,
                                             stop_after_round=stop_after_round)
        elif stop_after_round is not None:
            raise ValueError("stop_after_round requires a checkpoint_dir "
                             "(interrupting without a checkpoint would "
                             "discard the run)")
        resume = resolve_resume(resume_from, checkpointer)
        try:
            return scheduler.run(self, checkpointer=checkpointer,
                                 resume=resume)
        finally:
            self.close()

    # -------------------------------------------------------------- scenario
    def select_clients(self, round_index: int) -> List[int]:
        """Ask the strategy for a round's clients, over-selecting if asked.

        Over-selection passes the widened budget to the strategy as an
        explicit ``count`` argument; the shared config is never mutated, so
        concurrent readers (workers holding the broadcast config, tests
        inspecting ``config.clients_per_round``) can never observe a
        temporarily patched value.
        """
        if self.scenario is None:
            return self.strategy.select_clients(round_index)
        base = self.config.clients_per_round
        target = min(self.scenario.selection_target(base), len(self.clients))
        if target == base:
            return self.strategy.select_clients(round_index)
        return self.strategy.select_clients(round_index, count=target)

    def split_available(self, round_index: int, selected: List[int]
                        ) -> Tuple[List[int], List[int]]:
        """Partition invited clients into (reachable, unreachable)."""
        if self.scenario is None:
            return list(selected), []
        return self.scenario.split_available(round_index, selected)

    def latency(self, round_index: int, client_id: int,
                base_seconds: float) -> float:
        """A client's sim latency (straggler spikes included, if scenario)."""
        if self.scenario is None:
            return float(base_seconds)
        return self.scenario.latency(round_index, client_id, base_seconds)

    def resolve_round(self, round_index: int,
                      costs: Dict[int, CostBreakdown]) -> RoundOutcome:
        """Let the scenario decide who survives and how long the round took.

        Without a scenario every client that ran participates and the round
        takes the synchronous Eq. 18 time, exactly as before this engine
        existed.
        """
        if self.scenario is None:
            return RoundOutcome(tuple(sorted(costs)), (),
                                LocalCostModel.round_time(costs.values()))
        latencies = {client_id: self.scenario.latency(
            round_index, client_id, cost.total_seconds)
            for client_id, cost in costs.items()}
        return self.scenario.resolve(round_index, latencies)

    # ----------------------------------------------------------------- costs
    def client_costs(self, round_index: int, updates: List[ClientUpdate]
                     ) -> Dict[int, CostBreakdown]:
        """Per-client Eq. 14 cost of the round's reported footprints."""
        costs: Dict[int, CostBreakdown] = {}
        for update in updates:
            device = self.fleet[update.client_id]
            footprint = SparseCost(update.flops, update.upload_bytes,
                                   update.download_bytes)
            costs[update.client_id] = self.cost_model.client_cost(
                device, footprint, round_index)
        return costs

    # ------------------------------------------------------------ broadcast
    def _session_handle(self) -> BroadcastHandle:
        """Publish the run invariants once per trainer (lazily).

        The model's parameter *values* at publication time are irrelevant:
        every task installs the parameters it needs (the trainers and
        ``evaluate_params`` all call ``set_parameters`` first), so only the
        architecture matters — exactly as with the serial reference, where
        one model instance is scratch space for every client in turn.  An
        eager dataset's arrays travel as raw manifest blocks with only the
        skeleton pickled; a virtual dataset ships its spec (plus, for pooled
        partitions, the base arrays and CSR index slices), so the session
        payload — like everything else — is O(cohort), not O(fleet).
        """
        if self._session_broadcast is None:
            blocks, skeleton = dataset_to_blocks(self.dataset)
            self._session_broadcast = Broadcast(
                (self.model, skeleton, self.fleet, self.config,
                 self.cost_model),
                params=blocks, round_index=_SESSION_ROUND_INDEX)
        return self._session_broadcast.handle

    def _round_broadcast(self, round_index: int, *,
                         encoded: Optional[EncodedParams] = None) -> Broadcast:
        """Publish the round-invariant payload: strategy template + params.

        The template is the strategy with its big, round-invariant pieces
        stripped: ``global_params`` travels as raw shared-memory blocks and
        ``context`` is rebuilt worker-side from the session broadcast.
        With ``encoded`` (a lossy codec's downlink snapshot) the parameters
        ship as codec-tagged wire blocks instead; workers decode them in
        :func:`repro.parallel.materialize` to exactly the arrays the server
        installed in :meth:`_snap_global_params`.
        """
        template = copy.copy(self.strategy)
        template.context = None
        template.global_params = None
        if encoded is not None:
            return Broadcast((template, self.context.rng),
                             encoded_params=encoded,
                             round_index=round_index)
        return Broadcast((template, self.context.rng),
                         params=self.strategy.global_params,
                         round_index=round_index)

    @contextmanager
    def _fanout_handles(self, round_index: int,
                        encoded: Optional[EncodedParams], tasks: int):
        """The handles a fan-out's tasks bind from — or None to run inline.

        The one transport selection, read off the executor: a backend with
        ``supports_broadcast`` gets the session handle plus a fresh round
        broadcast (closed when the fan-out returns); any other — or an
        empty fan-out — publishes nothing and runs the task bodies inline
        on the server's live strategy and fleet.
        """
        if not (tasks and self.executor.supports_broadcast):
            yield None
            return
        session = self._session_handle()
        with self._round_broadcast(round_index, encoded=encoded) as broadcast:
            yield session, broadcast.handle

    def _snap_global_params(self) -> Optional[EncodedParams]:
        """Push the global model through the lossy downlink (if any).

        Lossy codecs replace the global parameters with their decoded wire
        form at every dispatch/evaluation point, so the serial path,
        worker-side materialization and the next aggregation all see
        exactly what a compressed downlink delivers — a pure function of
        the config, uniform across schedulers and backends, and re-snapped
        identically after a checkpoint resume.  Lossless codecs return
        None: their downlink is the historical raw block path,
        byte-for-byte (the global model is dense, so the sparse codec
        compresses the *uplink* residuals, not the downlink).
        """
        if self.codec.lossless:
            return None
        encoded = self.codec.encode(self.strategy.global_params)
        self.strategy.global_params = self.codec.decode(encoded)
        return encoded

    def reduce_context(self):
        """The context every aggregation/merge runs under.

        With ``config.reducer_shards > 1`` this installs a
        :func:`repro.parallel.sharding.shard_plan`, partitioning the
        parameter manifest by key across reducer shards for the extent of
        the aggregation — the parameter-server reduce path.  Sharding
        never touches the history (bit-identical by construction; the
        byte ledger lives in module-level ``shard_stats``), so the
        single-shard default is a no-op context.
        """
        if self.config.reducer_shards > 1:
            from ..parallel.sharding import shard_plan
            return shard_plan(self.config.reducer_shards)
        return nullcontext()

    def close(self) -> None:
        """Release the broadcast, facade and shard caches (rebuilt lazily)."""
        if self._session_broadcast is not None:
            self._session_broadcast.close()
            self._session_broadcast = None
        self.clients.drop_caches()

    # ------------------------------------------------------------- dispatch
    def _plan_chunks(self, selected: List[int]) -> List[List[int]]:
        """Partition a cohort into the chunks its fan-out dispatches.

        The one place that decides chunk shape.  A cohort that trains
        stacked — which requires the config opt-in, no supervision
        (retry/fault bookkeeping is per client task) and a strategy/model
        pair whose batched path is bit-identical to the loop
        (``Strategy.cohort_batchable``) — goes out as contiguous balanced
        chunks: as few as give every worker of the executor one and keep
        every chunk within ``_CHUNK_ROWS`` rows (clients x ``batch_size``)
        per step — a cohort already inside the budget is not split further,
        which would only hand the per-update fixed cost back.  Any other
        cohort goes out as per-client tasks.  Each multi-client chunk runs
        as one ``(C, ...)`` program and a size-1 chunk as the client loop,
        so the plan never shows in a history.
        """
        ids = [int(cid) for cid in selected]
        stacked = (self.config.batch_cohort and not self.supervised
                   and self.strategy.cohort_batchable())
        if not stacked:
            return [[cid] for cid in ids]
        per_chunk = max(1, _CHUNK_ROWS // self.config.batch_size)
        return _balanced_chunks(
            ids, max(self.executor.workers, -(-len(ids) // per_chunk)))

    def run_local_updates(self, round_index: int, selected: List[int]
                          ) -> List[ClientUpdate]:
        """Run the selected clients' local updates as one chunked fan-out.

        Every chunk of :meth:`_plan_chunks` runs through :func:`_run_chunk`
        — inline, or on a worker bound from :meth:`_fanout_handles` — and
        the returned states are folded back into the fleet.  Broadcast
        payloads carry ``peek_state`` (the stored state, or None for
        first-time participants, whose pure init runs worker-side), so
        dispatch materializes nothing server-side: the worker is the only
        place the cohort's shards are built.

        The pool runs the cohort's chunks concurrently — a stacked cohort
        is planned as at least one chunk per worker, so batching and a pool
        compose instead of excluding each other; the call returns once the
        whole cohort has finished, updates in dispatch order.

        With supervision active (``config.faults`` / ``max_retries`` /
        ``task_timeout``) the fan-out goes through
        :func:`repro.parallel.supervision.run_supervised` instead: failed
        tasks are retried with backoff, crashed workers replenished, and a
        client that exhausts its retries is *dropped* — it produces no
        update (so it never reaches ``aggregate``/``post_round``) and is
        reported through :meth:`take_fanout_report` for the scheduler's
        ``dropped`` bookkeeping.
        """
        encoded_down = self._snap_global_params()
        chunks = self._plan_chunks(selected)
        with self._fanout_handles(round_index, encoded_down,
                                  len(chunks)) as handles:
            if handles is None:
                def task(chunk):
                    return _run_chunk(self.strategy, round_index,
                                      [self.clients[cid] for cid in chunk])
                payloads = chunks
            else:
                task = _broadcast_update_task
                payloads = [handles + (round_index, tuple(chunk), tuple(
                    self.clients.peek_state(cid) for cid in chunk))
                    for chunk in chunks]
            # a supervised fan-out only ever plans size-1 chunks, so a
            # chunk's first id names its task in fault decisions and drops
            results, faults, failed = self._dispatch(
                task, [chunk[0] for chunk in chunks], payloads,
                round_index=round_index, plan=self.config.faults)
        updates = []
        for chunk_results in results:
            for update, state in chunk_results:
                self.clients.update_state(update.client_id, state)
                updates.append(update)
        wire = (self._decode_uplinks(updates, encoded_down, len(selected))
                if self.codec.name != "dense" else {})
        self._last_fanout = ({**wire, **faults}, failed)
        return updates

    def _dispatch(self, fn, keys: List[int], payloads, *, round_index: int,
                  plan) -> Tuple[List, Dict[str, float], List[int]]:
        """Fan payloads out — supervised when the config asks for it.

        Returns the surviving results in dispatch order, the ``fault_*``
        counters and the keys whose task exhausted its retries (both empty
        without supervision).
        """
        if not self.supervised:
            return self.executor.map_ordered(fn, payloads), {}, []
        report = run_supervised(
            self.executor, fn, list(zip(keys, payloads)),
            policy=self.retry_policy, plan=plan, round_index=round_index)
        return ([result for result in report.results if result is not None],
                report.counters.as_extras(), sorted(report.failed))

    def take_fanout_report(self) -> Tuple[Dict[str, float], List[int]]:
        """The last fan-out's ``RoundRecord.extras`` + the clients it lost.

        One-shot, read by the round loop right after
        :meth:`run_local_updates`: the deterministic ``wire_*`` / ``fault_*``
        counters of the training round trip (evaluation traffic is
        deliberately excluded) and the clients that exhausted their retries,
        which go into the round's ``dropped`` list.  ``({}, [])`` for a
        dense, unsupervised run.
        """
        report, self._last_fanout = self._last_fanout, ({}, [])
        return report

    def _decode_uplinks(self, updates: List[ClientUpdate],
                        encoded_down: Optional[EncodedParams],
                        dispatched: int) -> Dict[str, float]:
        """Decode the cohort's uplinks; returns the round's wire bytes.

        Broadcast workers hand back :class:`EncodedParams` (the compressed
        form really crossed the pickling boundary); the inline path hands
        back dense dictionaries that are round-tripped through
        ``decode(encode(.))`` here so every backend applies the identical
        codec numerics.  Sparse uplinks decode to lazy indexed mappings the
        aggregation kernels reduce without densifying.
        """
        upload_wire = upload_dense = 0
        stored_values = total_values = 0
        for update in updates:
            encoded = (update.params
                       if isinstance(update.params, EncodedParams)
                       else self.codec.encode(update.params))
            upload_wire += encoded.wire_nbytes
            upload_dense += encoded.dense_nbytes
            stored_values += encoded.stored_values
            total_values += encoded.total_size
            update.params = self.codec.decode(encoded)
        if encoded_down is not None:
            down_wire = encoded_down.wire_nbytes
            down_dense = encoded_down.dense_nbytes
        else:
            down_wire = down_dense = param_nbytes(self.strategy.global_params)
        return {
            "wire_upload_bytes": float(upload_wire),
            "wire_upload_dense_bytes": float(upload_dense),
            "wire_download_bytes": float(down_wire * dispatched),
            "wire_download_dense_bytes": float(down_dense * dispatched),
            "wire_upload_density": (float(stored_values / total_values)
                                    if total_values else 1.0),
        }

    # ------------------------------------------------------------ evaluation
    def evaluation_client_ids(self) -> List[int]:
        """The ids swept by personalized evaluation.

        Every client by default (the paper's metric); with
        ``config.fleet.eval_clients`` set, a fixed deterministic subset
        drawn once per run from ``(seed, num_clients)`` — so histories stay
        a pure function of the config across backends — or no clients at
        all when the cap is 0 (fleet-scale smoke runs).
        """
        cap = self.config.fleet.eval_clients
        ids = self.clients.client_ids
        if cap is None or cap >= len(ids):
            return [int(cid) for cid in ids]
        if self._eval_ids is None:
            rng = np.random.default_rng(
                (self.config.seed, len(ids), _EVAL_SUBSET_SALT))
            chosen = rng.choice(len(ids), size=cap, replace=False)
            self._eval_ids = sorted(int(ids[position]) for position in chosen)
        return self._eval_ids

    def evaluate_personalized(self) -> float:
        """Average accuracy of the evaluation sweep's personalized models.

        Only the swept clients without a remembered accuracy are evaluated:
        a result is remembered (in the fleet's state store, which drops it
        on the client's next state write) whenever the strategy's
        ``evaluates_from_state`` says the client's stored state alone
        determined it, so a personalized method re-runs just the clients
        written to since their last evaluation while a global-model method
        re-runs the whole sweep.  The average is over the same id-ordered
        accuracies either way.

        Clients are accessed through the fleet's *observer* path: a client
        that never participated gets a transient initial state (identical
        to what participation would have initialized) and does not enter
        the sparse state store.  With the broadcast transport the server
        materializes nothing at all — the ids go out as one contiguous
        chunk per worker, payloads carry the stored states (or ``None``
        for never-participants, initialized worker-side) and each worker
        rebuilds only the clients of its chunk, all of them at once.  A
        personalized sweep touches only the changed clients' test shards;
        a global-model sweep inherently touches every swept client's, so
        for mid-size virtual fleets under such a method either keep
        ``fleet.shard_cache`` at or above the sweep size or cap the sweep
        with ``fleet.eval_clients``.
        """
        eval_ids = self.evaluation_client_ids()
        if not eval_ids:
            return 0.0
        # lossy codecs evaluate the model a compressed downlink delivers
        # (and ship exactly those wire blocks to broadcast workers); the
        # snap happens even when nothing is left to evaluate, because the
        # next aggregation starts from it.  The broadcast is a fresh one,
        # not the round's: aggregation has moved the global parameters
        # since the local-update fan-out
        encoded_down = self._snap_global_params()
        store = self.clients.state_store
        accuracies = {cid: store.remembered_accuracy(cid) for cid in eval_ids}
        pending = [cid for cid in eval_ids if accuracies[cid] is None]
        chunks = _balanced_chunks(pending, self.executor.workers)
        with self._fanout_handles(-1, encoded_down, len(chunks)) as handles:
            if handles is None:
                def task(chunk):
                    return [_evaluate_client(self.strategy,
                                             self.clients.observer(cid))
                            for cid in chunk]
                payloads = chunks
            else:
                task = _broadcast_evaluation_task
                payloads = [handles + (tuple(chunk), tuple(
                    self.clients.peek_state(cid) for cid in chunk))
                    for chunk in chunks]
            # supervised like the update fan-out, but free of the fault
            # plan (it covers update tasks) and of the history
            results, _, failed = self._dispatch(
                task, list(range(len(chunks))), payloads, round_index=-1,
                plan=None)
        if failed:
            raise RuntimeError(f"evaluation chunks {failed} ran out of retries")
        fresh = [accuracy for chunk in results for accuracy in chunk]
        for cid, accuracy in zip(pending, fresh):
            accuracies[cid] = accuracy
            state = self.clients.peek_state(cid)
            if state is not None and self.strategy.evaluates_from_state(state):
                store.remember_accuracy(cid, accuracy)
        self.evaluation_stats["evaluated"] += len(pending)
        self.evaluation_stats["reused"] += len(eval_ids) - len(pending)
        return float(np.mean([accuracies[cid] for cid in eval_ids]))
