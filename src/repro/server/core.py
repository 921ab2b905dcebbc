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
* one fan-out, :meth:`ServerCore._fan_out`, for local updates and
  personalized evaluation alike: a list of ``(ids, states)`` chunks — the
  unit of dispatch — goes over the executor, results in dispatch order;
  every chunk's clients are built by one binder (:func:`_bind_clients`)
  and run through the body the caller names (:func:`_run_chunk` or
  :func:`_evaluate_clients`, one signature), and the only transport
  selection is the executor's ``supports_broadcast`` (inline on the live
  strategy vs bound from the shared-memory broadcast handles in the one
  worker task, :func:`_fanout_task`),
* the training plan: :meth:`ServerCore._plan_chunks` partitions every
  cohort, batched or not, supervised or not, into contiguous balanced
  chunks of at most ``_CHUNK_ROWS`` rows per step, at least one per worker,
  with every client the fault plan hits cut out alone; a chunk runs as one
  ``(C, ...)`` program when the run trains stacked, as the client loop
  otherwise,
* cost accounting through the Eq. 14 cost model,
* personalized evaluation: a training chunk returns the accuracies of its
  clients whose state alone decides them (when the sweep is uncapped), and
  the sweep fans out the rest, one contiguous chunk per worker (more when
  it outgrows the shard cache),
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
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import (ClientData, Dataset, FederatedDataset,
                            LazyShardMap)
from ..data.partition import VirtualFederatedDataset
from ..federated.client import Client
from ..federated.config import FederatedConfig
from ..federated.evaluation import evaluate_cohort, evaluate_params
from ..federated.fleet import ClientFleet
from ..federated.strategy import ClientUpdate, Strategy, StrategyContext
from ..nn.batched import batchable_model
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
def _trains_stacked(context: StrategyContext) -> bool:
    """Whether a multi-client chunk runs as one ``(C, ...)`` program: the
    ``config.batch_cohort`` opt-in on a model with batched kernels.  Both
    task bodies ask; the chunk plan never does."""
    return context.config.batch_cohort and batchable_model(context.model)


def _sweep_is_uncapped(config: FederatedConfig, num_clients: int) -> bool:
    """Whether the evaluation sweep covers all ``num_clients`` clients
    (``fleet.eval_clients`` unset or at least the fleet size)."""
    cap = config.fleet.eval_clients
    return cap is None or cap >= num_clients


def _run_chunk(strategy: Strategy, round_index: int, clients: List[Client]
               ) -> List[Tuple[ClientUpdate, Dict, Optional[float]]]:
    """Run one chunk of a cohort's local updates — the training body.

    Both names are ``Strategy.local_updates``: a multi-client chunk of a
    run that trains stacked (:func:`_trains_stacked`) runs through
    ``local_update_cohort`` as one ``(C, ...)`` program, any other chunk
    as the client loop, ``local_update`` per client; either way the result
    matches the per-client dispatch, update by update and state by state.
    Strategies persist per-client information in ``client.state``, so the
    (possibly mutated) state dictionary rides back alongside each update:
    across a worker boundary the caller never sees in-place mutations.

    When the sweep covers every client (:func:`_sweep_is_uncapped`), each
    client whose new state ``evaluates_from_state`` vouches for is
    evaluated here too, through :func:`_evaluate_clients` (stacked when
    the run trains stacked), and its accuracy rides back as the third
    element — ``None`` for every other client — so the sweep need not ship
    the state out again.  ``post_round`` never changes what
    ``client_evaluation`` reads of a vouched state, so this is the float
    the sweep would compute.

    Under a non-dense wire codec the updates' parameters leave the body
    encoded, wherever it runs: on a worker the cross-process pickle carries
    the compressed wire form, and the server decodes every uplink the same
    way on receipt.
    """
    context = strategy.context
    if len(clients) > 1 and _trains_stacked(context):
        updates = strategy.local_update_cohort(round_index, clients)
    else:
        updates = [strategy.local_update(round_index, client)
                   for client in clients]
    uncapped = _sweep_is_uncapped(context.config, context.dataset.num_clients)
    vouched = [index for index, client in enumerate(clients)
               if uncapped and strategy.evaluates_from_state(client.state)]
    accuracies: List[Optional[float]] = [None] * len(clients)
    if vouched:
        for index, accuracy in zip(vouched, _evaluate_clients(
                strategy, round_index, [clients[index] for index in vouched])):
            accuracies[index] = accuracy
    codec = resolve_codec(context.config.codec)
    if codec.name != "dense":
        for update in updates:
            update.params = codec.encode(update.params)
    return [(update, client.state, accuracy)
            for update, client, accuracy in zip(updates, clients, accuracies)]


def _evaluate_clients(strategy: Strategy, round_index: int,
                      clients: List[Client]) -> List[float]:
    """Accuracies of the clients' personalized models on their test shards.

    The evaluation body of the sweep, and of a training chunk's vouched
    clients (:func:`_run_chunk`); its signature is the training body's, so
    one fan-out runs both (``round_index`` is unread).  A run that trains
    stacked (:func:`_trains_stacked`) evaluates stacked too: the chunk goes
    through :func:`~repro.federated.evaluation.evaluate_cohort`, each
    forward within ``_CHUNK_ROWS`` rows like a training step.  Any other
    run evaluates client by client, each inference model built right
    before its forward.  Every accuracy is the float ``evaluate_params``
    returns either way.
    """
    context = strategy.context
    if _trains_stacked(context):
        return evaluate_cohort(
            context.model, [strategy.client_evaluation(client)
                            for client in clients],
            [client.test_data for client in clients], max_rows=_CHUNK_ROWS)
    accuracies = []
    for client in clients:
        params, pattern = strategy.client_evaluation(client)
        accuracies.append(evaluate_params(context.model, params,
                                          client.test_data, pattern=pattern))
    return accuracies


def _bind_clients(body: Callable, strategy: Strategy,
                  dataset: FederatedDataset, fleet: DeviceFleet,
                  ids: Sequence[int],
                  states: Sequence[Optional[Dict]]) -> List[Client]:
    """Build a chunk's clients from the states its fan-out ships.

    The one place a fan-out makes a :class:`Client`, inline on the server's
    live strategy and on a worker alike.  A ``None`` state marks a client
    that is about to train for the first time: the strategy's (pure per
    client) ``init_client_state`` runs on it here, bit-identical wherever
    it runs, so the server never materializes the client to initialize it.
    An evaluation sweep ships ``{}`` for a client that has never trained
    instead, which is evaluated with that empty state.  The chunk's
    ``body`` decides how a lazy fleet's shards are read: the sweep's are
    pinned in the shard LRU, a training chunk's are read with
    :meth:`LazyShardMap.transient` and, in a fleet larger than the cache,
    die with the chunk.
    """
    read = dataset.client
    if body is not _evaluate_clients and isinstance(dataset.clients,
                                                    LazyShardMap):
        read = dataset.clients.transient
    clients = []
    for client_id, state in zip(ids, states):
        client = Client(client_id, read(client_id),
                        fleet[client_id], state={} if state is None else state)
        if state is None:
            strategy.init_client_state(client)
        clients.append(client)
    return clients


def _fanout_task(payload: Tuple[Callable, BroadcastHandle, BroadcastHandle,
                                int, Tuple[int, ...],
                                Tuple[Optional[Dict], ...]]) -> List:
    """One chunk of either fan-out on a worker, bound from the handles.

    The session broadcast carries the run invariants (model architecture,
    dataset shards/spec, fleet, config, cost model); the round broadcast
    carries the strategy template and the global parameter blocks.  Both
    are cached per worker (:func:`repro.parallel.materialize` plus the
    session memo above), so only the body's name and ``(ids, states)``
    actually cross the worker boundary per task.  Reusing the materialized
    template across a worker's sequential tasks mirrors the inline run,
    where one strategy/model instance serves every client in turn.
    """
    body, session_handle, round_handle, round_index, ids, states = payload
    model, dataset, fleet, config, cost_model = \
        materialized_session(session_handle)
    global_params, (template, rng) = materialize(round_handle)
    bound: Dict[int, Client] = {}
    strategy = copy.copy(template)
    strategy.global_params = global_params
    strategy.context = StrategyContext(
        model=model, clients=bound, dataset=dataset,
        fleet=fleet, config=config, cost_model=cost_model, rng=rng)
    clients = _bind_clients(body, strategy, dataset, fleet, ids, states)
    bound.update(zip(ids, clients))
    return body(strategy, round_index, clients)


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
        # the fleet view: shards, device profiles and state come into
        # existence per dispatched cohort, whatever dataset and device fleet
        # were handed in.  ``config.fleet.shard_cache`` is authoritative for
        # the one pinning layer, the dataset's shard LRU (which may have
        # been built with a different bound), documented in FleetConfig.
        shard_map = dataset.clients
        if hasattr(shard_map, "resize"):
            shard_map.resize(self.config.fleet.shard_cache)
        self.clients: ClientFleet = ClientFleet(dataset, self.fleet)
        self._eval_ids: Optional[List[int]] = None
        # accuracies the training chunks returned since the last sweep, by
        # client id (None: the chunk did not evaluate the client)
        self._trained_accuracies: Dict[int, Optional[float]] = {}
        # out-of-band ledger: clients an evaluation sweep ran, took from the
        # training chunks, and took from the state store's memo
        self.evaluation_stats: Dict[str, int] = {
            "evaluated": 0, "from_training": 0, "reused": 0}
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
        from ..checkpoint import CheckpointManager
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
        try:
            # the scheduler loads the checkpoint itself: a capsule passed
            # down as a call argument would stay on this frame's stack (on
            # CPython before 3.11) for the whole resumed run
            return scheduler.run(self, checkpointer=checkpointer,
                                 resume_from=resume_from)
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
        empty fan-out — publishes nothing and :meth:`_fan_out` runs the
        task bodies inline on the server's live strategy.
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
        """Release the session broadcast and the shard cache (rebuilt lazily)."""
        if self._session_broadcast is not None:
            self._session_broadcast.close()
            self._session_broadcast = None
        self.clients.drop_caches()

    # ------------------------------------------------------------- dispatch
    def _plan_chunks(self, round_index: int,
                     selected: List[int]) -> List[List[int]]:
        """Partition a cohort into the chunks its fan-out dispatches.

        The one place that decides chunk shape, for every run — batched or
        not, supervised or not.  A cohort goes out as contiguous balanced
        chunks: as few as give every worker of the executor one and keep
        every chunk within ``_CHUNK_ROWS`` rows (clients x ``batch_size``)
        — a cohort already inside the budget is not split further, which
        would only hand the per-task fixed cost back.  A client the fault
        plan hits at attempt 0 (``slow`` too) is cut out of its chunk in
        place, so every chunk's key (its first id) draws the per-client
        plan's faults.  How a chunk runs — one ``(C, ...)`` program or the
        client loop — is :func:`_run_chunk`'s business, so the plan never
        shows in a history.
        """
        ids = [int(cid) for cid in selected]
        per_chunk = max(1, _CHUNK_ROWS // self.config.batch_size)
        chunks = _balanced_chunks(
            ids, max(self.executor.workers, -(-len(ids) // per_chunk)))
        plan = self.config.faults
        # clean neighbours share the key None; a faulted client's key is its
        # own id, which makes it a group of one
        return [list(run) for chunk in chunks for _, run in groupby(
            chunk, lambda cid: None if plan is None or plan.decide(
                round_index, cid, 0).kind == "none" else cid)]

    def run_local_updates(self, round_index: int, selected: List[int]
                          ) -> List[ClientUpdate]:
        """Run the selected clients' local updates as one chunked fan-out.

        Every chunk of :meth:`_plan_chunks` runs through :func:`_run_chunk`
        in :meth:`_fan_out`, and the returned states are folded back into
        the fleet.  Chunks carry ``peek_state`` (the stored state, or None
        for first-time participants, whose pure init runs where the chunk
        is bound), so dispatch materializes nothing server-side: on a
        broadcast backend the worker is the only place the cohort's shards
        are built.  The accuracies the chunks return are kept by client id
        for the next :meth:`evaluate_personalized`, a newer training result
        replacing an older one.

        The pool runs the cohort's chunks concurrently — every cohort is
        planned as at least one chunk per worker, so batching, a pool and
        supervision compose; the call returns once the whole cohort has
        finished, updates in dispatch order.

        With supervision active (``config.faults`` / ``max_retries`` /
        ``task_timeout``) every client of a chunk that exhausts its retries
        is *dropped* — no update (so no ``aggregate``/``post_round``), and
        reported through :meth:`take_fanout_report` for the scheduler's
        ``dropped`` bookkeeping.
        """
        encoded_down = self._snap_global_params()
        chunks = [(ids, [self.clients.peek_state(cid) for cid in ids])
                  for ids in self._plan_chunks(round_index, selected)]
        results, faults, failed = self._fan_out(
            round_index, _run_chunk, chunks, encoded=encoded_down,
            plan=self.config.faults)
        updates = []
        for chunk_results in results:
            for update, state, accuracy in chunk_results:
                self.clients.update_state(update.client_id, state)
                self._trained_accuracies[update.client_id] = accuracy
                updates.append(update)
        wire = (self._decode_uplinks(updates, encoded_down, len(selected))
                if self.codec.name != "dense" else {})
        self._last_fanout = ({**wire, **faults}, failed)
        return updates

    def _fan_out(self, round_index: int,
                 body: Callable[[Strategy, int, List[Client]], List],
                 chunks: List[Tuple[List[int], List[Optional[Dict]]]], *,
                 encoded: Optional[EncodedParams], plan
                 ) -> Tuple[List, Dict[str, float], List[int]]:
        """Run ``body`` over every ``(ids, states)`` chunk — the one fan-out.

        Training (:func:`_run_chunk`) and evaluation
        (:func:`_evaluate_clients`) share it.  Without broadcast handles
        (:meth:`_fanout_handles`) a chunk runs inline on the server's live
        strategy; with them it runs in :func:`_fanout_task`, which rebuilds
        the strategy worker-side.  Either way :func:`_bind_clients` builds
        the chunk's clients from its states, and the results come back in
        dispatch order.

        With supervision active the chunks go through
        :func:`repro.parallel.supervision.run_supervised`, keyed by their
        first id, the client the fault ``plan`` decides for: a failed chunk
        is retried whole with backoff and crashed workers replenished.
        Returns the surviving results, the ``fault_*`` counters and every
        client of the chunks that exhausted their retries, sorted (both
        empty without supervision).
        """
        with self._fanout_handles(round_index, encoded,
                                  len(chunks)) as handles:
            if handles is None:
                def inline_task(chunk):
                    ids, states = chunk
                    return body(self.strategy, round_index, _bind_clients(
                        body, self.strategy, self.dataset, self.fleet, ids,
                        states))
                task, payloads = inline_task, chunks
            else:
                task = _fanout_task
                payloads = [(body, *handles, round_index, tuple(ids),
                             tuple(states)) for ids, states in chunks]
            if not self.supervised:
                return self.executor.map_ordered(task, payloads), {}, []
            report = run_supervised(
                self.executor, task,
                [(ids[0], payload)
                 for (ids, _), payload in zip(chunks, payloads)],
                policy=self.retry_policy, plan=plan, round_index=round_index)
        failed = sorted(cid for (ids, _), result in zip(chunks, report.results)
                        if result is None for cid in ids)
        return ([result for result in report.results if result is not None],
                report.counters.as_extras(), failed)

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

        :func:`_run_chunk` hands back :class:`EncodedParams` on every
        backend (on a worker the compressed form really crossed the
        pickling boundary), so every backend applies the identical codec
        numerics.  Sparse uplinks decode to lazy indexed mappings the
        aggregation kernels reduce without densifying.
        """
        upload_wire = upload_dense = 0
        stored_values = total_values = 0
        for update in updates:
            encoded = update.params
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
        ids = self.clients.client_ids
        if _sweep_is_uncapped(self.config, len(ids)):
            return [int(cid) for cid in ids]
        if self._eval_ids is None:
            rng = np.random.default_rng(
                (self.config.seed, len(ids), _EVAL_SUBSET_SALT))
            chosen = rng.choice(len(ids), size=self.config.fleet.eval_clients,
                                replace=False)
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
        re-runs the whole sweep.  Of those, a client whose training chunk
        since the last sweep already evaluated it (:func:`_run_chunk`, only
        when the sweep is uncapped) takes that accuracy, which is the one
        the sweep would compute; the map of them is emptied here, every
        sweep.  The average is over the same id-ordered accuracies either
        way.  ``evaluation_stats`` counts the three sources: ``evaluated``
        (fanned out here), ``from_training`` and ``reused`` (remembered).

        The ids left to evaluate go out through :meth:`_fan_out` as
        contiguous chunks, one per worker unless that would bind more
        clients at once than ``fleet.shard_cache`` keeps shards, each chunk
        carrying the stored states — or ``{}``
        for a client that has never trained, which is evaluated with that
        empty state (no strategy's ``client_evaluation`` reads what
        ``init_client_state`` would write before a client trains, so none
        runs) and never enters the sparse state store.  With the broadcast
        transport the server materializes nothing at all: each worker
        rebuilds only the clients of its chunk, all of them at once.  A run
        that trains stacked (``config.batch_cohort`` on a batchable model)
        evaluates each chunk stacked too — clients with equal test lengths
        share ``(C, ...)`` forwards of at most ``_CHUNK_ROWS`` rows
        (:func:`~repro.federated.evaluation.evaluate_cohort`) — and returns
        the per-client loop's floats bit for bit.  A personalized sweep
        touches only the changed clients' test shards; a global-model sweep
        inherently touches every swept client's, so for mid-size virtual
        fleets under such a method either keep ``fleet.shard_cache`` at or
        above the sweep size or cap the sweep with ``fleet.eval_clients``.
        """
        trained, self._trained_accuracies = self._trained_accuracies, {}
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
        stale = [cid for cid in eval_ids if accuracies[cid] is None]
        for cid in stale:
            accuracies[cid] = trained.get(cid)
        pending = [cid for cid in stale if accuracies[cid] is None]
        # one chunk per worker, but none larger than the shard cache: a
        # chunk's clients are bound, and hold their shards, all at once
        count = max(self.executor.workers,
                    -(-len(pending) // self.config.fleet.shard_cache))
        chunks = [(ids, [store.get(cid) or {} for cid in ids])
                  for ids in _balanced_chunks(pending, count)]
        # supervised like the update fan-out, but free of the fault plan (it
        # covers update tasks) and of the history
        results, _, failed = self._fan_out(-1, _evaluate_clients, chunks,
                                           encoded=encoded_down, plan=None)
        if failed:
            raise RuntimeError(f"evaluation of clients {failed} ran out "
                               "of retries")
        fresh = [accuracy for chunk in results for accuracy in chunk]
        accuracies.update(zip(pending, fresh))
        for cid in stale:
            state = store.get(cid)
            if state is not None and self.strategy.evaluates_from_state(state):
                store.remember_accuracy(cid, accuracies[cid])
        self.evaluation_stats["evaluated"] += len(pending)
        self.evaluation_stats["from_training"] += len(stale) - len(pending)
        self.evaluation_stats["reused"] += len(eval_ids) - len(stale)
        return float(np.mean([accuracies[cid] for cid in eval_ids]))
