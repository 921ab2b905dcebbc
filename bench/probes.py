"""Isolated layer probes: one layer's public entry point, looped, median.

``python3 bench/probes.py <workload> <seed>`` runs the probes whose home is
that workload (``metrics.PROBES``) and prints one JSON object ``{name:
value}``.  Inputs are real: the parameters, residuals and patterns come from
one FedLPS round of the workload's own federation at the given seed, never
from ``np.zeros``.  Each probe loops for at least ``MIN_SECONDS`` and reports
the median call, so a probe costs about that long whatever the layer's speed.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import socket
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from metrics import PROBES
from one import build_trainer
from workloads import WORKERS, WORKLOADS

#: seconds each probe loops for (``--min-seconds`` shortens a smoke run)
MIN_SECONDS = 0.3
NOOP_TASKS = 64
COHORT = 16
MB = 1e6


def seconds_per_call(fn) -> float:
    samples = []
    deadline = time.perf_counter() + MIN_SECONDS
    while len(samples) < 3 or time.perf_counter() < deadline:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def real_round(workload, seed: int, **overrides):
    """A set-up server core and the updates of its first real round."""
    from repro.experiments.presets import scaled

    preset = scaled(workload.preset(seed), clients_per_round=8, **overrides)
    core = build_trainer(preset, None).core
    core.strategy.setup(core.context)
    updates = core.run_local_updates(0, core.select_clients(0))
    return core, updates


def step_seconds(dataset_name: str, seed: int, batch: int = 16) -> float:
    """One forward + backward of the dataset's backbone on a real batch."""
    from repro.data import build_federated_dataset
    from repro.models import build_model_for_dataset
    from repro.nn import softmax_cross_entropy

    shard = build_federated_dataset(dataset_name, 4, seed=seed).client(0).train
    x, y = shard.x[:batch], shard.y[:batch]
    model = build_model_for_dataset(dataset_name, seed=seed)

    def step():
        model.zero_grad()
        _, grad = softmax_cross_entropy(model.forward(x, train=True), y)
        model.backward(grad)
    return seconds_per_call(step)


# ------------------------------------------------------------ probe groups
def serial_mnist(workload, seed):
    from repro.core.bandit import PUCBVAgent
    from repro.federated.aggregation import (aggregate_residuals,
                                             masked_average)
    from repro.nn.params import weighted_average
    from repro.sparsity.masks import build_parameter_mask

    core, updates = real_round(workload, seed)
    strategy, model = core.strategy, core.model
    client = core.clients[updates[0].client_id]
    params = [update.params for update in updates]
    weights = [float(update.num_examples) for update in updates]
    masks = [build_parameter_mask(model, update.pattern)
             for update in updates]

    def bandit_rounds(rounds=20):
        agent = PUCBVAgent(total_rounds=45, num_clients=16,
                           selection_fraction=0.25, ratio_min=0.4, seed=seed)
        ratio = agent.initial_ratio()
        for index in range(rounds):
            ratio = agent.observe_and_select(ratio, 1.0, 50.0 + index, 50.0)

    return {
        "nn.cnn_step_us": 1e6 * step_seconds("mnist", seed),
        "nn.lstm_step_us": 1e6 * step_seconds("reddit", seed),
        "core.sparse_training.update_ms": 1e3 * seconds_per_call(
            lambda: strategy.local_update(0, client)),
        "core.bandit.select_us": 1e6 * seconds_per_call(bandit_rounds) / 20,
        "federated.aggregation.weighted_average_us": 1e6 * seconds_per_call(
            lambda: weighted_average(params, weights)),
        "federated.aggregation.aggregate_residuals_us":
            1e6 * seconds_per_call(lambda: aggregate_residuals(
                strategy.global_params, params, weights)),
        "federated.aggregation.masked_average_us": 1e6 * seconds_per_call(
            lambda: masked_average(strategy.global_params, params, masks,
                                   weights)),
    }


def noop_task_seconds(executor) -> float:
    """Seconds per task of a 64-task no-op fan-out on a warmed pool."""
    return seconds_per_call(
        lambda: executor.map_ordered(abs, range(NOOP_TASKS))) / NOOP_TASKS


def process_cifar10(workload, seed):
    from repro.parallel import (Broadcast, ProcessPoolExecutor, RetryPolicy,
                                ThreadPoolExecutor, materialize,
                                run_supervised)

    core, _ = real_round(workload, seed)
    # what ServerCore publishes per round: the strategy minus its big,
    # round-invariant pieces, plus the global parameters as raw blocks
    template = copy.copy(core.strategy)
    template.context = template.global_params = None
    payload = (template, core.context.rng)
    rounds = itertools.count()

    def publish():
        Broadcast(payload, params=core.strategy.global_params,
                  round_index=next(rounds)).close()

    cold = []
    for _ in range(20):
        # a fresh round index misses the worker-side cache every time
        with Broadcast(payload, params=core.strategy.global_params,
                       round_index=next(rounds)) as broadcast:
            started = time.perf_counter()
            materialize(broadcast.handle)
            cold.append(time.perf_counter() - started)

    started = time.perf_counter()
    pool = ProcessPoolExecutor(WORKERS)
    try:
        pool.warm_up()
        spawn_s = time.perf_counter() - started
        process_task = noop_task_seconds(pool)
        tasks = [(index, index) for index in range(NOOP_TASKS)]
        supervised = seconds_per_call(lambda: run_supervised(
            pool, abs, tasks, policy=RetryPolicy(max_retries=1)))
    finally:
        pool.close()
    with ThreadPoolExecutor(WORKERS) as threads:
        threads.warm_up()
        thread_task = noop_task_seconds(threads)
    return {
        "nn.vgg_step_us": 1e6 * step_seconds("cifar10", seed),
        "parallel.executors.spawn_s": spawn_s,
        "parallel.executors.process_noop_task_us": 1e6 * process_task,
        "parallel.executors.thread_noop_task_us": 1e6 * thread_task,
        "parallel.broadcast.publish_us": 1e6 * seconds_per_call(publish),
        "parallel.broadcast.materialize_us": 1e6 * statistics.median(cold),
        "parallel.supervision.overhead_us_per_task":
            1e6 * (supervised / NOOP_TASKS - process_task),
    }


def socket_sparse_cifar10(workload, seed):
    from repro.federated.aggregation import aggregate_residuals
    from repro.nn.params import param_nbytes
    from repro.parallel import (FrameDecoder, FrameKind, SocketExecutor,
                                encode_frame, resolve_codec, shard_plan)
    from repro.parallel.framing import server_handshake, worker_handshake

    # dense residuals, so the probe owns both directions of the codec
    core, updates = real_round(workload, seed, codec="dense")
    sparse, int8 = resolve_codec("sparse"), resolve_codec("int8")
    dense = [update.params for update in updates]
    weights = [float(update.num_examples) for update in updates]
    encoded = [sparse.encode(params) for params in dense]
    indexed = [sparse.decode(block) for block in encoded]
    dense_mb = param_nbytes(dense[0]) / MB
    global_params = core.strategy.global_params

    def sparse_decode():
        decoded = sparse.decode(encoded[0])
        for key in decoded:
            decoded.slices(key)

    def sharded():
        with shard_plan(2):
            aggregate_residuals(global_params, indexed, weights)

    def handshake():
        ours, theirs = socket.socketpair()
        worker = threading.Thread(target=worker_handshake,
                                  args=(theirs, "bench-token"))
        with ours, theirs:
            worker.start()
            server_handshake(ours, "bench-token")
            worker.join()

    blob = np.random.default_rng(seed).bytes(1 << 20)
    frame = encode_frame(FrameKind.TASK, blob)

    def decode_frame():
        decoder = FrameDecoder()
        for offset in range(0, len(frame), 1 << 16):
            decoder.feed(frame[offset:offset + (1 << 16)])

    with SocketExecutor(WORKERS) as pool:
        pool.warm_up()
        socket_task = noop_task_seconds(pool)
    return {
        "parallel.distributed.socket_noop_task_us": 1e6 * socket_task,
        "parallel.distributed.handshake_ms": 1e3 * seconds_per_call(handshake),
        "parallel.framing.encode_mb_s": len(blob) / MB / seconds_per_call(
            lambda: encode_frame(FrameKind.TASK, blob)),
        "parallel.framing.decode_mb_s":
            len(blob) / MB / seconds_per_call(decode_frame),
        "parallel.codec.sparse_encode_mb_s": dense_mb / seconds_per_call(
            lambda: sparse.encode(dense[0])),
        "parallel.codec.sparse_decode_mb_s":
            dense_mb / seconds_per_call(sparse_decode),
        "parallel.codec.int8_encode_mb_s":
            param_nbytes(global_params) / MB / seconds_per_call(
                lambda: int8.encode(global_params)),
        "parallel.sharding.sharded_residuals_us":
            1e6 * seconds_per_call(sharded),
        "federated.aggregation.aggregate_residuals_indexed_us":
            1e6 * seconds_per_call(lambda: aggregate_residuals(
                global_params, indexed, weights)),
    }


def batched_cohort16(workload, seed):
    from repro.data import build_federated_dataset
    from repro.models import build_model_for_dataset
    from repro.nn.batched import BatchedModel, stack_param_dicts
    from repro.nn.losses import softmax_cross_entropy_cohort

    # the workload's shape: 16 clients, one example per step each
    dataset = build_federated_dataset("mnist", COHORT, seed=seed)
    shards = [dataset.client(cid).train for cid in range(COHORT)]
    x = np.stack([shard.x[:1] for shard in shards])
    y = np.stack([shard.y[:1] for shard in shards])
    counts = np.ones(COHORT, dtype=np.int64)
    model = build_model_for_dataset("mnist", seed=seed)
    batched = BatchedModel(model, COHORT)
    batched.set_parameters(stack_param_dicts(
        [model.get_parameters()] * COHORT))

    def cohort_step():
        batched.zero_grad()
        _, grad = softmax_cross_entropy_cohort(
            batched.forward(x, train=True), y, counts)
        batched.backward(grad)

    cohort_s = seconds_per_call(cohort_step)
    loop_s = step_seconds("mnist", seed, batch=1)
    return {
        "nn.cnn_step_us": 1e6 * loop_s,
        "nn.batched.cnn_step_us_c16": 1e6 * cohort_s,
        "nn.batched.speedup_c16": COHORT * loop_s / cohort_s,
    }


def fleet100k_fedbuff_ckpt(workload, seed):
    from repro.checkpoint import load_checkpoint, save_checkpoint
    from repro.data import build_federated_dataset
    from repro.experiments.presets import build_experiment
    from repro.federated.fleet import ClientFleet
    from repro.scenarios import ScenarioEngine
    from repro.systems.devices import sample_device_profile

    preset = workload.preset(seed)
    dataset, _, config, devices = build_experiment(preset)
    fleet = ClientFleet(dataset, devices)
    engine = ScenarioEngine(config.scenario, seed=seed)
    fresh = iter(range(preset.num_clients))
    latencies = {cid: 1.0 + 0.01 * cid
                 for cid in range(preset.clients_per_round)}
    rounds = itertools.count()

    # cold shard first, then the facade over the now-warm shard
    shard_s, facade_s = [], []
    for cid in range(1000, 1200):
        started = time.perf_counter()
        dataset.client(cid)
        warm = time.perf_counter()
        fleet[cid]
        facade_s.append(time.perf_counter() - warm)
        shard_s.append(warm - started)

    # a real checkpoint: three rounds of the workload, every round saved
    with tempfile.TemporaryDirectory(prefix="probe-") as directory:
        trainer = build_trainer(workload.preset(seed, rounds=3), None)
        trainer.run(checkpoint_dir=directory)
        path = max(Path(directory).iterdir())
        checkpoint = load_checkpoint(path)
        megabytes = path.stat().st_size / MB
        save_s = seconds_per_call(lambda: save_checkpoint(path, checkpoint))
        load_s = seconds_per_call(lambda: load_checkpoint(path))
    return {
        "federated.fleet.client_facade_us":
            1e6 * statistics.median(facade_s),
        "data.partition.spec_build_ms": 1e3 * seconds_per_call(
            lambda: build_federated_dataset(
                preset.dataset, preset.num_clients,
                examples_per_client=preset.examples_per_client,
                seed=seed, lazy=True)),
        "data.partition.shard_materialize_us":
            1e6 * statistics.median(shard_s),
        "systems.devices.sample_profile_us": 1e6 * seconds_per_call(
            lambda: sample_device_profile(next(fresh), seed=seed)),
        "scenarios.engine.resolve_us": 1e6 * seconds_per_call(
            lambda: engine.resolve(next(rounds), latencies)),
        "checkpoint.save_mb_s": megabytes / save_s,
        "checkpoint.load_mb_s": megabytes / load_s,
    }


GROUPS = {
    "serial-mnist": serial_mnist,
    "process-cifar10": process_cifar10,
    "socket-sparse-cifar10": socket_sparse_cifar10,
    "batched-cohort16": batched_cohort16,
    "fleet100k-fedbuff-ckpt": fleet100k_fedbuff_ckpt,
}


def main(argv=None) -> int:
    global MIN_SECONDS
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(GROUPS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--min-seconds", type=float, default=MIN_SECONDS)
    args = parser.parse_args(argv)
    MIN_SECONDS = args.min_seconds
    values = GROUPS[args.workload](WORKLOADS[args.workload], args.seed)
    expected = {name for name, _, _, homes in PROBES
                if args.workload in homes}
    if set(values) != expected:
        raise RuntimeError(f"probe names drifted from metrics.PROBES: "
                           f"{sorted(set(values) ^ expected)}")
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
