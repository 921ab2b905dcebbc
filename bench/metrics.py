"""The benchmark's metric registry: every name it emits, with unit and sense.

``BENCHMARK.json`` is generated from this file (``run.py --manifest``) and
``tests/test_bench.py`` holds the two equal, so a metric cannot be emitted
under a name the manifest does not declare, or the other way round.
"""

from __future__ import annotations

#: name, unit, better, regression bound on the median (share of the parent's).
#: Readings in seconds are divided by the host's slowdown while they were
#: taken (``hostspeed.py``).  The bounds are three times the widest spread
#: across ten seeds measured on the reference box, capped at the contract's
#: 0.25 — which the time metrics hit even normalised (README, "Host-speed
#: normalisation").
END_TO_END = (
    # interpreter start -> trainer built and executor warm_up() returned
    ("setup_s", "s", "lower", 0.25),
    # trainer.run wall-clock (checkpoint workload: interrupt+rebuild+resume)
    ("run_s", "s", "lower", 0.25),
    # whole child as the parent times it: setup + run + close + exit
    ("wall_s", "s", "lower", 0.25),
    # client local updates completed / run_s
    ("updates_per_s", "1/s", "higher", 0.25),
    # ru_maxrss of the child plus the max over its reaped children
    ("peak_rss_mb", "MiB", "lower", 0.10),
    # mean round-trip bytes per round (wire bytes under a codec)
    ("comm_bytes_per_round", "B", "lower", 0.20),
)

#: per-layer numbers of the traced pass: name, unit, better.  A span that
#: does not fire on a workload (checkpoint on serial-mnist, ...) reads 0.
TRACED = (
    ("trace.coverage", "share", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("server.round_ms_p50", "ms", "lower"),
    ("server.round_ms_p90", "ms", "lower"),
    ("server.select_s", "s", "lower"),
    ("server.fanout_self_s", "s", "lower"),
    ("server.eval_s", "s", "lower"),
    ("core.local_update_s", "s", "lower"),
    ("core.local_update_cohort_s", "s", "lower"),
    ("core.post_round_s", "s", "lower"),
    ("federated.aggregate_s", "s", "lower"),
    ("systems.cost_s", "s", "lower"),
    ("parallel.executors.map_s", "s", "lower"),
    ("parallel.executors.tasks", "count", "lower"),
    ("parallel.executors.fanout_overhead_ms_per_task", "ms", "lower"),
    ("parallel.scaling_efficiency", "ratio", "higher"),
    ("parallel.broadcast.publishes_per_round", "count", "lower"),
    ("parallel.broadcast.param_bytes_per_round", "B", "lower"),
    ("parallel.broadcast.blob_bytes_per_round", "B", "lower"),
    ("parallel.transport_bytes_per_round", "B", "lower"),
    ("parallel.codec.encode_s", "s", "lower"),
    ("parallel.codec.decode_s", "s", "lower"),
    ("parallel.codec.upload_ratio", "ratio", "lower"),
    ("parallel.sharding.max_shard_share", "share", "lower"),
    ("checkpoint.capture_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.bytes_per_save", "B", "lower"),
)

#: isolated probes (``probes.py``): name, unit, better, home workloads.  A
#: probe runs where the layer it isolates is on the blocking path; on the
#: other workloads it is not run and reads 0.
_SERIAL = ("serial-mnist",)
_PROCESS = ("process-cifar10",)
_SOCKET = ("socket-sparse-cifar10",)
_BATCHED = ("batched-cohort16",)
_FLEET = ("fleet100k-fedbuff-ckpt",)
PROBES = (
    ("nn.cnn_step_us", "us", "lower", _SERIAL + _BATCHED),
    ("nn.lstm_step_us", "us", "lower", _SERIAL),
    ("core.sparse_training.update_ms", "ms", "lower", _SERIAL),
    ("core.bandit.select_us", "us", "lower", _SERIAL),
    ("federated.aggregation.weighted_average_us", "us", "lower", _SERIAL),
    ("federated.aggregation.aggregate_residuals_us", "us", "lower", _SERIAL),
    ("federated.aggregation.masked_average_us", "us", "lower", _SERIAL),
    ("nn.vgg_step_us", "us", "lower", _PROCESS),
    ("parallel.executors.spawn_s", "s", "lower", _PROCESS),
    ("parallel.executors.process_noop_task_us", "us", "lower", _PROCESS),
    ("parallel.executors.thread_noop_task_us", "us", "lower", _PROCESS),
    ("parallel.broadcast.publish_us", "us", "lower", _PROCESS),
    ("parallel.broadcast.materialize_us", "us", "lower", _PROCESS),
    ("parallel.supervision.overhead_us_per_task", "us", "lower", _PROCESS),
    ("parallel.distributed.socket_noop_task_us", "us", "lower", _SOCKET),
    ("parallel.distributed.handshake_ms", "ms", "lower", _SOCKET),
    ("parallel.framing.encode_mb_s", "MB/s", "higher", _SOCKET),
    ("parallel.framing.decode_mb_s", "MB/s", "higher", _SOCKET),
    ("parallel.codec.sparse_encode_mb_s", "MB/s", "higher", _SOCKET),
    ("parallel.codec.sparse_decode_mb_s", "MB/s", "higher", _SOCKET),
    ("parallel.codec.int8_encode_mb_s", "MB/s", "higher", _SOCKET),
    ("parallel.sharding.sharded_residuals_us", "us", "lower", _SOCKET),
    ("federated.aggregation.aggregate_residuals_indexed_us", "us", "lower",
     _SOCKET),
    ("nn.batched.cnn_step_us_c16", "us", "lower", _BATCHED),
    ("nn.batched.speedup_c16", "ratio", "higher", _BATCHED),
    ("federated.fleet.client_facade_us", "us", "lower", _FLEET),
    ("data.partition.spec_build_ms", "ms", "lower", _FLEET),
    ("data.partition.shard_materialize_us", "us", "lower", _FLEET),
    ("systems.devices.sample_profile_us", "us", "lower", _FLEET),
    ("scenarios.engine.resolve_us", "us", "lower", _FLEET),
    ("checkpoint.save_mb_s", "MB/s", "higher", _FLEET),
    ("checkpoint.load_mb_s", "MB/s", "higher", _FLEET),
)

#: a 6-round process-cifar10 run with the BLAS thread variables unset over
#: the same run pinned, and both raw times.  A diagnostic of the machine as
#: much as of the program: it does not repeat within a tenth, so it is not
#: an end-to-end metric.  Taken on process-cifar10 only; 0 elsewhere.
BLAS_DIAGNOSTIC = (
    ("parallel.executors.blas_pinned_s", "s", "lower"),
    ("parallel.executors.blas_unpinned_s", "s", "lower"),
    ("parallel.executors.blas_unpinned_ratio", "ratio", "lower"),
)

PER_LAYER = (TRACED + tuple(probe[:3] for probe in PROBES)
             + BLAS_DIAGNOSTIC)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
#: metrics that are counts of a deterministic program: compared exactly
EXACT = ("comm_bytes_per_round", "parallel.transport_bytes_per_round")
