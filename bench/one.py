"""One run of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this file once per repeat so that ``setup_s`` carries the
interpreter and import cost a ``repro run`` user pays and ``peak_rss_mb`` is
per run.  A plain run is watched by ``hostspeed.HostSpeed`` and its line
carries the host's slowdown while it ran; with ``--trace`` the outside-in
tracer is installed instead and the line carries the raw per-layer numbers
of this run (``layers``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

RUN_SPAN = "bench.run"


def history_digest(history) -> str:
    canonical = json.dumps(history.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_trainer(preset, executor):
    from repro.baselines import build_strategy
    from repro.experiments.presets import build_experiment
    from repro.federated import FederatedTrainer
    from workloads import METHOD

    dataset, model_builder, config, fleet = build_experiment(preset)
    return FederatedTrainer(build_strategy(METHOD), dataset, model_builder,
                            config=config, fleet=fleet, executor=executor)


def run_workload(workload, preset, trainer, executor, tracer):
    """The timed region: ``trainer.run`` — or interrupt, rebuild, resume."""
    from contextlib import nullcontext

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    checkpoint_bytes = 0
    with span(RUN_SPAN):
        if not workload.checkpoint:
            return trainer.run(), checkpoint_bytes
        from repro.checkpoint import TrainingInterrupted

        with tempfile.TemporaryDirectory(prefix="ckpt-") as directory:
            try:
                trainer.run(checkpoint_dir=directory,
                            stop_after_round=preset.num_rounds // 2 - 1)
            except TrainingInterrupted:
                pass
            with span("bench.rebuild"):
                trainer = build_trainer(preset, executor)
            history = trainer.run(checkpoint_dir=directory,
                                  resume_from="auto")
            checkpoint_bytes = max(path.stat().st_size
                                   for path in Path(directory).iterdir())
        return history, checkpoint_bytes


def comm_bytes_per_round(history) -> float:
    """Mean round-trip bytes: wire bytes under a codec, else the Eq. 14 ones."""
    totals = [record.extras.get("wire_upload_bytes", record.upload_bytes)
              + record.extras.get("wire_download_bytes", record.download_bytes)
              for record in history.records]
    return sum(totals) / len(totals)


def layer_numbers(tracer, history, executor, witness, checkpoint_bytes):
    """Raw per-layer numbers of one traced run (``run.py`` derives the rest)."""
    import tracer as tr
    from repro.parallel import broadcast_stats, shard_stats

    spans = tracer.spans
    rounds = len(history.records)
    round_ms = [1e3 * seconds
                for seconds in tr.round_durations(spans, RUN_SPAN)]
    extras = [record.extras for record in history.records]
    wire = sum(e.get("wire_upload_bytes", 0.0) for e in extras)
    dense = sum(e.get("wire_upload_dense_bytes", 0.0) for e in extras)
    stats = broadcast_stats()
    per_shard = [sum(values) for values
                 in zip(*shard_stats()["per_shard_bytes"].values())] or [0]
    if executor is not None and hasattr(executor, "bytes_sent"):
        transport = executor.bytes_sent + executor.bytes_received
    else:
        transport = (witness["bytes"] + stats["param_bytes"]
                     + stats["blob_bytes"])
    return {
        "run_s": tr.inclusive(spans, RUN_SPAN),
        "trace.coverage": tr.coverage(spans, RUN_SPAN),
        "server.round_ms_p50": statistics.median(round_ms),
        "server.round_ms_p90": (statistics.quantiles(round_ms, n=10)[-1]
                                if len(round_ms) > 1 else round_ms[0]),
        "server.select_s": tr.inclusive(spans, "server.select_clients"),
        "server.fanout_self_s": tr.self_time(spans,
                                             "server.run_local_updates"),
        "server.eval_s": tr.inclusive(spans, "server.evaluate_personalized"),
        "core.local_update_s": tr.inclusive(spans, "core.local_update"),
        "core.local_update_cohort_s": tr.inclusive(
            spans, "core.local_update_cohort"),
        "core.post_round_s": tr.inclusive(spans, "core.post_round"),
        "federated.aggregate_s": tr.inclusive(spans, "federated.aggregate"),
        "systems.cost_s": tr.inclusive(spans, "systems.client_costs"),
        "parallel.executors.map_s": tr.inclusive(spans, *tr.MAP_SPANS),
        "parallel.executors.tasks": witness["tasks"],
        "parallel.broadcast.publishes_per_round": stats["publishes"] / rounds,
        "parallel.broadcast.param_bytes_per_round":
            stats["param_bytes"] / rounds,
        "parallel.broadcast.blob_bytes_per_round":
            stats["blob_bytes"] / rounds,
        "parallel.transport_bytes_per_round": transport / rounds,
        "parallel.codec.encode_s": tr.inclusive(spans,
                                                "parallel.codec.encode"),
        "parallel.codec.decode_s": tr.inclusive(spans,
                                                "parallel.codec.decode"),
        "parallel.codec.upload_ratio": wire / dense if dense else 1.0,
        "parallel.sharding.max_shard_share":
            max(per_shard) / sum(per_shard) if sum(per_shard) else 0.0,
        "checkpoint.capture_s": tr.inclusive(spans, "checkpoint.capture_run"),
        "checkpoint.save_s": tr.inclusive(spans,
                                          "checkpoint.save_checkpoint"),
        "checkpoint.load_s": tr.inclusive(spans,
                                          "checkpoint.load_checkpoint"),
        "checkpoint.restore_s": tr.inclusive(spans, "checkpoint.restore_run"),
        "checkpoint.saves": tr.count(spans, "checkpoint.save_checkpoint"),
        "checkpoint.bytes_per_save": checkpoint_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--twin", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the preset's rounds (smoke, probes)")
    args = parser.parse_args(argv)
    # time.time() of the parent just before it started this interpreter
    spawned_at = float(os.environ.get("BENCH_SPAWNED_AT", time.time()))

    from repro.parallel import resolve_executor
    from workloads import WORKERS, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.twin:
        workload = workload.twin_workload()
    preset = workload.preset(args.seed, rounds=args.rounds)
    tracer = speed = None
    witness = {"tasks": 0, "bytes": 0}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    else:
        from hostspeed import HostSpeed

        speed = HostSpeed().watch_rounds(preset.num_rounds)
    executor = (resolve_executor(workload.backend, WORKERS)
                if workload.backend else None)
    try:
        trainer = build_trainer(preset, executor)
        if executor is not None:
            executor.warm_up()
            if tracer is not None:
                def observe(payload):
                    witness["tasks"] += 1
                    if executor.backend == "process":
                        witness["bytes"] += len(pickle.dumps(
                            payload, protocol=pickle.HIGHEST_PROTOCOL))
                executor.payload_witness = observe
        setup_s = time.time() - spawned_at
        started = time.perf_counter()
        history, checkpoint_bytes = run_workload(workload, preset, trainer,
                                                 executor, tracer)
        run_s = time.perf_counter() - started
        if speed is not None:
            # every round boundary was sampled inside the timed region
            run_s -= speed.seconds
            speed.sample()
    finally:
        if executor is not None:
            executor.close()
    if len(history.records) != preset.num_rounds:
        raise RuntimeError(f"{len(history.records)} round records for a "
                           f"{preset.num_rounds}-round preset")
    updates = sum(len(record.sparse_ratios) for record in history.records)
    # an update that exhausted its supervision retries never came back
    failed = sum(int(record.extras.get("fault_exhausted", 0))
                 for record in history.records)
    rusage = resource.getrusage
    result = {
        "workload": workload.name, "seed": args.seed,
        "digest": history_digest(history),
        "setup_s": setup_s, "run_s": run_s,
        "updates": updates, "ops_attempted": updates + failed,
        "ops_failed": failed,
        "comm_bytes_per_round": comm_bytes_per_round(history),
        # KiB on Linux; the children figure is the max over reaped children
        "peak_rss_mb": (rusage(resource.RUSAGE_SELF).ru_maxrss
                        + rusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
    }
    if speed is not None:
        result["host_slowdown"] = speed.slowdown()
        result["sampling_s"] = speed.seconds
    if tracer is not None:
        result["layers"] = layer_numbers(tracer, history, executor, witness,
                                         checkpoint_bytes)
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.dump(BENCH / "out" / f"trace-{workload.name}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
