"""Command-line interface for running FedLPS experiments.

Examples::

    python -m repro.cli run --dataset mnist --method fedlps --rounds 20
    python -m repro.cli run --preset mnist --scenario deadline-tight \
        --backend process --workers 4
    python -m repro.cli compare --dataset cifar10 --methods fedavg fedper fedlps
    python -m repro.cli table1 --datasets mnist cifar10 --rounds 10
    python -m repro.cli sweep --datasets mnist cifar10 --methods fedavg fedlps \
        --scenarios ideal deadline-tight --backend process --workers 4
    python -m repro.cli run --preset mnist --checkpoint-dir ckpts --resume
    python -m repro.cli sweep --checkpoint-dir ckpts --retries 2
    python -m repro.cli bench --scale 0.25 --check
    python -m repro.cli bench --checkpoint-scale 1.0 --check

Every experiment command accepts ``--workers N`` and ``--backend
{serial,thread,process}``.  ``run`` and ``compare`` parallelize the per-round
client work inside each simulation; ``sweep`` dispatches whole
method×dataset×scenario runs as parallel jobs and caches their results on
disk, so rebuilding the paper's table/figure grid is incremental.

``--scenario`` attaches a system-heterogeneity scenario (client
availability, stragglers, participation deadlines — see ``repro.scenarios``)
to any experiment command; ``sweep --scenarios`` grids over several.
``--aggregation`` picks the server's training shape (``sync`` — the paper's
synchronous rounds; ``fedasync`` — staleness-weighted aggregation on every
arrival; ``fedbuff`` — buffered aggregation every K arrivals); ``sweep
--aggregations`` grids over several for sync-vs-async time-to-accuracy
comparisons.  Scenario and aggregation decisions derive from ``(seed,
round, client)``, so histories stay bit-identical across backends.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .baselines import TABLE1_METHODS, available_strategies
from .experiments import (DATASETS, DEFAULT_CACHE_DIR, DEFAULT_PRESETS,
                          ResultCache, format_rows, preset_for, run_method,
                          run_scenario_sweep, scaled, summarize,
                          table1_accuracy_flops)
from .parallel import (available_backends, available_codecs,
                       available_fault_plans, resolve_executor)
from .scenarios import available_scenarios
from .server import available_aggregations

#: the headline columns every experiment command prints
SUMMARY_COLUMNS = ["accuracy", "total_flops", "total_time_seconds",
                   "sim_time_seconds", "time_to_accuracy_seconds"]

#: fan-out bench defaults, shared by build_parser and the --fleet-scale
#: clash guard so the two can never drift apart
BENCH_SCALE_DEFAULT = 1.0
BENCH_WORKERS_DEFAULT = [1, 2, 4]
BENCH_REPEATS_DEFAULT = 2


def _preset_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if args.rounds is not None:
        overrides["num_rounds"] = args.rounds
    if args.clients is not None:
        overrides["num_clients"] = args.clients
    if args.clients_per_round is not None:
        overrides["clients_per_round"] = args.clients_per_round
    if args.local_iterations is not None:
        overrides["local_iterations"] = args.local_iterations
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "scenario", None) is not None:
        overrides["scenario"] = args.scenario
    if getattr(args, "aggregation", None) is not None:
        overrides["aggregation"] = args.aggregation
    if getattr(args, "codec", None) is not None:
        overrides["codec"] = args.codec
    if getattr(args, "fault_plan", None) is not None:
        overrides["fault_plan"] = args.fault_plan
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout"] = args.task_timeout
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "batch_cohort", None):
        overrides["batch_cohort"] = True
    if getattr(args, "reducer_shards", None) is not None:
        overrides["reducer_shards"] = args.reducer_shards
    return overrides


def _dataset_from(args: argparse.Namespace) -> str:
    """--preset is an alias for --dataset (presets are named by dataset)."""
    return args.preset if args.preset is not None else args.dataset


#: argparse keywords of every option naming a preset: an unknown name is a
#: one-line usage error (exit 2) listing the registry, not a traceback from
#: ``preset_for`` deep inside the run
_PRESET_NAME = {"type": str.lower, "choices": sorted(DEFAULT_PRESETS)}


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="mnist", **_PRESET_NAME,
                        help="a paper dataset or a named large-fleet preset")
    parser.add_argument("--preset", default=None, **_PRESET_NAME,
                        help="alias for --dataset (presets are named after "
                             "their dataset)")
    parser.add_argument("--scenario", default=None,
                        choices=available_scenarios(),
                        help="system-heterogeneity scenario (availability, "
                             "stragglers, deadlines); default: ideal")
    parser.add_argument("--aggregation", default=None,
                        choices=available_aggregations(),
                        help="server aggregation mode: sync (synchronous "
                             "rounds), fedasync (staleness-weighted, every "
                             "arrival) or fedbuff (buffered); default: sync")
    parser.add_argument("--codec", default=None,
                        choices=available_codecs(),
                        help="wire codec for the client/server round trip: "
                             "dense (raw arrays), sparse (lossless indexed "
                             "slices), int8 (learned-scale quantization) or "
                             "pq (product quantization); default: dense")
    parser.add_argument("--fault-plan", default=None,
                        choices=available_fault_plans(),
                        help="deterministic chaos schedule injected into the "
                             "client fan-out (repro.parallel.faults), seeded "
                             "from the run seed and cache-keyed like the "
                             "codec; pair with --max-retries so injected "
                             "faults are retried instead of dropped")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-client-task wall-clock timeout in seconds; "
                             "a timed-out task is retried (then dropped) and "
                             "its hung worker reclaimed on the process "
                             "backend")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="retry a failed client task up to N times with "
                             "capped exponential backoff before dropping "
                             "the client from the round (default 0)")
    parser.add_argument("--batch-cohort", action="store_true", default=None,
                        help="fuse each round's local updates into one "
                             "batched tensor program (client axis leading) "
                             "when the strategy/model pair supports it; "
                             "bit-identical histories, much less Python "
                             "overhead on homogeneous cohorts")
    parser.add_argument("--reducer-shards", type=int, default=None,
                        help="partition the aggregation across N "
                             "parameter-server reducer shards (keys are "
                             "assigned by a deterministic hash of their "
                             "name); histories are bit-identical at every "
                             "count (default 1 = unsharded)")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--clients-per-round", type=int, default=None)
    parser.add_argument("--local-iterations", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    _add_executor_arguments(parser)


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count for the execution backend "
                             "(0 = auto-sized from the CPU count)")
    parser.add_argument("--backend", default="serial",
                        choices=available_backends(),
                        help="execution backend for parallel work")
    parser.add_argument("--hosts", nargs="+", default=None,
                        metavar="HOST:PORT",
                        help="socket backend only: connect to pre-started "
                             "`python -m repro.parallel.worker --listen` "
                             "daemons at these addresses instead of "
                             "spawning localhost workers (requires "
                             "--worker-token)")
    parser.add_argument("--worker-token", default=None,
                        help="shared secret authenticating the socket "
                             "backend against --hosts worker daemons")


def _executor_from(args: argparse.Namespace):
    return resolve_executor(args.backend, args.workers,
                            hosts=getattr(args, "hosts", None),
                            worker_token=getattr(args, "worker_token", None))


def _fanout_only_clashes(args: argparse.Namespace) -> List[str]:
    """Fan-out bench flags the alternate bench axes would silently ignore.

    Silently dropping them would look like they were honored (e.g. a
    missing report file, or an unexpectedly long run), so the axis
    dispatchers reject the invocation instead.
    """
    fanout_only = {
        "--output": args.output is not None,
        "--scale": args.scale != BENCH_SCALE_DEFAULT,
        "--backends": args.backends != list(available_backends()),
        "--workers-list": args.workers_list != BENCH_WORKERS_DEFAULT,
        "--repeats": args.repeats != BENCH_REPEATS_DEFAULT,
        "--aggregations": args.aggregations != list(available_aggregations()),
    }
    return [flag for flag, used in fanout_only.items() if used]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="FedLPS reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one method on one dataset")
    run_parser.add_argument("--method", default="fedlps",
                            choices=available_strategies())
    run_parser.add_argument("--checkpoint-dir", default=None,
                            help="checkpoint the run into this directory at "
                                 "round boundaries (see repro.checkpoint)")
    run_parser.add_argument("--checkpoint-every", type=int, default=1,
                            help="checkpoint every N rounds (default 1)")
    run_parser.add_argument("--resume", action="store_true",
                            help="resume from the latest checkpoint in "
                                 "--checkpoint-dir (fresh start if none); "
                                 "the continued history is bit-identical to "
                                 "an uninterrupted run")
    run_parser.add_argument("--stop-after-round", type=int, default=None,
                            help="deterministic preemption: checkpoint round "
                                 "K, then exit with status 3 (CI resume "
                                 "smoke)")
    run_parser.add_argument("--history-out", default=None,
                            help="write the run's full history JSON here "
                                 "(sorted keys — byte-comparable across "
                                 "runs/backends)")
    _add_common_arguments(run_parser)

    compare_parser = sub.add_parser("compare",
                                    help="run several methods on one dataset")
    compare_parser.add_argument("--methods", nargs="+", default=["fedavg", "fedlps"])
    _add_common_arguments(compare_parser)

    table1_parser = sub.add_parser("table1", help="reproduce Table I rows")
    table1_parser.add_argument("--datasets", nargs="+", default=["mnist"],
                               **_PRESET_NAME)
    table1_parser.add_argument("--methods", nargs="+", default=list(TABLE1_METHODS))
    _add_common_arguments(table1_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="run a method × dataset × scenario grid with caching")
    sweep_parser.add_argument("--datasets", nargs="+", default=list(DATASETS),
                              **_PRESET_NAME)
    sweep_parser.add_argument("--methods", nargs="+",
                              default=["fedavg", "fedlps"])
    sweep_parser.add_argument("--scenarios", nargs="+", default=["ideal"],
                              choices=available_scenarios(),
                              help="system-heterogeneity scenarios to sweep")
    sweep_parser.add_argument("--aggregations", nargs="+", default=["sync"],
                              choices=available_aggregations(),
                              help="server aggregation modes to sweep "
                                   "(sync-vs-async time-to-accuracy grids)")
    sweep_parser.add_argument("--codecs", nargs="+", default=["dense"],
                              choices=available_codecs(),
                              help="wire codecs to sweep (adds codec and "
                                   "wire_upload_bytes columns when more "
                                   "than plain dense is requested)")
    sweep_parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                              help="directory of the JSON result cache")
    sweep_parser.add_argument("--no-cache", action="store_true",
                              help="always re-run, never read or write the cache")
    sweep_parser.add_argument("--checkpoint-dir", default=None,
                              help="root directory for per-cell run "
                                   "checkpoints (each grid cell gets a "
                                   "spec-keyed subdirectory)")
    sweep_parser.add_argument("--retries", type=int, default=0,
                              help="retry a failed cell up to N times, "
                                   "resuming from its last checkpoint when "
                                   "--checkpoint-dir is set")
    _add_common_arguments(sweep_parser)

    bench_parser = sub.add_parser(
        "bench", help="time round fan-out across executor backends and "
                      "record the BENCH_fanout.json trajectory")
    bench_parser.add_argument("--scale", type=float,
                              default=BENCH_SCALE_DEFAULT,
                              help="workload scale factor (1.0 = the CI "
                                   "smoke workload)")
    bench_parser.add_argument("--backends", nargs="+",
                              default=list(available_backends()),
                              choices=available_backends())
    bench_parser.add_argument("--workers-list", nargs="+", type=int,
                              default=list(BENCH_WORKERS_DEFAULT),
                              help="worker counts to time for pool backends")
    bench_parser.add_argument("--repeats", type=int,
                              default=BENCH_REPEATS_DEFAULT,
                              help="timed runs per backend/worker cell "
                                   "(after one untimed warm-up run)")
    bench_parser.add_argument("--aggregations", nargs="+",
                              default=list(available_aggregations()),
                              choices=available_aggregations(),
                              help="aggregation modes to profile (wall-clock "
                                   "+ sim-time-to-accuracy under the flaky "
                                   "scenario)")
    bench_parser.add_argument("--output", default=None,
                              help="where to write the fan-out JSON report "
                                   "(default BENCH_fanout.json; '' skips "
                                   "writing; incompatible with "
                                   "--fleet-scale, whose report path is "
                                   "--fleet-output)")
    bench_parser.add_argument("--check", action="store_true",
                              help="exit non-zero if the process backend is "
                                   "slower than serial by more than the "
                                   "recorded spawn overhead")
    bench_parser.add_argument("--fleet-scale", type=float, default=None,
                              help="run the fleet-scale axis instead: "
                                   "construction cost over a 1k/10k/100k "
                                   "fleet ladder (x SCALE) plus a 1M-client "
                                   "(x SCALE) selection + 2-round smoke, "
                                   "written to --fleet-output")
    bench_parser.add_argument("--fleet-output", default="BENCH_fleet.json",
                              help="where to write the fleet-scale JSON "
                                   "report ('' skips writing)")
    bench_parser.add_argument("--checkpoint-scale", type=float, default=None,
                              help="run the checkpoint axis instead: "
                                   "write/restore wall-clock and bytes on "
                                   "disk over a 1k vs 100k (x SCALE) lazy "
                                   "fleet, gating that checkpoints stay "
                                   "O(cohort) and under the write budget; "
                                   "written to --checkpoint-output")
    bench_parser.add_argument("--checkpoint-output",
                              default="BENCH_checkpoint.json",
                              help="where to write the checkpoint JSON "
                                   "report ('' skips writing)")
    bench_parser.add_argument("--codec-scale", type=float, default=None,
                              help="run the wire-codec axis instead: total "
                                   "the per-round encoded upload/download "
                                   "bytes of every codec against the dense "
                                   "baseline (x SCALE fan-out workload), "
                                   "gating that lossless codecs stay "
                                   "bit-identical and sparse meets its "
                                   "byte budget; written to --codec-output")
    bench_parser.add_argument("--codec-output", default="BENCH_codec.json",
                              help="where to write the codec JSON report "
                                   "('' skips writing)")
    bench_parser.add_argument("--fault-scale", type=float, default=None,
                              help="run the fault-tolerance axis instead: "
                                   "time a clean vs a chaos run (injected "
                                   "crashes/hangs/exceptions with retries) "
                                   "per backend on an x SCALE workload, "
                                   "gating cross-backend bit-identity, "
                                   "fault-free equivalence and the chaos "
                                   "overhead budget; written to "
                                   "--fault-output")
    bench_parser.add_argument("--fault-output", default="BENCH_faults.json",
                              help="where to write the fault-tolerance JSON "
                                   "report ('' skips writing)")
    bench_parser.add_argument("--fault-plan", default=None,
                              choices=available_fault_plans(),
                              help="fault plan for the --fault-scale chaos "
                                   "run (default: chaos)")
    bench_parser.add_argument("--batch-scale", type=float, default=None,
                              help="run the cohort-batching axis instead: "
                                   "batched vs per-client-loop wall clock "
                                   "over a cohort-size ladder (x SCALE) on "
                                   "the serial and process backends, gating "
                                   "a >= 2x speedup at cohort >= 16 and "
                                   "bit-identical histories; written to "
                                   "--batch-output")
    bench_parser.add_argument("--batch-output", default="BENCH_batch.json",
                              help="where to write the cohort-batching JSON "
                                   "report ('' skips writing)")
    bench_parser.add_argument("--dist-scale", type=float, default=None,
                              help="run the distributed axis instead: real "
                                   "socket-backend rounds (x SCALE workload) "
                                   "at 1/2/4 reducer shards, gating that "
                                   "every history is bit-identical to serial "
                                   "and that per-shard aggregate bytes scale "
                                   "~1/N; written to --dist-output")
    bench_parser.add_argument("--dist-output", default="BENCH_dist.json",
                              help="where to write the distributed JSON "
                                   "report ('' skips writing)")

    sub.add_parser("list", help="list available methods")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name in available_strategies():
            print(name)
        return 0

    if args.command == "bench":
        axes = [flag for flag, value in (
            ("--fleet-scale", args.fleet_scale),
            ("--checkpoint-scale", args.checkpoint_scale),
            ("--codec-scale", args.codec_scale),
            ("--fault-scale", args.fault_scale),
            ("--batch-scale", args.batch_scale),
            ("--dist-scale", args.dist_scale)) if value is not None]
        if len(axes) > 1:
            print(f"bench {' and '.join(axes)} are separate axes; run them "
                  "as separate invocations", flush=True)
            return 2
        if args.fault_plan is not None and args.fault_scale is None:
            print("bench --fault-plan applies only to the --fault-scale "
                  "axis", flush=True)
            return 2
        if args.dist_scale is not None:
            clashes = _fanout_only_clashes(args)
            if clashes:
                print(f"bench --dist-scale ignores {', '.join(clashes)} — "
                      "those apply only to the fan-out bench (the "
                      "distributed axis writes its report to --dist-output)",
                      flush=True)
                return 2
            from .benchmarking import format_dist_report, run_dist_bench
            report = run_dist_bench(scale=args.dist_scale,
                                    output=args.dist_output or None)
            print(format_dist_report(report))
            if args.dist_output:
                print(f"# report written to {args.dist_output}")
            if args.check and not report["gate"]["pass"]:
                return 1
            return 0
        if args.batch_scale is not None:
            clashes = _fanout_only_clashes(args)
            if clashes:
                print(f"bench --batch-scale ignores {', '.join(clashes)} — "
                      "those apply only to the fan-out bench (the batching "
                      "axis writes its report to --batch-output)",
                      flush=True)
                return 2
            from .benchmarking import format_batch_report, run_batch_bench
            report = run_batch_bench(scale=args.batch_scale,
                                     output=args.batch_output or None)
            print(format_batch_report(report))
            if args.batch_output:
                print(f"# report written to {args.batch_output}")
            if args.check and not report["gate"]["pass"]:
                return 1
            return 0
        if args.fault_scale is not None:
            clashes = _fanout_only_clashes(args)
            if clashes:
                print(f"bench --fault-scale ignores {', '.join(clashes)} — "
                      "those apply only to the fan-out bench (the fault "
                      "axis writes its report to --fault-output)",
                      flush=True)
                return 2
            from .benchmarking import format_fault_report, run_fault_bench
            report = run_fault_bench(scale=args.fault_scale,
                                     plan=args.fault_plan or "chaos",
                                     output=args.fault_output or None)
            print(format_fault_report(report))
            if args.fault_output:
                print(f"# report written to {args.fault_output}")
            if args.check and not report["gate"]["pass"]:
                return 1
            return 0
        if args.codec_scale is not None:
            clashes = _fanout_only_clashes(args)
            if clashes:
                print(f"bench --codec-scale ignores {', '.join(clashes)} — "
                      "those apply only to the fan-out bench (the codec "
                      "axis writes its report to --codec-output)",
                      flush=True)
                return 2
            from .benchmarking import format_codec_report, run_codec_bench
            report = run_codec_bench(scale=args.codec_scale,
                                     output=args.codec_output or None)
            print(format_codec_report(report))
            if args.codec_output:
                print(f"# report written to {args.codec_output}")
            if args.check and not report["gate"]["pass"]:
                return 1
            return 0
        if args.checkpoint_scale is not None:
            clashes = _fanout_only_clashes(args)
            if clashes:
                print(f"bench --checkpoint-scale ignores "
                      f"{', '.join(clashes)} — those apply only to the "
                      "fan-out bench (the checkpoint axis writes its report "
                      "to --checkpoint-output)", flush=True)
                return 2
            from .benchmarking import (format_checkpoint_report,
                                       run_checkpoint_bench)
            report = run_checkpoint_bench(scale=args.checkpoint_scale,
                                          output=args.checkpoint_output
                                          or None)
            print(format_checkpoint_report(report))
            if args.checkpoint_output:
                print(f"# report written to {args.checkpoint_output}")
            if args.check and not report["gate"]["pass"]:
                return 1
            return 0
        if args.fleet_scale is not None:
            clashes = _fanout_only_clashes(args)
            if clashes:
                print(f"bench --fleet-scale ignores {', '.join(clashes)} — "
                      "those apply only to the fan-out bench (the fleet "
                      "axis writes its report to --fleet-output)",
                      flush=True)
                return 2
            from .benchmarking import format_fleet_report, run_fleet_bench
            report = run_fleet_bench(scale=args.fleet_scale,
                                     output=args.fleet_output or None)
            print(format_fleet_report(report))
            if args.fleet_output:
                print(f"# report written to {args.fleet_output}")
            if args.check and not report["gate"]["pass"]:
                return 1
            return 0
        output = args.output if args.output is not None else "BENCH_fanout.json"
        from .benchmarking import format_bench_report, run_fanout_bench
        report = run_fanout_bench(scale=args.scale, backends=args.backends,
                                  worker_counts=args.workers_list,
                                  repeats=args.repeats,
                                  aggregations=args.aggregations,
                                  output=output or None)
        print(format_bench_report(report))
        if output:
            print(f"# report written to {output}")
        if args.check and not report["gate"]["pass"]:
            return 1
        return 0

    if args.command == "run":
        dataset = _dataset_from(args)
        preset = scaled(preset_for(dataset), **_preset_overrides(args))
        if ((args.resume or args.stop_after_round is not None)
                and args.checkpoint_dir is None):
            print("run --resume/--stop-after-round need --checkpoint-dir",
                  flush=True)
            return 2
        from .checkpoint import TrainingInterrupted
        try:
            with _executor_from(args) as executor:
                history = run_method(
                    args.method, preset, executor=executor,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    resume=args.resume,
                    stop_after_round=args.stop_after_round)
        except TrainingInterrupted as interrupted:
            print(f"# {interrupted}", flush=True)
            return 3
        if args.history_out:
            import json as _json
            from pathlib import Path as _Path
            _Path(args.history_out).write_text(
                _json.dumps(history.to_dict(), sort_keys=True) + "\n")
        summary = summarize(history)
        print(format_rows([{"method": args.method, "dataset": dataset,
                            "scenario": preset.scenario,
                            "aggregation": preset.aggregation, **summary}],
                          ["method", "dataset", "scenario", "aggregation"]
                          + SUMMARY_COLUMNS))
        return 0

    if args.command == "compare":
        dataset = _dataset_from(args)
        preset = scaled(preset_for(dataset), **_preset_overrides(args))
        rows = []
        with _executor_from(args) as executor:
            for method in args.methods:
                history = run_method(method, preset, executor=executor)
                rows.append({"method": method, "dataset": dataset,
                             "scenario": preset.scenario,
                             "aggregation": preset.aggregation,
                             **summarize(history)})
        print(format_rows(rows, ["method", "dataset", "scenario",
                                 "aggregation"] + SUMMARY_COLUMNS))
        return 0

    if args.command == "table1":
        with _executor_from(args) as executor:
            rows = table1_accuracy_flops(datasets=args.datasets,
                                         methods=args.methods,
                                         overrides=_preset_overrides(args),
                                         executor=executor)
        print(format_rows(rows, ["method", "dataset"] + SUMMARY_COLUMNS[:3]
                          + ["time_to_accuracy_seconds"]))
        return 0

    if args.command == "sweep":
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        overrides = _preset_overrides(args)
        overrides.pop("scenario", None)
        overrides.pop("aggregation", None)
        overrides.pop("codec", None)
        scenarios = list(args.scenarios)
        if args.scenario is not None and args.scenario not in scenarios:
            scenarios.append(args.scenario)
        aggregations = list(args.aggregations)
        if (args.aggregation is not None
                and args.aggregation not in aggregations):
            aggregations.append(args.aggregation)
        codecs = list(args.codecs)
        if args.codec is not None and args.codec not in codecs:
            codecs.append(args.codec)
        histories = {}
        with _executor_from(args) as executor:
            # the codec axis loops outside run_scenario_sweep: each codec
            # rides the preset (so cells cache-key like any other field)
            for codec in codecs:
                cells = run_scenario_sweep(
                    args.methods, args.datasets, scenarios, aggregations,
                    overrides={**overrides, "codec": codec},
                    executor=executor, cache=cache,
                    checkpoint_root=args.checkpoint_dir,
                    retries=args.retries)
                for key, history in cells.items():
                    histories[key + (codec,)] = history
        rows = [{"method": method, "dataset": dataset, "scenario": scenario,
                 "aggregation": aggregation, "codec": codec,
                 **summarize(history)}
                for (method, dataset, scenario, aggregation, codec), history
                in histories.items()]
        columns = ["method", "dataset", "scenario", "aggregation"]
        summary_columns = list(SUMMARY_COLUMNS)
        if codecs != ["dense"]:
            columns.append("codec")
            summary_columns.append("wire_upload_bytes")
        print(format_rows(rows, columns + summary_columns))
        if cache is not None:
            print(f"# cache: {cache.hits} hit(s), {cache.misses} miss(es) "
                  f"in {cache.directory}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
