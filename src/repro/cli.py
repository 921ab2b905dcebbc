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

Every experiment command accepts ``--workers N`` and ``--backend
{process,serial,socket,thread}``.  ``run`` and ``compare`` parallelize the
per-round client work inside each simulation; ``sweep`` dispatches whole
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
import math
import sys
from dataclasses import fields
from typing import Callable, List, Optional

from .baselines import TABLE1_METHODS, available_strategies
from .experiments import (DATASETS, DEFAULT_CACHE_DIR, DEFAULT_PRESETS,
                          ExperimentPreset, ResultCache, format_rows,
                          preset_for, run_grid, run_method, scaled, summarize,
                          table1_accuracy_flops)
from .parallel import (available_backends, available_codecs,
                       available_fault_plans, resolve_executor)
from .scenarios import available_scenarios
from .server import available_aggregations

#: the headline columns every experiment command prints
SUMMARY_COLUMNS = ["accuracy", "total_flops", "total_time_seconds",
                   "sim_time_seconds", "time_to_accuracy_seconds"]


def positive(cast: Callable[[str], float]) -> Callable[[str], float]:
    """An argparse ``type``: ``cast`` the text, reject anything not > 0."""
    def parse(text: str) -> float:
        value = cast(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a positive {cast.__name__}")
        return value
    parse.__name__ = f"positive {cast.__name__}"
    return parse


def non_negative_int(text: str) -> int:
    """An argparse ``type``: an int, rejecting anything below 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative int")
    return value


def _preset_overrides(args: argparse.Namespace) -> dict:
    """The preset fields this command line sets.

    Every run-shaping option's ``dest`` is its :class:`ExperimentPreset`
    field, so the options left unset (``None``) keep the preset's value.
    ``dataset`` is not an override: that option names the preset.
    """
    return {preset_field.name: getattr(args, preset_field.name)
            for preset_field in fields(ExperimentPreset)
            if preset_field.name != "dataset"
            and getattr(args, preset_field.name, None) is not None}


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
    parser.add_argument("--task-timeout", type=positive(float),
                        default=None,
                        help="per-client-task wall-clock timeout in seconds; "
                             "a timed-out task is retried (then dropped) and "
                             "its hung worker reclaimed on the process "
                             "backend")
    parser.add_argument("--max-retries", type=non_negative_int, default=None,
                        help="retry a failed client task up to N times with "
                             "capped exponential backoff before dropping "
                             "the client from the round (default 0)")
    parser.add_argument("--batch-cohort",
                        action=argparse.BooleanOptionalAction, default=None,
                        help="train each round's cohort as stacked tensor "
                             "programs (client axis leading): cache-sized "
                             "chunks, at least one per worker, when the "
                             "strategy/model pair supports it; bit-identical "
                             "histories, much less Python overhead per "
                             "update.  --no-batch-cohort selects the "
                             "per-client loop; default: the preset's value "
                             "(on for mnist-100k and mnist-1m)")
    parser.add_argument("--reducer-shards", type=positive(int),
                        default=None,
                        help="partition the aggregation across N "
                             "parameter-server reducer shards (keys are "
                             "assigned by a deterministic hash of their "
                             "name); histories are bit-identical at every "
                             "count (default 1 = unsharded)")
    parser.add_argument("--rounds", type=positive(int), default=None,
                        dest="num_rounds", metavar="ROUNDS")
    parser.add_argument("--clients", type=positive(int), default=None,
                        dest="num_clients", metavar="CLIENTS")
    parser.add_argument("--clients-per-round", type=positive(int),
                        default=None)
    parser.add_argument("--local-iterations", type=positive(int), default=None)
    parser.add_argument("--seed", type=non_negative_int, default=None)
    _add_executor_arguments(parser)


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=non_negative_int, default=1,
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
    run_parser.add_argument("--checkpoint-every", type=positive(int),
                            default=None,
                            help="checkpoint every N rounds (default 1)")
    run_parser.add_argument("--resume", action="store_true",
                            help="resume from the latest checkpoint in "
                                 "--checkpoint-dir (fresh start if none); "
                                 "the continued history is bit-identical to "
                                 "an uninterrupted run")
    run_parser.add_argument("--stop-after-round", type=non_negative_int,
                            default=None,
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
    compare_parser.add_argument("--methods", nargs="+",
                                default=["fedavg", "fedlps"],
                                choices=available_strategies())
    _add_common_arguments(compare_parser)

    table1_parser = sub.add_parser("table1", help="reproduce Table I rows")
    table1_parser.add_argument("--datasets", nargs="+", default=["mnist"],
                               **_PRESET_NAME)
    table1_parser.add_argument("--methods", nargs="+",
                               default=list(TABLE1_METHODS),
                               choices=available_strategies())
    _add_common_arguments(table1_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="run a method × dataset × scenario grid with caching")
    sweep_parser.add_argument("--datasets", nargs="+", default=list(DATASETS),
                              **_PRESET_NAME)
    sweep_parser.add_argument("--methods", nargs="+",
                              default=["fedavg", "fedlps"],
                              choices=available_strategies())
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
    sweep_parser.add_argument("--retries", type=non_negative_int, default=0,
                              help="retry a failed cell up to N times, "
                                   "resuming from its last checkpoint when "
                                   "--checkpoint-dir is set")
    _add_common_arguments(sweep_parser)

    sub.add_parser("list", help="list available methods")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if ((getattr(args, "hosts", None) or getattr(args, "worker_token", None))
            and args.backend != "socket"):
        parser.error("--hosts/--worker-token need --backend socket")
    if (args.command == "run" and args.checkpoint_dir is None
            and (args.resume or args.stop_after_round is not None
                 or args.checkpoint_every is not None)):
        parser.error("--resume/--stop-after-round/--checkpoint-every need "
                     "--checkpoint-dir")

    if args.command == "list":
        for name in available_strategies():
            print(name)
        return 0

    if args.command == "run":
        dataset = _dataset_from(args)
        preset = scaled(preset_for(dataset), **_preset_overrides(args))
        from .checkpoint import (CheckpointError, CheckpointMismatch,
                                 SegmentError, TrainingInterrupted)
        try:
            with _executor_from(args) as executor:
                history = run_method(
                    args.method, preset, executor=executor,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every or 1,
                    resume=args.resume,
                    stop_after_round=args.stop_after_round)
        except TrainingInterrupted as interrupted:
            print(f"# {interrupted}", flush=True)
            return 3
        except CheckpointError as error:
            if isinstance(error, CheckpointMismatch):
                remedy = ("its files are intact: nothing to repair, use "
                          "another --checkpoint-dir to keep them")
            elif isinstance(error, SegmentError):
                # heads share segments: the older kept head usually
                # references the same file, so there is no fallback to offer
                remedy = ("every checkpoint-*.pkl that references that "
                          "segment is unusable, older ones included; delete "
                          "the directory to start over")
            else:
                remedy = ("delete that checkpoint-*.pkl to fall back to an "
                          "older one if the directory keeps one, or delete "
                          "the directory to start over")
            print(f"repro run: checkpoint directory {args.checkpoint_dir}: "
                  f"{error} — {remedy}", file=sys.stderr, flush=True)
            return 2
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
        axes = {"scenario": list(args.scenarios),
                "aggregation": list(args.aggregations),
                "codec": list(args.codecs)}
        for name, values in axes.items():
            # a singular --scenario/--aggregation/--codec joins its axis
            single = getattr(args, name)
            if single is not None and single not in values:
                values.append(single)
        with _executor_from(args) as executor:
            histories = run_grid(args.methods, args.datasets, axes,
                                 overrides=_preset_overrides(args),
                                 executor=executor, cache=cache,
                                 checkpoint_root=args.checkpoint_dir,
                                 retries=args.retries)
        rows = [{"method": method, "dataset": dataset, "scenario": scenario,
                 "aggregation": aggregation, "codec": codec,
                 **summarize(history)}
                for (method, dataset, scenario, aggregation, codec), history
                in histories.items()]
        columns = ["method", "dataset", "scenario", "aggregation"]
        summary_columns = list(SUMMARY_COLUMNS)
        if axes["codec"] != ["dense"]:
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
