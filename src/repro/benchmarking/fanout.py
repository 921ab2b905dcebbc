"""Round fan-out benchmark: wall-clock and bytes across executor backends.

``repro bench fanout`` times the same federated workload (FedLPS on the MNIST
preset — sparse patterns, per-client importance state, the P-UCBV bandit)
through every executor backend and worker count, with persistent pools warmed
up before timing so the numbers measure round fan-out rather than worker
start-up.  The spawn/start-up cost is recorded separately, both for honesty
and because the CI gate uses it as the tolerated margin between the process
and serial backends on starved runners.

Alongside wall-clock, the benchmark measures the serialization traffic of
one round through the shared-memory broadcast (parameters travel as raw
blocks once per round, tasks carry handles).  Everything lands in
``BENCH_fanout.json``, schema-compatible with the ``BENCH_parallel.json``
family (per-backend ``mean/min/samples_seconds``, ``cpu_count``,
``bench_scale``) so future perf PRs have a trajectory to move.
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterable, List

from ..experiments import preset_for, run_method, scaled
from ..parallel import (available_backends, broadcast_stats,
                        reset_broadcast_stats, resolve_executor)
from ..server import available_aggregations
from .harness import Axis, positive, register, scalars, timed, workload

#: the method every fan-out benchmark runs — FedLPS exercises the heaviest
#: state flows (importance indicators, bandit bookkeeping, sparse patterns)
BENCH_METHOD = "fedlps"

#: minimum process-vs-serial gate margin, guarding against a spuriously tiny
#: spawn-overhead measurement turning the gate into a coin flip
GATE_MARGIN_FLOOR_SECONDS = 0.1


def fanout_preset(scale: float = 1.0):
    """The benchmark workload at ``scale`` (1.0 == the CI smoke workload).

    Scale 1.0 reproduces the ``BENCH_parallel.json`` workload exactly
    (6 clients x 30 examples, 3 rounds, 2 local iterations), so fan-out
    numbers stay comparable across the two artifacts.
    """
    num_clients = max(4, int(round(6 * scale)))
    overrides = {
        "num_clients": num_clients,
        "examples_per_client": max(16, int(round(30 * scale))),
        "num_rounds": max(2, int(round(3 * scale))),
        "clients_per_round": min(3, num_clients),
        "local_iterations": max(1, int(round(2 * scale))),
        "batch_size": 16,
        "seed": 7,
    }
    return scaled(preset_for("mnist"), **overrides)


def measure_aggregation_modes(preset,
                              aggregations: Iterable[str] = ("sync",
                                                             "fedasync",
                                                             "fedbuff"),
                              *, tta_fraction: float = 0.5
                              ) -> Dict[str, object]:
    """Wall-clock + sim-time-to-accuracy of each server aggregation mode.

    Every mode runs the same workload under the ``flaky`` scenario (Bernoulli
    availability on a heterogeneous fleet — the setting where asynchronous
    aggregation's sim-time advantage shows).  The time-to-accuracy target is
    shared across modes: ``tta_fraction`` of the *synchronous* run's best
    accuracy, so the async cells answer "how much sooner does the async
    server reach what sync eventually reaches".
    """
    flaky = scaled(preset, scenario="flaky")
    modes: Dict[str, Dict[str, object]] = {}
    histories = {}
    for aggregation in ["sync"] + [a for a in aggregations if a != "sync"]:
        agg_preset = scaled(flaky, aggregation=aggregation)
        with timed() as clock:
            histories[aggregation] = run_method(BENCH_METHOD, agg_preset)
        modes[aggregation] = {"wall_seconds": clock.seconds}
    target = tta_fraction * histories["sync"].best_accuracy()
    for aggregation, history in histories.items():
        modes[aggregation].update({
            "sim_time_seconds": history.total_sim_time,
            "final_accuracy": history.final_accuracy(),
            "best_accuracy": history.best_accuracy(),
            "sim_time_to_accuracy_seconds":
                history.sim_time_to_accuracy(target),
            "mean_staleness": history.mean_staleness,
        })
    return {
        "scenario": "flaky",
        "target_accuracy": target,
        "tta_fraction": tta_fraction,
        "modes": {name: modes[name] for name in aggregations},
    }


def measure_fanout_bytes(preset) -> Dict[str, float]:
    """Serialized bytes per round of the broadcast fan-out.

    The run uses a 2-worker thread pool with a payload witness that pickles
    every submitted task payload — the payload objects are identical to
    what the process backend would ship, so the counts transfer — and reads
    the server-side broadcast counters: the pickled-once template blob and
    the raw (never pickled) parameter blocks in shared memory.

    The session broadcast's dataset blocks are a **once-per-run** payload;
    they are reported separately (``session_raw_bytes``) and excluded from
    ``shared_memory_raw_per_round`` so that cell keeps measuring per-round
    traffic and stays comparable across scales and PRs.  Since the virtual
    client fleet became the default, the session of a generated federation
    carries only its spec — ``session_raw_bytes`` is 0 because no dataset
    arrays cross the boundary at all (workers rebuild shards per cohort).
    """
    from ..experiments.presets import build_experiment
    from ..server.core import dataset_to_blocks

    rounds = preset.num_rounds
    dataset, _, _, _ = build_experiment(preset)
    session_raw = sum(block.nbytes
                      for block in dataset_to_blocks(dataset)[0].values())

    task_bytes = 0

    def witness(item) -> None:
        nonlocal task_bytes
        task_bytes += len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))

    reset_broadcast_stats()
    with resolve_executor("thread", 2) as executor:
        executor.payload_witness = witness
        run_method(BENCH_METHOD, preset, executor=executor)
    stats = broadcast_stats()
    return {
        "broadcast_pickled_per_round":
            (task_bytes + stats["blob_bytes"]) / rounds,
        "broadcast_task_payloads_per_round": task_bytes / rounds,
        "shared_memory_raw_per_round":
            (stats["param_bytes"] - session_raw) / rounds,
        "session_raw_bytes": session_raw,
        "broadcast_publishes": stats["publishes"],
        "clients_per_round": preset.clients_per_round,
        "num_rounds": rounds,
    }


def run(scale: float, *, backends: Iterable[str],
        workers_list: Iterable[int], repeats: int,
        aggregations: Iterable[str]) -> Dict[str, object]:
    """Measure the fan-out report body at ``scale``.

    For each pool backend x worker count, one executor is created and kept
    for the whole cell: a warm-up run pays the pool start-up and fills the
    worker-side broadcast caches' import costs, then ``repeats`` timed runs
    measure steady-state round fan-out.  ``spawn_overhead`` = warm-up time
    minus the steady-state mean, clamped at zero.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    preset = fanout_preset(scale)
    reference = run_method(BENCH_METHOD, preset)

    timings: Dict[str, Dict[str, object]] = {}
    for backend in backends:
        counts = [1] if backend == "serial" else list(workers_list)
        for workers in counts:
            label = backend if backend == "serial" else f"{backend}-{workers}"
            with resolve_executor(backend, workers) as executor:
                # the warm phase pays worker spawn + module imports + the
                # first run; steady-state samples then measure pure fan-out
                with timed() as warm:
                    executor.warm_up()
                    history = run_method(BENCH_METHOD, preset,
                                         executor=executor)
                samples = []
                for _ in range(repeats):
                    with timed() as clock:
                        run_method(BENCH_METHOD, preset, executor=executor)
                    samples.append(clock.seconds)
            mean = sum(samples) / len(samples)
            timings[label] = {
                "workers": workers,
                "samples_seconds": samples,
                "mean_seconds": mean,
                "min_seconds": min(samples),
                "warmup_seconds": warm.seconds,
                "spawn_overhead_seconds": max(0.0, warm.seconds - mean),
                "matches_serial_reference":
                    history.to_dict() == reference.to_dict(),
            }
    return {
        "method": BENCH_METHOD,
        "workload": workload(preset),
        "timings": timings,
        "bytes": measure_fanout_bytes(preset),
        "aggregation": measure_aggregation_modes(preset, aggregations),
    }


def _gate(timings: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """The CI pass/fail verdict: correctness, then wall-clock.

    Every benchmarked backend must reproduce the serial reference history
    bit-for-bit.  On wall-clock, steady-state process fan-out may
    legitimately trail serial on a starved (1-2 core) runner because of
    per-task IPC, but never by more than *its own* recorded pool start-up
    overhead — if it does, per-task payloads have regressed.  Without both
    backends in the run the timing clause passes vacuously.
    """
    diverged = sorted(label for label, entry in timings.items()
                      if not entry["matches_serial_reference"])
    if diverged:
        return {"pass": False,
                "reason": f"histories diverged from the serial reference: "
                          f"{diverged}"}
    serial = timings.get("serial")
    process_entries = {label: entry for label, entry in timings.items()
                       if label.startswith("process-")}
    if serial is None or not process_entries:
        return {"pass": True, "reason": "serial + process not both benchmarked"}
    best_label = min(process_entries,
                     key=lambda label: process_entries[label]["mean_seconds"])
    best = process_entries[best_label]
    process_mean = float(best["mean_seconds"])
    serial_mean = float(serial["mean_seconds"])
    # the margin is the compared cell's own spawn overhead (not the worst
    # cell's), so slack from a wider pool cannot mask a fan-out regression
    margin = max(float(best["spawn_overhead_seconds"]),
                 GATE_MARGIN_FLOOR_SECONDS)
    return {
        "pass": process_mean <= serial_mean + margin,
        "serial_mean_seconds": serial_mean,
        "process_mean_seconds": process_mean,
        "process_entry": best_label,
        "margin_seconds": margin,
    }


def _extra_lines(report: Dict[str, object]) -> List[str]:
    aggregation = report["aggregation"]
    return [f"bytes/round: {scalars(report['bytes'])}",
            f"aggregation: {scalars(aggregation)}",
            *(f"aggregation {name}: {scalars(mode)}"
              for name, mode in aggregation["modes"].items())]


register(Axis(
    name="fanout",
    doc=__doc__,
    gates="every backend reproduces the serial history bit-for-bit and the "
          "best process cell trails serial by no more than its own "
          "recorded spawn overhead",
    run=run,
    gate=lambda report: _gate(report["timings"]),
    columns={"backend": "backend", "workers": "workers",
             "mean_s": "mean_seconds", "min_s": "min_seconds",
             "spawn_s": "spawn_overhead_seconds",
             "identical": "matches_serial_reference"},
    cells=lambda report: [{"backend": label, **entry} for label, entry
                          in sorted(report["timings"].items())],
    extra_lines=_extra_lines,
    options={
        "backends": dict(nargs="+", default=tuple(available_backends()),
                         choices=available_backends(),
                         help="executor backends to time"),
        "workers_list": dict(nargs="+", type=positive(int),
                             default=(1, 2, 4),
                             help="worker counts to time for pool backends"),
        "repeats": dict(type=positive(int), default=2,
                        help="timed runs per backend/worker cell (after one "
                             "untimed warm-up run)"),
        "aggregations": dict(nargs="+",
                             default=tuple(available_aggregations()),
                             choices=available_aggregations(),
                             help="aggregation modes to profile (wall-clock "
                                  "+ sim-time-to-accuracy under the flaky "
                                  "scenario)"),
    }))
