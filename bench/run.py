"""The benchmark: five pinned FedLPS workloads, measured from outside.

Two ways in, one measuring loop:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload.  ``--trace 0`` repeats it in fresh subprocesses for about
    ``S`` seconds (three repeats on the reference box, never fewer than two)
    and reports the median of every end-to-end metric, wall-clock readings
    divided by the host's slowdown during the run they come from
    (``hostspeed.py``); ``--trace 1`` makes one untraced, one traced and one
    traced twin run plus the workload's layer probes and reports every
    per-layer metric.  The last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 bench/run.py [--seed N] [--repeats R] [--workloads a,b] [--smoke]``
    Every workload: one discarded warm-up each, ``R`` timed repeats
    interleaved across workloads, then the traced pass.  Prints every
    metric by name with its unit and writes ``bench/out/results.json``
    (``--out`` to choose) for ``compare.py``.

Exit code 0 only if every history digest matched (pinned digest, repeat
against repeat, traced against untraced, workload against twin) and no
operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
# like the children (PYTHONDONTWRITEBYTECODE): leave no __pycache__ behind
sys.dont_write_bytecode = True

from metrics import (BLAS_DIAGNOSTIC, END_TO_END, PER_LAYER,  # noqa: E402
                     PROBES, TRACED, UNITS)
from workloads import SMOKE_ROUNDS, WORKERS, WORKLOADS  # noqa: E402

OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
#: the manifest's run_seconds: three >= 5 s runs and their set-up fit in it
RUN_SECONDS = 20
#: fewer than three repeats only when the box is so slow that a third would
#: not fit in --seconds: the driver's total-time cap outranks the third run
MIN_REPEATS = 2
CHILD_TIMEOUT = 120.0
#: a --workload invocation must end within 180 s whatever happens
INVOCATION_BUDGET = 170.0
#: BLAS threads fight the pool's workers for the same cores: unpinned,
#: process-cifar10 takes 9-14 s against 2.8 s pinned (README)
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
POOL_BACKENDS = ("process", "socket")
#: where (and for how many rounds) the BLAS diagnostic is taken
BLAS_WORKLOAD, BLAS_ROUNDS = "process-cifar10", 6


class Harness:
    """Runs child processes with the benchmark's hygiene rules applied."""

    def __init__(self, *, budget: float = float("inf")) -> None:
        OUT.mkdir(exist_ok=True)
        self._scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
        self._deadline = time.monotonic() + budget
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                        TMPDIR=self._scratch,
                        **{name: "1" for name in THREAD_PINS})

    def close(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)

    def child(self, script: str, *args: str, env=None):
        """Run ``bench/<script>``; returns (record or None, wall_s, error)."""
        shm_before = _shm_segments()
        timeout = min(CHILD_TIMEOUT, self._deadline - time.monotonic())
        env = dict(env or self.env, BENCH_SPAWNED_AT=repr(time.time()))
        started = time.perf_counter()
        # its own session, so the whole tree can be killed and checked
        process = subprocess.Popen(
            [sys.executable, str(BENCH / script), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=BENCH.parent,
            start_new_session=True)
        error = None
        try:
            stdout, _ = process.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            error = f"timed out after {timeout:.0f} s"
            _kill_group(process.pid)
            stdout, _ = process.communicate()
        wall_s = time.perf_counter() - started
        if error is None and process.returncode != 0:
            error = f"exit code {process.returncode}"
        if _group_outlives(process.pid):
            _kill_group(process.pid)
            error = error or "leaked a child process"
        leaked = _shm_segments() - shm_before
        if leaked:
            error = error or f"leaked /dev/shm segments {sorted(leaked)}"
        record = None
        if error is None:
            try:
                record = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                error = "printed no JSON record"
        return record, wall_s, error


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _group_outlives(pgid: int, grace: float = 1.0) -> bool:
    """Whether a child's process group still has live members after ``grace``.

    multiprocessing's resource tracker legitimately outlives its parent by
    a moment (it exits when its pipe closes), hence the grace; zombies
    waiting for init to reap them are not alive and do not count.
    """
    deadline = time.monotonic() + grace
    while True:
        alive = False
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # exited while we were looking
                continue
            state, _, pgrp = stat.rpartition(")")[2].split()[:3]
            alive = alive or (int(pgrp) == pgid and state != "Z")
        if not alive:
            return False
        if time.monotonic() >= deadline:
            return True
        time.sleep(0.01)


# --------------------------------------------------------------- measuring
def _load_pins() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class WorkloadResult:
    """Repeats, verdicts and per-layer numbers of one workload."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name, self.seed, self.smoke = name, seed, smoke
        self.repeats: list = []
        self.errors: list = []
        self.digests: set = set()
        self.failed_runs = 0
        self.ops_attempted = self.ops_failed = self.ops_per_run = 0
        self.per_layer: dict = {}

    def one_args(self, *flags: str) -> list:
        return [self.name, str(self.seed), *flags,
                *(["--rounds", str(SMOKE_ROUNDS)] if self.smoke else [])]

    def add(self, record, wall_s, error, *, timed: bool = True):
        """Book one child run; returns its record if it succeeded."""
        if error is not None:
            self.failed_runs += 1
            self.errors.append(error)
            return None
        self.digests.add(record["digest"])
        self.ops_attempted += record["ops_attempted"]
        self.ops_failed += record["ops_failed"]
        self.ops_per_run = record["ops_attempted"]
        if timed:
            # wall-clock readings in seconds of the quiet reference box:
            # divided by how much slower the host ran meanwhile (hostspeed.py)
            slowdown = record["host_slowdown"]
            record["raw_run_s"] = record["run_s"]
            record["setup_s"] /= slowdown
            record["run_s"] /= slowdown
            record["wall_s"] = (wall_s - record["sampling_s"]) / slowdown
            record["updates_per_s"] = record["updates"] / record["run_s"]
            self.repeats.append(record)
        return record

    def check(self) -> bool:
        """Every history seen must be the one history, and the pinned one."""
        pinned = None if self.smoke else \
            _load_pins().get(self.name, {}).get(str(self.seed))
        if len(self.digests) > 1:
            self.errors.append(f"histories differ: {sorted(self.digests)}")
        elif pinned is not None and self.digests and \
                self.digests != {pinned}:
            self.errors.append(f"digest {next(iter(self.digests))[:12]} != "
                               f"pinned {pinned[:12]}")
        return not self.errors

    @property
    def ops(self) -> tuple:
        """(attempted, failed) client updates; a failed run fails all its."""
        lost = max(self.ops_per_run, 1) * self.failed_runs
        return self.ops_attempted + lost, self.ops_failed + lost

    @property
    def host_slowdown(self) -> list:
        return [repeat["host_slowdown"] for repeat in self.repeats]

    def end_to_end(self) -> dict:
        table = {}
        for name, unit, _, _ in END_TO_END if self.repeats else ():
            values = [repeat[name] for repeat in self.repeats]
            table[name] = {"unit": unit, "median": statistics.median(values),
                           "min": min(values), "max": max(values),
                           "n": len(values), "values": values}
        return table


def timed_pass(harness, results, *, repeats=None, seconds=None,
               warm_up=False) -> None:
    """Timed repeats, interleaved across workloads (w1, w2, ..., w1, ...)."""
    if warm_up:
        for result in results:
            result.add(*harness.child("one.py", *result.one_args()),
                       timed=False)
    started = time.monotonic()
    done = 0

    def room_for_another() -> bool:
        if repeats is not None:
            return done < repeats
        elapsed = time.monotonic() - started
        return done < MIN_REPEATS or elapsed + elapsed / done <= seconds

    # a failed run fails its workload: no point in repeating it
    while room_for_another() and not all(r.failed_runs for r in results):
        for result in results:
            if not result.failed_runs:
                result.add(*harness.child("one.py", *result.one_args()))
        done += 1


def traced_pass(harness, result, *, untraced_run_s=None) -> None:
    """One traced run, its traced twin and the workload's probes."""
    workload = WORKLOADS[result.name]
    if untraced_run_s is None:
        plain = result.add(*harness.child("one.py", *result.one_args()),
                           timed=False)
        untraced_run_s = plain["run_s"] if plain else None
    traced = result.add(*harness.child("one.py", *result.one_args("--trace")),
                        timed=False)
    twin = result.add(*harness.child(
        "one.py", *result.one_args("--trace", "--twin")), timed=False)
    probes, _, error = harness.child(
        "probes.py", result.name, str(result.seed),
        *(["--min-seconds", "0.05"] if result.smoke else []))
    if error is not None:
        result.errors.append(f"probes: {error}")
    if not (traced and twin and probes and untraced_run_s):
        return
    layers, reference = traced["layers"], twin["layers"]
    values = {name: layers.get(name, 0.0) for name, _, _ in TRACED}
    values["trace.overhead_ratio"] = layers["run_s"] / untraced_run_s
    if workload.backend in POOL_BACKENDS:
        # worker-side code is untraced: the serial twin decomposes the span
        compute = sum(reference[name] for name in (
            "core.local_update_s", "core.local_update_cohort_s",
            "server.eval_s"))
        for name in ("core.local_update_s", "parallel.codec.encode_s"):
            values[name] = reference[name]
        values["parallel.executors.fanout_overhead_ms_per_task"] = 1e3 * (
            layers["parallel.executors.map_s"] - compute / WORKERS
        ) / layers["parallel.executors.tasks"]
        values["parallel.scaling_efficiency"] = (
            reference["run_s"] / (WORKERS * layers["run_s"]))
    if values["trace.coverage"] < 0.95 and not result.smoke:
        result.errors.append(
            f"trace.coverage {values['trace.coverage']:.3f} < 0.95")
    values.update({name: probes.get(name, 0.0) for name, *_ in PROBES})
    values.update(blas_diagnostic(harness, result))
    result.per_layer = {name: {"unit": UNITS[name], "value": values[name]}
                        for name, _, _ in PER_LAYER}


def blas_diagnostic(harness, result) -> dict:
    """A short pool run with the BLAS thread variables pinned, then unset."""
    names = [name for name, _, _ in BLAS_DIAGNOSTIC]
    if result.name != BLAS_WORKLOAD:
        return dict.fromkeys(names, 0.0)
    unpinned = {name: value for name, value in harness.env.items()
                if name not in THREAD_PINS}
    seconds = []
    for env in (harness.env, unpinned):
        record, _, error = harness.child(
            "one.py", result.name, str(result.seed), "--rounds",
            str(SMOKE_ROUNDS if result.smoke else BLAS_ROUNDS), env=env)
        if error is not None:
            result.errors.append(f"blas diagnostic: {error}")
            return dict.fromkeys(names, 0.0)
        seconds.append(record["run_s"])
    pinned_s, unpinned_s = seconds
    return dict(zip(names, (pinned_s, unpinned_s, unpinned_s / pinned_s)))


# ---------------------------------------------------------------- reporting
def environment() -> dict:
    """Where the numbers were taken: enough to tell two machines apart."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; "
         "blas = numpy.show_config(mode='dicts')['Build Dependencies']"
         "['blas']; print(json.dumps({'numpy': numpy.__version__, "
         "'blas': blas.get('name'), 'blas_version': blas.get('version')}))"],
        capture_output=True, text=True)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH.parent,
                             capture_output=True, text=True)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:  # no git on this box
        git_sha = None
    load = os.getloadavg()[0]
    return {
        "git_sha": git_sha,
        "nproc": os.cpu_count(), "workers": WORKERS,
        "python": platform.python_version(),
        **(json.loads(probe.stdout) if probe.returncode == 0 else {}),
        "thread_env": {name: "1" for name in THREAD_PINS},
        "PYTHONDONTWRITEBYTECODE": "1",
        "load_1min": load, "noisy": load > 1.0,
    }


def print_table(results) -> None:
    for result in results:
        attempted, failed = result.ops
        print(f"\n== {result.name}  seed {result.seed}  "
              f"ops_attempted {attempted}  ops_failed {failed}")
        for name, row in result.end_to_end().items():
            print(f"  {name:<24s} {row['median']:>14.4f} {row['unit']:<5s}"
                  f" [min {row['min']:.4f}  max {row['max']:.4f}]"
                  f"  n={row['n']}")
        print("  host slowdown the readings in s are divided by: "
              + " ".join(f"{value:.3f}" for value in result.host_slowdown))
        idle = [name for name, row in result.per_layer.items()
                if not row["value"]]
        for name, row in result.per_layer.items():
            if name not in idle:
                print(f"  {name:<52s} {row['value']:>16.4f} {row['unit']}")
        if idle:
            print(f"  0 (off this workload's path): {', '.join(idle)}")
        for error in result.errors:
            print(f"  !! {error}")


def manifest() -> dict:
    """``BENCHMARK.json``, generated so it cannot drift from the registry."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def pin(harness, names, seed: int) -> int:
    """Record each workload's digest; never overwrites an existing pin."""
    pins = _load_pins()
    for name in names:
        if str(seed) in pins.get(name, {}):
            print(f"{name} seed {seed}: already pinned, refusing to overwrite")
            return 1
        record, _, error = harness.child("one.py", name, str(seed))
        if error is not None:
            print(f"{name} seed {seed}: {error}")
            return 1
        pins.setdefault(name, {})[str(seed)] = record["digest"]
        print(f"{name} seed {seed}: {record['digest']}")
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset for the whole-suite run")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="3-round presets, 1 repeat, no warm-up, "
                             "no pinned digests: a shape check")
    parser.add_argument("--out", default=str(OUT / "results.json"))
    parser.add_argument("--pin", action="store_true",
                        help="record digests for --seed in digests.json")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=1))
        return 0
    names = [args.workload] if args.workload else args.workloads.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from "
                     f"{sorted(WORKLOADS)}")

    harness = Harness(budget=INVOCATION_BUDGET if args.workload
                      else float("inf"))
    try:
        if args.pin:
            return pin(harness, names, args.seed)
        results = [WorkloadResult(name, args.seed, args.smoke)
                   for name in names]
        if args.workload:
            return one_workload(harness, results[0], args)
        # before the first run: afterwards the load is the benchmark's own
        report = {"environment": environment(), "seed": args.seed,
                  "smoke": args.smoke, "workloads": {}}
        timed_pass(harness, results,
                   repeats=1 if args.smoke else max(args.repeats, MIN_REPEATS),
                   warm_up=not args.smoke)
        for result in results:
            if result.repeats:
                traced_pass(harness, result, untraced_run_s=statistics.median(
                    repeat["raw_run_s"] for repeat in result.repeats))
        correct = all([result.check() for result in results])
    finally:
        harness.close()
    print_table(results)
    for result in results:
        attempted, failed = result.ops
        report["workloads"][result.name] = {
            "correct": not result.errors, "errors": result.errors,
            "ops_attempted": attempted, "ops_failed": failed,
            "digest": next(iter(result.digests), None),
            "end_to_end": result.end_to_end(),
            "host_slowdown": result.host_slowdown,
            "per_layer": result.per_layer}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n# results written to {args.out}")
    failed = sum(result.ops[1] for result in results)
    return 0 if correct and not failed else 1


def one_workload(harness, result, args) -> int:
    """The driver's contract: one workload, one JSON line, medians only."""
    if args.trace:
        traced_pass(harness, result)
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in result.per_layer.items()}
    else:
        timed_pass(harness, [result], seconds=args.seconds,
                   repeats=1 if args.smoke else None)
        metrics = {name: {"value": row["median"], "unit": row["unit"]}
                   for name, row in result.end_to_end().items()}
    attempted, failed = result.ops
    correct = result.check()
    for error in result.errors:
        print(f"!! {result.name}: {error}", file=sys.stderr)
    if not metrics:
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
