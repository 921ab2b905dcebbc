"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Not part of the tier-1 suite (``testpaths`` does not reach here): these
start real worker pools and take about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import one  # noqa: E402  (also puts src/ on the path)
import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---------------------------------------------------------------- manifest
def test_manifest_is_generated_from_the_registry():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert declared == run.manifest()


def test_manifest_meets_the_contract_limits():
    manifest = run.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in manifest["end_to_end"])}]
    assert all(0 <= m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for key in ("end_to_end", "per_layer")
               for m in manifest[key])
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 8) <= 3420


# ------------------------------------------------------------------- smoke
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    return done, time.monotonic() - started, json.loads(out.read_text())


def test_smoke_is_quick_and_clean(smoke):
    done, seconds, report = smoke
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert seconds < 90
    assert all(w["correct"] and w["ops_failed"] == 0
               for w in report["workloads"].values())


def test_smoke_emits_every_declared_name(smoke):
    _, _, report = smoke
    assert set(report["workloads"]) == set(WORKLOADS)
    for result in report["workloads"].values():
        assert set(result["end_to_end"]) == {m[0] for m in END_TO_END}
        assert set(result["per_layer"]) == {m[0] for m in PER_LAYER}
        # one timed repeat, watched by HostSpeed — and ``correct`` above says
        # its history equals the traced, unwatched run's
        assert len(result["host_slowdown"]) == 1
        assert result["host_slowdown"][0] > 0


def test_smoke_traced_pool_and_checkpoint_runs_fired_their_spans(smoke):
    """A traced process run and a traced checkpoint run both completed —
    with digests equal to the untraced and twin runs, or ``correct`` above
    would be False."""
    _, _, report = smoke
    pool = report["workloads"]["process-cifar10"]["per_layer"]
    assert pool["parallel.executors.map_s"]["value"] > 0
    assert pool["parallel.broadcast.publishes_per_round"]["value"] > 0
    ckpt = report["workloads"]["fleet100k-fedbuff-ckpt"]["per_layer"]
    assert ckpt["checkpoint.saves"]["value"] == 3
    assert ckpt["checkpoint.load_s"]["value"] > 0


def test_contract_line_in_both_trace_modes():
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             "serial-mnist", "--seed", "7", "--seconds", "1", "--trace",
             str(trace), "--smoke"], capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m[0] for m in names}


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark, fail without a result."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "bench" / "digests.json").write_text(
        (BENCH / "digests.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serial-mnist",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -------------------------------------------------------------- host speed
def test_host_speed_times_its_own_sampling():
    speed = HostSpeed()
    speed.sample()
    assert len(speed.samples) == 3 and min(speed.samples) > 0
    assert speed.seconds > sum(speed.samples)  # the discarded pass too
    assert speed.slowdown() > 0


def test_timed_readings_are_divided_by_the_host_slowdown():
    result = run.WorkloadResult("serial-mnist", 0, smoke=False)
    record = {"digest": "d", "ops_attempted": 4, "ops_failed": 0,
              "updates": 4, "setup_s": 1.0, "run_s": 4.0,
              "host_slowdown": 2.0, "sampling_s": 0.5}
    result.add(record, 6.5, None)
    assert (record["setup_s"], record["run_s"], record["wall_s"]) == \
        (0.5, 2.0, 3.0)
    assert record["updates_per_s"] == 2.0 and record["raw_run_s"] == 4.0
    assert result.host_slowdown == [2.0]


# ------------------------------------------------------------------ tracer
def test_tracer_patches_classes_never_the_strategy_instance():
    preset = WORKLOADS["serial-mnist"].preset(0, rounds=2)
    plain = one.build_trainer(preset, None)
    plain_history = plain.run()
    tracer = Tracer().install()
    try:
        trainer = one.build_trainer(preset, None)
        with tracer.span(one.RUN_SPAN):
            history = trainer.run()
    finally:
        tracer.uninstall()
    assert set(trainer.strategy.__dict__) == set(plain.strategy.__dict__)
    assert not any(callable(value)
                   for value in trainer.strategy.__dict__.values())
    assert one.history_digest(history) == one.history_digest(plain_history)
    names = {span[0] for span in tracer.spans}
    assert {"server.select_clients", "core.local_update",
            "federated.aggregate", "core.post_round"} <= names
    # uninstall restored the originals: a fresh run records nothing more
    recorded = len(tracer.spans)
    one.build_trainer(preset, None).run()
    assert len(tracer.spans) == recorded


# ----------------------------------------------------------------- compare
def _row(median, low=None, high=None):
    return {"median": median, "min": median if low is None else low,
            "max": median if high is None else high}


@pytest.mark.parametrize("a, b, expected", [
    (_row(10.0), _row(10.5), "ok"),
    (_row(10.0), _row(13.0), "regressed"),
    (_row(10.0), _row(7.0), "improved"),
    # B's own spread is wider than the bound and its runs overlap A's
    (_row(10.0), _row(13.0, 9.0, 14.0), "unresolved"),
    # ... unless every run of B beats every run of A
    (_row(10.0, 9.5, 14.0), _row(7.0, 6.0, 9.0), "improved"),
])
def test_compare_verdicts_for_a_timing(a, b, expected):
    assert compare.verdict("run_s", "lower", 0.25, a, b) == expected


def test_compare_verdicts_for_higher_is_better_and_exact_metrics():
    assert compare.verdict("updates_per_s", "higher", 0.25,
                           _row(100.0), _row(70.0)) == "regressed"
    assert compare.verdict("updates_per_s", "higher", 0.25,
                           _row(100.0), _row(130.0)) == "improved"
    exact = ("comm_bytes_per_round", "lower", 0.15)
    assert compare.verdict(*exact, _row(1000.0), _row(1000.0)) == "ok"
    assert compare.verdict(*exact, _row(1000.0), _row(1001.0)) == "regressed"
    assert compare.verdict(*exact, _row(1000.0), _row(999.0)) == "improved"


def test_compare_rejects_a_higher_failure_rate():
    def report(failed):
        return {"workloads": {"w": {"ops_attempted": 100,
                                    "ops_failed": failed,
                                    "end_to_end": {}, "per_layer": {}}}}
    assert compare.compare(report(0), report(0))[1] is True
    assert compare.compare(report(0), report(1))[1] is False
