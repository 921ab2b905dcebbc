"""Cohort-batching benchmark: vectorized local training vs the client loop.

``repro bench batch`` pins the contract of the vectorized cohort
engine (:mod:`repro.federated.batched`, ``FederatedConfig.batch_cohort``):

* at a cross-device-style workload (many small local steps) a cohort of
  16 clients must train **at least 2x faster** fused into one batched
  tensor program than through the per-client loop, for both the dense
  FedAvg path and FedLPS's learnable sparsification;
* the speedup must be *free*: the batched run's history digest must equal
  the loop run's digest bit-for-bit on every measured cell.

Timing uses the best of ``BENCH_REPEATS`` full runs per cell (min, not
mean — the minimum is the least noisy location statistic for wall-clock
benchmarks).  The report lands in ``BENCH_batch.json``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .harness import Axis, history_digest, register, timed

#: the batched program must beat the loop by this factor at the gated cohort
GATE_MIN_SPEEDUP = 2.0
#: cells with at least this many clients per round are speed-gated
GATE_COHORT = 16

#: methods every cell measures: the dense baseline engine and the paper's
#: learnable-sparsification engine
BENCH_METHODS = ("fedavg", "fedlps")

#: cohort sizes measured per method (the >= GATE_COHORT ones are gated)
BENCH_COHORTS = (4, 16)

#: full runs per (method, cohort, mode) cell; the minimum wall-clock wins
BENCH_REPEATS = 5


def batch_preset(cohort: int, scale: float = 1.0, *, seed: int = 0,
                 batched: bool = False):
    """The bench workload: many small local steps on a homogeneous cohort.

    Cohort batching pays off where the per-step tensor work is small and
    the Python/dispatch overhead per client step dominates — the
    cross-device regime (per-example SGD, many local iterations).
    ``examples_per_client`` is a multiple of ``batch_size`` so every
    client's schedule is homogeneous (no ragged padding) and the fully
    batched matmul path is exercised.
    """
    from ..experiments.presets import preset_for, scaled

    return scaled(
        preset_for("mnist"),
        num_clients=cohort,
        clients_per_round=cohort,
        num_rounds=max(1, int(round(2 * scale))),
        local_iterations=max(2, int(round(16 * scale))),
        batch_size=1,
        examples_per_client=16,
        eval_clients=0,
        seed=seed,
        batch_cohort=batched)


def _one_run(method: str, preset) -> Tuple[float, str]:
    """Wall clock and history digest of one serial run."""
    from ..experiments.runner import run_method

    with timed() as clock:
        history = run_method(method, preset)
    return clock.seconds, history_digest(history)


def measure_batching(method: str, cohort: int, *, scale: float = 1.0,
                     seed: int = 0,
                     repeats: int = BENCH_REPEATS) -> Dict[str, object]:
    """Time one (method, cohort) cell in loop mode and batched mode.

    Loop and batched runs are INTERLEAVED so a transient slowdown (shared
    CI runner, frequency scaling) hits both sides of the ratio rather
    than biasing one; the minimum over repeats is taken per side.
    """
    loop_preset = batch_preset(cohort, scale, seed=seed)
    batched_preset = batch_preset(cohort, scale, seed=seed, batched=True)
    # one unmeasured warm-up run per mode primes lazy imports/caches
    _one_run(method, loop_preset)
    _one_run(method, batched_preset)
    loop_seconds = batched_seconds = float("inf")
    loop_digest = batched_digest = None
    for _ in range(repeats):
        seconds, loop_digest = _one_run(method, loop_preset)
        loop_seconds = min(loop_seconds, seconds)
        seconds, batched_digest = _one_run(method, batched_preset)
        batched_seconds = min(batched_seconds, seconds)
    return {
        "method": method,
        "cohort": cohort,
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": loop_seconds / batched_seconds,
        "loop_digest": loop_digest,
        "batched_digest": batched_digest,
        "bit_identical": loop_digest == batched_digest,
        # family-wide headline column: the batched run's cost
        "seconds": batched_seconds,
    }


def _gate(cells: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Pass/fail: >= 2x at cohort >= 16, identical histories everywhere."""
    if not cells:
        return {"pass": False, "reason": "no cells measured"}
    identical = all(cell["bit_identical"] for cell in cells)
    gated = [cell for cell in cells if cell["cohort"] >= GATE_COHORT]
    fast_enough = bool(gated) and all(
        float(cell["speedup"]) >= GATE_MIN_SPEEDUP for cell in gated)
    worst = min((float(cell["speedup"]) for cell in gated), default=0.0)
    return {
        "pass": identical and fast_enough,
        "bit_identical": identical,
        "fast_enough": fast_enough,
        "min_gated_speedup": worst,
        "min_speedup_required": GATE_MIN_SPEEDUP,
        "gated_cohort": GATE_COHORT,
    }


def run(scale: float) -> Dict[str, object]:
    """Measure the cohort-batching report body at ``scale``.

    ``scale`` multiplies the workload (rounds, local iterations), the same
    convention as the other ``repro bench`` axes.
    """
    return {
        "repeats": BENCH_REPEATS,
        "cells": [measure_batching(method, cohort, scale=scale)
                  for method in BENCH_METHODS for cohort in BENCH_COHORTS],
    }


register(Axis(
    name="batch",
    doc=__doc__,
    gates=f"the batched program is >= {GATE_MIN_SPEEDUP:.0f}x faster than "
          f"the loop at cohort >= {GATE_COHORT} and every batched history "
          "is bit-identical to its loop history",
    run=run,
    gate=lambda report: _gate(report["cells"]),
    columns={"method": "method", "cohort": "cohort",
             "loop_s": "loop_seconds", "batch_s": "batched_seconds",
             "speedup": "speedup", "identical": "bit_identical"},
    cells=lambda report: report["cells"]))
