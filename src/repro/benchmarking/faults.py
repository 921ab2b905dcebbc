"""Fault-tolerance benchmark: chaos-run cost and determinism per backend.

``repro bench faults`` pins the contract of the supervised execution
layer (:mod:`repro.parallel.supervision` / :mod:`repro.parallel.faults`):

* a chaos run — injected exceptions, worker crashes and hangs, retried
  under supervision — must produce a **bit-identical history on every
  backend**, including the process pool where crashes kill real workers;
* when every injected fault is recovered by a retry (``fault_exhausted``
  stays 0), the chaos history with the ``fault_*`` accounting stripped must
  be **byte-equal to the fault-free run** — supervision must never perturb
  the math it protects;
* the wall-clock overhead of surviving the chaos (retries, backoff, pool
  replenishment) must stay within a budgeted factor of the clean run.

The report lands in ``BENCH_faults.json``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..parallel import resolve_executor
from ..parallel.faults import available_fault_plans
from .harness import Axis, history_digest, register, timed

#: chaos may cost this factor of the clean run plus the absolute slack —
#: real sleeps are capped (hang budget, wall-clock backoff cap), so the
#: overhead is dominated by retried task work and pool respawns
GATE_OVERHEAD_FACTOR = 5.0
GATE_OVERHEAD_SLACK_SECONDS = 10.0

#: backends every fault cell times (serial is the reference semantics;
#: process is where crashes/hangs are realized for real)
BENCH_BACKENDS = ("serial", "thread", "process")

#: supervision knobs of the chaos run: enough retries that the default
#: plans recover every fault at the bench workload size
BENCH_MAX_RETRIES = 4
BENCH_TASK_TIMEOUT = 60.0


def fault_preset(scale: float = 1.0, *, plan: Optional[str] = None,
                 seed: int = 0):
    """The bench workload: a small supervised mnist run, chaos optional."""
    from ..experiments.presets import preset_for, scaled

    return scaled(
        preset_for("mnist"),
        num_clients=8,
        num_rounds=max(2, int(round(3 * scale))),
        clients_per_round=4,
        local_iterations=max(1, int(round(2 * scale))),
        examples_per_client=max(8, int(round(20 * scale))),
        eval_clients=0,
        seed=seed,
        fault_plan=plan,
        max_retries=BENCH_MAX_RETRIES if plan is not None else 0,
        task_timeout=BENCH_TASK_TIMEOUT if plan is not None else None)


def _fault_totals(history) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for record in history.records:
        for key, value in record.extras.items():
            if key.startswith("fault_"):
                totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def measure_faults(backend: str, *, scale: float = 1.0,
                   plan: str = "chaos", seed: int = 0,
                   workers: int = 2) -> Dict[str, object]:
    """Time one backend's clean run and chaos run; digest both histories."""
    from ..experiments.runner import run_method

    cell: Dict[str, object] = {"backend": backend, "workers": workers}
    for label, preset in (("clean", fault_preset(scale, seed=seed)),
                          ("chaos", fault_preset(scale, plan=plan,
                                                 seed=seed))):
        with resolve_executor(backend, workers) as executor, \
                timed() as clock:
            history = run_method("fedlps", preset, executor=executor)
        cell[f"{label}_seconds"] = clock.seconds
        cell[f"{label}_digest"] = history_digest(history)
        if label == "chaos":
            cell["chaos_stripped_digest"] = history_digest(
                history, strip_prefix="fault_")
            cell["fault_totals"] = _fault_totals(history)
    # "seconds" is the family-wide headline column: the chaos run's cost
    cell["seconds"] = cell["chaos_seconds"]
    return cell


def _gate(cells: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Pass/fail: determinism across backends, clean equivalence, budget."""
    if not cells:
        return {"pass": False, "reason": "no backend cells"}
    chaos_digests = {cell["chaos_digest"] for cell in cells.values()}
    clean_digests = {cell["clean_digest"] for cell in cells.values()}
    serial = cells.get("serial") or next(iter(cells.values()))
    totals = serial["fault_totals"]
    injected = (totals.get("fault_retries", 0.0)
                + totals.get("fault_exhausted", 0.0))
    crashes = totals.get("fault_worker_restarts", 0.0)
    exhausted = totals.get("fault_exhausted", 0.0)
    # all-retries-succeed ⇒ stripped chaos history == fault-free history
    equivalent = all(cell["chaos_stripped_digest"] == cell["clean_digest"]
                     for cell in cells.values())
    budgets = {
        backend: float(cell["clean_seconds"]) * GATE_OVERHEAD_FACTOR
                 + GATE_OVERHEAD_SLACK_SECONDS
        for backend, cell in cells.items()}
    within_budget = all(float(cells[backend]["chaos_seconds"])
                        <= budgets[backend] for backend in cells)
    verdict = (len(chaos_digests) == 1 and len(clean_digests) == 1
               and injected > 0 and crashes > 0 and exhausted == 0
               and equivalent and within_budget)
    return {
        "pass": bool(verdict),
        "chaos_bit_identical": len(chaos_digests) == 1,
        "clean_bit_identical": len(clean_digests) == 1,
        "faults_injected": injected,
        "worker_restarts": crashes,
        "exhausted": exhausted,
        "clean_equivalent": equivalent,
        "within_budget": within_budget,
        "overhead_factor_budget": GATE_OVERHEAD_FACTOR,
        "overhead_slack_seconds": GATE_OVERHEAD_SLACK_SECONDS,
    }


def run(scale: float, *, plan: str,
        backends: Iterable[str] = BENCH_BACKENDS) -> Dict[str, object]:
    """Measure the fault report body at ``scale``.

    ``scale`` multiplies the workload (rounds, local iterations, shard
    size), the same convention as the other ``repro bench`` axes.
    """
    return {
        "fault_plan": plan,
        "max_retries": BENCH_MAX_RETRIES,
        "task_timeout": BENCH_TASK_TIMEOUT,
        "backends": {backend: measure_faults(backend, scale=scale, plan=plan)
                     for backend in backends},
    }


register(Axis(
    name="faults",
    doc=__doc__,
    gates="the chaos history is bit-identical on every backend, equals the "
          "fault-free run once fault_* extras are stripped, faults and "
          "crashes were actually injected with none exhausted, and chaos "
          f"costs at most {GATE_OVERHEAD_FACTOR:.0f}x clean + "
          f"{GATE_OVERHEAD_SLACK_SECONDS:.0f} s",
    run=run,
    gate=lambda report: _gate(report["backends"]),
    columns={"backend": "backend", "clean_s": "clean_seconds",
             "chaos_s": "chaos_seconds", "retries": "fault_retries",
             "restarts": "fault_worker_restarts",
             "timeouts": "fault_timeouts", "exhausted": "fault_exhausted"},
    cells=lambda report: [{**cell, **cell["fault_totals"]}
                          for cell in report["backends"].values()],
    options={"plan": dict(default="chaos", choices=available_fault_plans(),
                          help="fault plan of the chaos run")}))
