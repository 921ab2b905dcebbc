"""Running one method on one preset, and the grids of such runs.

Two levels of parallelism compose here:

* :func:`run_method` accepts an ``executor`` that the trainer uses to fan
  per-round client updates and evaluation across workers;
* :func:`run_grid` (method × dataset × any preset-field axes) dispatches
  *whole* (method, preset) runs as independent jobs on an executor through
  :func:`run_jobs`, which is the better fit for figure/table grids (each job
  is a full serial simulation, so there is no cross-worker chatter at all).

Both consult an optional :class:`~repro.experiments.cache.ResultCache`
so repeated figure builds only pay for the runs whose spec actually changed.
"""

from __future__ import annotations

import concurrent.futures
from itertools import product
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..baselines import build_strategy
from ..federated import FederatedTrainer
from ..parallel import Executor, SerialExecutor
from ..parallel.supervision import RetryPolicy, retry_call
from ..systems import TrainingHistory
from ..util import non_negative_int
from .cache import ResultCache, spec_stem
from .presets import ExperimentPreset, build_experiment, preset_for, scaled

#: a fully-specified sweep job: (method, preset, strategy constructor kwargs)
JobSpec = Tuple[str, ExperimentPreset, Optional[dict]]


def run_method(method: str, preset: ExperimentPreset, *,
               strategy_kwargs: Optional[dict] = None,
               executor: Optional[Executor] = None,
               cache: Optional[ResultCache] = None,
               checkpoint_dir: Optional[Union[str, Path]] = None,
               checkpoint_every: int = 1,
               resume: bool = False,
               stop_after_round: Optional[int] = None) -> TrainingHistory:
    """Run one method on one experiment preset and return its history.

    ``method`` is a registry name (see ``repro.baselines.available_strategies``)
    and ``strategy_kwargs`` its constructor overrides.  ``executor``
    parallelizes the per-round client work inside the trainer (default:
    inline, the serial backend) — results are bit-identical on every backend.

    ``checkpoint_dir`` turns on round-boundary checkpointing (see
    :mod:`repro.checkpoint`); with ``resume=True`` the run continues from
    the directory's latest checkpoint when one exists (bit-identical to an
    uninterrupted run) and starts fresh otherwise, so retrying callers can
    always pass it.  ``stop_after_round`` deterministically interrupts the
    run after checkpointing that round (testing/CI preemption).
    """
    if cache is not None:
        cached = cache.get(method, preset, strategy_kwargs)
        if cached is not None:
            return cached
    dataset, model_builder, config, fleet = build_experiment(preset)
    strategy = build_strategy(method, **(strategy_kwargs or {}))
    trainer = FederatedTrainer(strategy, dataset, model_builder, config=config,
                               fleet=fleet, executor=executor)
    history = trainer.run(
        checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        checkpoint_every=checkpoint_every,
        resume_from="auto" if resume else None,
        stop_after_round=stop_after_round)
    history.dataset = preset.dataset
    if cache is not None:
        cache.put(method, preset, strategy_kwargs, history)
    return history


def sweep_cell_dir(checkpoint_root: Union[str, Path], spec: JobSpec) -> Path:
    """The per-cell checkpoint directory of one sweep job.

    Keyed by the same content hash as the result cache, so a retried sweep
    finds exactly its own cells — and a cell whose spec changed (different
    seed, rounds, scenario) gets a fresh directory instead of tripping the
    checkpoint digest check.
    """
    return Path(checkpoint_root) / spec_stem(*spec)


#: payload of one sweep job: (spec, cell checkpoint dir or None, retries)
_SweepJob = Tuple[JobSpec, Optional[str], int]


def _sweep_job(payload: _SweepJob) -> TrainingHistory:
    """Run one sweep job with in-worker retries from its last checkpoint.

    Module-level so process workers can import it.  Retrying must live
    *inside* the job function: executor backends propagate a worker
    exception straight to the caller, which would take the whole sweep down
    with it.  The retry loop is the shared
    :func:`~repro.parallel.supervision.retry_call` machinery (bounded
    attempts, capped backoff); every attempt resumes from the cell's latest
    checkpoint, so attempt N+1 repeats only the rounds attempt N had not
    yet persisted — and the schedulers' emergency checkpoint means a crash
    mid-round costs at most the crashed round.  The final attempt re-raises
    (with ``retries=0`` that is the only attempt: a plain call).
    """
    (method, preset, strategy_kwargs), cell_dir, retries = payload
    return retry_call(
        lambda: run_method(method, preset, strategy_kwargs=strategy_kwargs,
                           checkpoint_dir=cell_dir,
                           resume=cell_dir is not None),
        policy=RetryPolicy(max_retries=retries))


def run_jobs(specs: List[JobSpec], *, executor: Optional[Executor] = None,
             cache: Optional[ResultCache] = None,
             checkpoint_root: Optional[Union[str, Path]] = None,
             retries: int = 0) -> List[TrainingHistory]:
    """Run every job spec, in parallel where possible, returning input order.

    Cache hits are filled in without dispatching a job; misses are submitted
    to the executor (default: inline, the serial backend, which runs each
    job as it is submitted) and every job that succeeds is written back to
    the cache as its result is collected, in completion order.  A failed
    job does not cost the others: once every job has finished, the error of
    the failed job earliest in ``specs`` is raised.

    With ``checkpoint_root`` set, each cell checkpoints into its own
    spec-keyed subdirectory and failed cells are retried up to ``retries``
    times *inside the worker*, resuming from their last checkpoint — a
    transient failure in one cell costs at most that cell's unpersisted
    rounds, never the sweep.  (``retries`` without a root still retries,
    just from round 0.)
    """
    non_negative_int(retries, "retries")
    results: Dict[int, TrainingHistory] = {}
    pending: List[JobSpec] = []
    pending_positions: List[int] = []
    for position, spec in enumerate(specs):
        hit = cache.get(*spec) if cache is not None else None
        if hit is not None:
            results[position] = hit
        else:
            pending.append(spec)
            pending_positions.append(position)
    jobs: List[_SweepJob] = [
        (spec,
         str(sweep_cell_dir(checkpoint_root, spec))
         if checkpoint_root is not None else None,
         retries)
        for spec in pending]
    executor = executor or SerialExecutor()
    futures = {executor.submit(_sweep_job, job): index
               for index, job in enumerate(jobs)}
    errors: Dict[int, BaseException] = {}
    for future in concurrent.futures.as_completed(futures):
        index = futures[future]
        try:
            history = future.result()
        except Exception as error:  # noqa: BLE001 - raised after the rest
            errors[index] = error
            continue
        method, preset, strategy_kwargs = pending[index]
        if cache is not None:
            cache.put(method, preset, strategy_kwargs, history)
        results[pending_positions[index]] = history
    if errors:
        raise errors[min(errors)]
    return [results[position] for position in range(len(specs))]


def run_grid(methods: Iterable[Union[str, Tuple[str, str, Optional[dict]]]],
             datasets: Iterable[str],
             axes: Optional[Dict[str, Iterable]] = None, *,
             overrides: Optional[dict] = None,
             executor: Optional[Executor] = None,
             cache: Optional[ResultCache] = None,
             checkpoint_root: Optional[Union[str, Path]] = None,
             retries: int = 0) -> Dict[tuple, TrainingHistory]:
    """Run the method × dataset × axes grid behind the tables and figures.

    ``axes`` maps preset fields to the values to sweep, e.g. ``{"scenario":
    [...], "codec": [...]}``.  Keys are ``(method, dataset, *axis values)``,
    method outermost, then dataset, then the axes in their given order.  A
    method is a registry name or a ``(label, name, strategy_kwargs)`` variant
    whose key carries the label and whose cache key the name and kwargs.
    Each cell is ``scaled(preset_for(dataset), **overrides)`` with its axis
    values on top: an axis outranks the same key in ``overrides``.  Every
    axis rides the preset, so cells cache-key and checkpoint like any run;
    with an executor the grid's jobs run concurrently, and with a cache
    only the specs not seen before are executed.

    Note that ``summarize``'s ``time_to_accuracy_seconds`` targets 90% of
    each run's *own* best accuracy — comparable across scenarios, but an
    uneven bar between aggregation modes.  For sync-vs-async comparisons
    against a *shared* target use :func:`~repro.experiments.tables
    .scenario_table` (its ``time_to_sync_target_seconds`` column).
    """
    axes = axes or {}
    shared = {name: value for name, value in (overrides or {}).items()
              if name not in axes}
    entries = [(entry, entry, None) if isinstance(entry, str) else entry
               for entry in methods]
    grid = list(product(entries, datasets, *axes.values()))
    specs: List[JobSpec] = [
        (name, scaled(preset_for(dataset), **shared,
                      **dict(zip(axes, values))), strategy_kwargs)
        for (_, name, strategy_kwargs), dataset, *values in grid]
    histories = run_jobs(specs, executor=executor, cache=cache,
                         checkpoint_root=checkpoint_root, retries=retries)
    return {(label, *cell): history
            for ((label, _, _), *cell), history in zip(grid, histories)}


def summarize(history: TrainingHistory, *, last_rounds: int = 3,
              tta_fraction: float = 0.9) -> Dict[str, float]:
    """Headline numbers extracted from one run (the Table I columns).

    ``time_to_accuracy_seconds`` is the simulated scenario wall-clock until
    the run first reaches ``tta_fraction`` of its own best accuracy (None if
    it never does), which stays comparable across scenarios that drop
    clients or idle until deadlines.
    """
    # wire byte totals exist only for runs under a non-dense codec (the
    # per-round reports live in RoundRecord.extras); None otherwise
    wire_upload = sum(record.extras.get("wire_upload_bytes", 0.0)
                      for record in history.records)
    return {
        "accuracy": history.final_accuracy(last_rounds),
        "best_accuracy": history.best_accuracy(),
        "total_flops": history.total_flops,
        "total_time_seconds": history.total_time_seconds,
        "total_upload_bytes": history.total_upload_bytes,
        "wire_upload_bytes": wire_upload if wire_upload else None,
        "sim_time_seconds": history.total_sim_time,
        "time_to_accuracy_seconds": history.time_to_fraction(tta_fraction),
        "dropped_clients": history.total_dropped,
        "straggler_drops": history.total_stragglers,
        "mean_staleness": history.mean_staleness,
    }


def summary_row(history: TrainingHistory, columns: Iterable[str],
                **labels) -> Dict[str, object]:
    """One table or figure row: the cell's ``labels``, then ``columns`` of
    :func:`summarize`."""
    summary = summarize(history)
    return {**labels, **{name: summary[name] for name in columns}}


def format_rows(rows: List[Dict[str, object]], columns: List[str]) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    header = " | ".join(f"{name:>18s}" for name in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for name in columns:
            value = row.get(name, "")
            if value is None:
                cells.append(f"{'-':>18s}")
            elif isinstance(value, float):
                cells.append(f"{value:>18.4g}")
            else:
                cells.append(f"{str(value):>18s}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)
