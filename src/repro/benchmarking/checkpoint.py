"""Checkpoint-cost benchmark: write/restore time and bytes vs fleet size.

``repro bench checkpoint`` pins the cost contract of
:mod:`repro.checkpoint`: a round-boundary checkpoint must be cheap enough
to take every round (write wall-clock under a second even at the 100k-client
rung) and must scale with the *cohort* that participated in the round being
saved — never with the fleet, and never with how many rounds came before.
A lazy 100k-client run's save carries the same few dozen client states as a
1k-client run's, so its bytes stay within a constant factor of the small
rung; the sixth save writes what the first one wrote, not six times as
much; and the directory holds at most twice the live blobs.

Each rung runs a short FedLPS run (the registry's heaviest per-client
state) with per-round checkpointing on a lazy virtual fleet, records the
manager's write timing and the bytes of every save, then restores the
latest checkpoint into a *fresh* core and times that too.  The report lands
in ``BENCH_checkpoint.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List

from ..checkpoint import CheckpointManager, restore_run
from ..systems.metrics import TrainingHistory
from .fleet import build_trainer, fleet_preset, scaled_ladder
from .harness import Axis, register, timed

#: the fleet-size rungs at scale 1.0 (small reference + the 100k contract)
LADDER = (1_000, 100_000)

#: rounds per rung: enough saves for "flat in the round index" to mean
#: something (at the parent layout the sixth save was ~6x the first)
ROUNDS = 6

#: write budget of the top rung: checkpointing every round must stay cheap
GATE_WRITE_SECONDS = 1.0

#: O(cohort) slack: the top rung's bytes may exceed the small rung's by at
#: most this factor (or this many absolute bytes, whichever is larger) —
#: a 100x fleet with the same cohort must not produce ~100x the checkpoint;
#: the same factor bounds the last save against the first, and the
#: directory against its live blobs
GATE_BYTES_FACTOR = 2.0
GATE_BYTES_SLACK = 1_000_000


class _RecordingManager(CheckpointManager):
    """A manager that remembers the bytes of every save, not just the last."""

    def __init__(self, directory) -> None:
        # keep=1: the directory then holds exactly what the newest head
        # references, which is what the garbage bound is stated for
        super().__init__(directory, every=1, keep=1)
        self.bytes_per_save: List[int] = []

    def save(self, checkpoint):
        path = super().save(checkpoint)
        self.bytes_per_save.append(self.last_bytes)
        return path


def measure_checkpoint(num_clients: int) -> Dict[str, object]:
    """Write + restore cost of checkpointing one rung's training run.

    Runs ``ROUNDS`` rounds with a per-round checkpointer (timings come from
    the manager's counters, so they measure exactly the capture+serialize+
    fsync path a real run pays), then rebuilds a fresh trainer and times
    restoring the final checkpoint into it.
    """
    from ..server.scheduler import build_scheduler

    preset = fleet_preset(num_clients, num_rounds=ROUNDS,
                          clients_per_round=32, eval_clients=0)
    core = build_trainer(preset, "fedlps")
    with tempfile.TemporaryDirectory() as tmp:
        manager = _RecordingManager(tmp)
        scheduler = build_scheduler(core.config)
        with timed() as run_clock:
            history = scheduler.run(core, checkpointer=manager)
        checkpoint = manager.latest()
        directory_bytes = sum(entry.stat().st_size
                              for entry in Path(tmp).iterdir())

        fresh = build_trainer(preset, "fedlps")
        fresh_scheduler = build_scheduler(fresh.config)
        fresh.strategy.setup(fresh.context)
        fresh_scheduler.reset()
        restored = TrainingHistory(method=fresh.strategy.name,
                                   dataset=fresh.dataset.name)
        with timed() as restore_clock:
            next_round = restore_run(fresh, fresh_scheduler, checkpoint,
                                     restored)
    assert next_round == preset.num_rounds
    assert len(restored.records) == len(history.records)
    return {
        "num_clients": num_clients,
        "rounds": preset.num_rounds,
        "cohort_size": min(32, num_clients),
        "run_seconds": run_clock.seconds,
        "seconds": manager.last_save_seconds,
        "mean_write_seconds": manager.total_save_seconds
                              / max(manager.saves, 1),
        "restore_seconds": restore_clock.seconds,
        "first_save_bytes": manager.bytes_per_save[0],
        "last_save_bytes": manager.bytes_per_save[-1],
        "directory_bytes": directory_bytes,
        "live_blob_bytes": manager.live_bytes,
        "client_states": len(checkpoint.client_states),
        "queued_events": len(checkpoint.scheduler.get("events", ())),
    }


def _gate(cells: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Pass/fail: the top rung meets the write budget and stays O(cohort)."""
    rungs = sorted(cells.values(), key=lambda cell: cell["num_clients"])
    small, top = rungs[0], rungs[-1]
    write_seconds = float(top["seconds"])
    bytes_small = int(small["last_save_bytes"])
    bytes_top = int(top["last_save_bytes"])
    bytes_budget = max(int(bytes_small * GATE_BYTES_FACTOR),
                       bytes_small + GATE_BYTES_SLACK)
    # the state entries a checkpoint carries must track participation, not
    # fleet size: rounds * cohort is the hard upper bound
    participation_bound = int(top["rounds"]) * int(top["cohort_size"])
    sparse = int(top["client_states"]) <= participation_bound
    # flat in the round index: a save writes the round's cohort, not the
    # run's history (the first save is exactly one cohort's blobs + a head)
    flat = all(int(cell["last_save_bytes"])
               <= GATE_BYTES_FACTOR * int(cell["first_save_bytes"])
               for cell in rungs)
    # bounded garbage: superseded blobs are compacted away
    compact = all(int(cell["directory_bytes"])
                  <= GATE_BYTES_FACTOR * int(cell["live_blob_bytes"])
                  + int(cell["first_save_bytes"])
                  for cell in rungs)
    verdict = (write_seconds <= GATE_WRITE_SECONDS
               and bytes_top <= bytes_budget and sparse and flat and compact)
    return {
        "pass": bool(verdict),
        "top_size": top["num_clients"],
        "write_seconds": write_seconds,
        "write_seconds_budget": GATE_WRITE_SECONDS,
        "last_save_bytes": bytes_top,
        "bytes_budget": bytes_budget,
        "bytes_small_rung": bytes_small,
        "o_cohort_states": sparse,
        "flat_in_rounds": flat,
        "bounded_garbage": compact,
    }


def run(scale: float) -> Dict[str, object]:
    """Measure the checkpoint report body at ``scale``.

    ``scale`` multiplies the fleet-size rungs (1k and 100k at 1.0), the same
    convention as the ``fleet`` axis.
    """
    return {"ladder": {str(size): measure_checkpoint(size)
                       for size in scaled_ladder(LADDER, scale)}}


register(Axis(
    name="checkpoint",
    doc=__doc__,
    gates=f"the top rung's write stays within {GATE_WRITE_SECONDS} s, its "
          "bytes and client states stay O(cohort) — within a constant "
          "factor of the small rung — and on every rung the last save "
          "writes at most twice the first and the directory holds at most "
          "twice the live blobs plus one cohort",
    run=run,
    gate=lambda report: _gate(report["ladder"]),
    columns={"fleet": "num_clients", "write_s": "seconds",
             "restore_s": "restore_seconds", "first_B": "first_save_bytes",
             "last_B": "last_save_bytes", "dir_B": "directory_bytes",
             "states": "client_states", "events": "queued_events"},
    cells=lambda report: report["ladder"].values()))
