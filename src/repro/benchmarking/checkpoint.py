"""Checkpoint-cost benchmark: write/restore time and bytes vs fleet size.

``repro bench checkpoint`` pins the cost contract of
:mod:`repro.checkpoint`: a round-boundary checkpoint must be cheap enough
to take every round (write wall-clock under a second even at the 100k-client
rung) and must scale with the *cohort* that actually participated, never
with the fleet — a lazy 100k-client run's checkpoint carries the same few
dozen client states as a 1k-client run's, so its bytes on disk stay within
a constant factor of the small rung instead of growing 100x.

Each rung runs a short training run with per-round checkpointing on a lazy
virtual fleet, records the manager's write timing/bytes, then restores the
latest checkpoint into a *fresh* core and times that too.  The report lands
in ``BENCH_checkpoint.json``.
"""

from __future__ import annotations

import tempfile
from typing import Dict

from ..checkpoint import CheckpointManager, restore_run
from ..systems.metrics import TrainingHistory
from .fleet import build_trainer, fleet_preset, scaled_ladder
from .harness import Axis, register, timed

#: the fleet-size rungs at scale 1.0 (small reference + the 100k contract)
LADDER = (1_000, 100_000)

#: write budget of the top rung: checkpointing every round must stay cheap
GATE_WRITE_SECONDS = 1.0

#: O(cohort) slack: the top rung's bytes may exceed the small rung's by at
#: most this factor (or this many absolute bytes, whichever is larger) —
#: a 100x fleet with the same cohort must not produce ~100x the checkpoint
GATE_BYTES_FACTOR = 2.0
GATE_BYTES_SLACK = 1_000_000


def measure_checkpoint(num_clients: int) -> Dict[str, object]:
    """Write + restore cost of checkpointing one rung's training run.

    Runs two rounds with a per-round checkpointer (timings come from the
    manager's counters, so they measure exactly the capture+serialize+fsync
    path a real run pays), then rebuilds a fresh trainer and times restoring
    the final checkpoint into it.
    """
    from ..server.scheduler import build_scheduler

    preset = fleet_preset(num_clients, num_rounds=2, clients_per_round=32,
                          eval_clients=0)
    trainer = build_trainer(preset)
    core = trainer.core
    with tempfile.TemporaryDirectory() as tmp:
        manager = CheckpointManager(tmp, every=1)
        scheduler = build_scheduler(core.config)
        with timed() as run_clock:
            history = scheduler.run(core, checkpointer=manager)
        checkpoint = manager.latest()

        fresh = build_trainer(preset)
        fresh_scheduler = build_scheduler(fresh.core.config)
        fresh.core.strategy.setup(fresh.core.context)
        fresh_scheduler.reset()
        restored = TrainingHistory(method=fresh.core.strategy.name,
                                   dataset=fresh.core.dataset.name)
        with timed() as restore_clock:
            next_round = restore_run(fresh.core, fresh_scheduler, checkpoint,
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
        "bytes_on_disk": manager.last_bytes,
        "client_states": len(checkpoint.client_states),
        "queued_events": len(checkpoint.scheduler.get("events", ())),
    }


def _gate(cells: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Pass/fail: the top rung meets the write budget and stays O(cohort)."""
    rungs = sorted(cells.values(), key=lambda cell: cell["num_clients"])
    small, top = rungs[0], rungs[-1]
    write_seconds = float(top["seconds"])
    bytes_small = int(small["bytes_on_disk"])
    bytes_top = int(top["bytes_on_disk"])
    bytes_budget = max(int(bytes_small * GATE_BYTES_FACTOR),
                       bytes_small + GATE_BYTES_SLACK)
    # the state entries a checkpoint carries must track participation, not
    # fleet size: rounds * cohort is the hard upper bound
    participation_bound = int(top["rounds"]) * int(top["cohort_size"])
    sparse = int(top["client_states"]) <= participation_bound
    verdict = (write_seconds <= GATE_WRITE_SECONDS
               and bytes_top <= bytes_budget and sparse)
    return {
        "pass": bool(verdict),
        "top_size": top["num_clients"],
        "write_seconds": write_seconds,
        "write_seconds_budget": GATE_WRITE_SECONDS,
        "bytes_on_disk": bytes_top,
        "bytes_budget": bytes_budget,
        "bytes_small_rung": bytes_small,
        "o_cohort_states": sparse,
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
    gates=f"the top rung's write stays within {GATE_WRITE_SECONDS} s and "
          "its bytes and client states stay O(cohort) — within a constant "
          "factor of the small rung",
    run=run,
    gate=lambda report: _gate(report["ladder"]),
    columns={"fleet": "num_clients", "write_s": "seconds",
             "restore_s": "restore_seconds", "bytes": "bytes_on_disk",
             "states": "client_states", "events": "queued_events"},
    cells=lambda report: report["ladder"].values()))
