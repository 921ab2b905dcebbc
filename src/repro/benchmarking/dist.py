"""Distributed-execution benchmark: socket rounds and sharded reduction.

``repro bench dist`` exercises the two halves of the distributed
stack (:mod:`repro.parallel.distributed`, :mod:`repro.parallel.sharding`)
with gates on both:

* **Socket rounds** — the fan-out workload runs on a real
  :class:`~repro.parallel.distributed.SocketExecutor` (localhost
  subprocess workers, real TCP frames) once per reducer shard count, and
  every history must be **bit-identical** to the serial unsharded
  reference.  Wall-clock and transport bytes ride along as the
  trajectory numbers.
* **Shard balance** — per-shard aggregation bytes must shrink ~1/N with
  the shard count.  The real model's manifest is too lumpy to gate on
  (one fc matrix dominates MNIST's byte mass, so a 4-way split of 8 keys
  is whatever the key hash makes it), so the balance gate runs the
  production reduction kernel over a synthetic manifest of many
  equal-size keys — the regime parameter servers are built for — and
  checks the largest shard against its fair 1/N share.  The real runs'
  per-shard ledgers are reported alongside, un-gated.

The report lands in ``BENCH_dist.json``.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from ..experiments import run_method, scaled
from ..parallel import SocketExecutor
from ..parallel.sharding import (reset_shard_stats, shard_plan, shard_stats,
                                 sharded_weighted_average)
from .fanout import BENCH_METHOD, fanout_preset
from .harness import Axis, register, timed, workload

#: reducer shard counts every distributed bench sweeps
SHARD_COUNTS = (1, 2, 4)

#: localhost socket workers backing the timed runs
DIST_WORKERS = 2

#: synthetic balance manifest: many equal keys, the parameter-server regime
BALANCE_KEYS = 64
BALANCE_KEY_ELEMENTS = 256
BALANCE_UPDATES = 8

#: the largest shard may exceed its fair 1/N byte share by this fraction
GATE_BALANCE_TOLERANCE = 0.25


def measure_dist_cell(preset, shards: int, reference) -> Dict[str, object]:
    """One socket run at ``shards`` reducer shards, checked bit-identical."""
    reset_shard_stats()
    with SocketExecutor(DIST_WORKERS) as executor:
        executor.warm_up()
        with timed() as clock:
            history = run_method(BENCH_METHOD,
                                 scaled(preset, reducer_shards=shards),
                                 executor=executor)
        sent, received = executor.bytes_sent, executor.bytes_received
    stats = shard_stats()
    return {
        "reducer_shards": shards,
        "wall_seconds": clock.seconds,
        "transport_sent_bytes": sent,
        "transport_received_bytes": received,
        "reduce_bytes": stats["reduce_bytes"],
        # the sharded path only engages past one shard; at 1 the ledger is
        # legitimately empty (the unsharded kernels run directly)
        "per_shard_bytes": stats["per_shard_bytes"].get(shards),
        "final_accuracy": history.final_accuracy(),
        "matches_serial_reference": history.to_dict() == reference.to_dict(),
    }


def measure_shard_balance(shard_counts: Iterable[int] = SHARD_COUNTS,
                          ) -> Dict[str, object]:
    """Per-shard byte shares of the production reducer on an even manifest.

    Runs :func:`sharded_weighted_average` (the same code path the server
    dispatches through) over ``BALANCE_KEYS`` equal-size float64 keys and
    ``BALANCE_UPDATES`` updates, and reports each shard count's per-shard
    byte ledger as fractions of the total.
    """
    rng = np.random.default_rng(0)
    keys = [f"layer{index:03d}.W" for index in range(BALANCE_KEYS)]
    updates = [{key: rng.standard_normal(BALANCE_KEY_ELEMENTS)
                for key in keys} for _ in range(BALANCE_UPDATES)]
    weights = [1.0] * BALANCE_UPDATES
    cells: Dict[str, Dict[str, object]] = {}
    for shards in shard_counts:
        with shard_plan(shards) as plan:
            sharded_weighted_average(plan, updates, weights)
            per_shard = list(plan.per_shard_bytes)
        total = sum(per_shard)
        fair = 1.0 / shards
        max_fraction = max(per_shard) / total if total else None
        cells[str(shards)] = {
            "per_shard_bytes": per_shard,
            "total_bytes": total,
            "max_shard_fraction": max_fraction,
            "fair_fraction": fair,
            "within_tolerance": (max_fraction is not None
                                 and max_fraction
                                 <= fair * (1.0 + GATE_BALANCE_TOLERANCE)),
        }
    return {
        "manifest_keys": BALANCE_KEYS,
        "key_elements": BALANCE_KEY_ELEMENTS,
        "updates": BALANCE_UPDATES,
        "tolerance": GATE_BALANCE_TOLERANCE,
        "cells": cells,
    }


def _gate(cells: Dict[str, Dict[str, object]],
          balance: Dict[str, object]) -> Dict[str, object]:
    """Pass/fail: socket histories bit-identical, shard bytes ~1/N."""
    identical = all(cell["matches_serial_reference"]
                    for cell in cells.values())
    balanced = all(cell["within_tolerance"]
                   for cell in balance["cells"].values())
    return {
        "pass": bool(identical and balanced),
        "bit_identical": identical,
        "shard_bytes_scale": balanced,
        "balance_tolerance": balance["tolerance"],
        "max_shard_fractions": {
            count: cell["max_shard_fraction"]
            for count, cell in balance["cells"].items()},
    }


def run(scale: float) -> Dict[str, object]:
    """Measure the distributed report body at ``scale``.

    ``scale`` multiplies the fan-out workload; one serial unsharded run
    anchors the bit-identity check for every socket cell.
    """
    preset = fanout_preset(scale)
    reference = run_method(BENCH_METHOD, preset)
    return {
        "method": BENCH_METHOD,
        "backend": "socket",
        "workers": DIST_WORKERS,
        "workload": workload(preset),
        "serial_reference": {
            "final_accuracy": reference.final_accuracy(),
            "best_accuracy": reference.best_accuracy(),
        },
        "shard_counts": list(SHARD_COUNTS),
        "cells": {str(shards): measure_dist_cell(preset, shards, reference)
                  for shards in SHARD_COUNTS},
        "shard_balance": measure_shard_balance(SHARD_COUNTS),
    }


def _cells(report: Dict[str, object]):
    balance = report["shard_balance"]["cells"]
    return [{**cell,
             "max_shard_fraction": balance[count]["max_shard_fraction"]}
            for count, cell in report["cells"].items()]


register(Axis(
    name="dist",
    doc=__doc__,
    gates="every socket history is bit-identical to the serial unsharded "
          "reference and the largest shard stays within "
          f"{GATE_BALANCE_TOLERANCE:.0%} of its fair 1/N byte share",
    run=run,
    gate=lambda report: _gate(report["cells"], report["shard_balance"]),
    columns={"shards": "reducer_shards", "wall_s": "wall_seconds",
             "sent_B": "transport_sent_bytes",
             "recv_B": "transport_received_bytes",
             "reduce_B": "reduce_bytes", "max_frac": "max_shard_fraction",
             "identical": "matches_serial_reference"},
    cells=_cells))
