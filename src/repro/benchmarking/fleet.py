"""Fleet-scale benchmark: construction cost vs fleet size.

``repro bench fleet`` measures what the virtual client fleet was
built for: the cost of standing up a federation must scale with the
*cohort* a round dispatches, not with the number of clients that exist.
For each fleet size on a ladder the benchmark times the full construction
path — dataset, device fleet, server core, strategy setup, first selection
and the materialization of the first cohort — and records the peak traced
allocation.  At the ladder's top (100k clients at scale 1.0) the gate pins
the contract: under a second and under 100 MB to first dispatch, where
materializing every client's shard would be O(GB)
(``projected_eager_shard_mb``).  A final smoke cell (1M clients at scale 1.0)
runs selection plus two full training rounds.

The report lands in ``BENCH_fleet.json``.
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Dict, Iterable, List, Optional

from ..baselines import build_strategy
from ..experiments import preset_for, run_method, scaled
from ..federated import FederatedTrainer
from .harness import Axis, register, scalars, timed

#: the fleet-size ladder at scale 1.0
LADDER = (1_000, 10_000, 100_000)

#: the selection-plus-two-rounds smoke size at scale 1.0
SMOKE_CLIENTS = 1_000_000

#: gate thresholds for the ladder's largest cell (the 100k contract)
GATE_SECONDS = 1.0
GATE_MEGABYTES = 100.0


def fleet_preset(num_clients: int, *, num_rounds: int = 2,
                 clients_per_round: int = 32, eval_clients: int = 32):
    """The benchmark federation at ``num_clients`` (tiny per-client data)."""
    return scaled(preset_for("mnist"),
                  num_clients=num_clients,
                  examples_per_client=16,
                  num_rounds=num_rounds,
                  clients_per_round=min(clients_per_round, num_clients),
                  local_iterations=1,
                  eval_clients=min(eval_clients, num_clients),
                  seed=7)


def scaled_ladder(ladder: Iterable[int], scale: float) -> List[int]:
    """``ladder`` x ``scale``, floored at 8 clients, duplicates dropped.

    Dedup preserves order: tiny scales can collapse neighbouring rungs onto
    the same size, and silently overwriting a cell would make the report
    look complete when a rung was dropped.
    """
    return list(dict.fromkeys(max(8, int(round(step * scale)))
                              for step in ladder))


def build_trainer(preset, method: str = "fedavg") -> FederatedTrainer:
    """A ``method`` trainer over ``preset``'s federation, nothing run yet."""
    from ..experiments.presets import build_experiment

    dataset, model_builder, config, fleet = build_experiment(preset)
    return FederatedTrainer(build_strategy(method), dataset, model_builder,
                            config=config, fleet=fleet)


def _rss_mb() -> Optional[float]:
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS
        return usage / 1024.0 if sys.platform != "darwin" else usage / 2**20
    except Exception:  # pragma: no cover - platform without resource
        return None


def measure_construction(num_clients: int) -> Dict[str, object]:
    """Time/memory from nothing to the first dispatched cohort.

    Covers dataset + device fleet + server core construction, strategy
    setup, round-0 selection and materialization of every selected client —
    i.e. everything a real run pays before the first local update starts.
    """
    preset = fleet_preset(num_clients)
    tracemalloc.start()
    with timed() as clock:
        core = build_trainer(preset)
        core.strategy.setup(core.context)
        selected = core.select_clients(0)
        cohort = [core.clients[cid] for cid in selected]
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    materializations = core.dataset.clients.materializations
    shard_bytes = sum(part.x.nbytes + part.y.nbytes
                      for client in cohort
                      for part in (client.data.train, client.data.test))
    per_client = shard_bytes / max(len(cohort), 1)
    return {
        "num_clients": num_clients,
        "seconds_to_first_dispatch": clock.seconds,
        "traced_peak_mb": peak / 2**20,
        "rss_max_mb": _rss_mb(),
        "cohort_size": len(selected),
        "shard_materializations": materializations,
        "state_entries": len(core.clients.state_store),
        # what eagerly materializing every shard would allocate, projected
        # from the measured per-client shard footprint
        "projected_eager_shard_mb": per_client * num_clients / 2**20,
    }


def measure_smoke(num_clients: int) -> Dict[str, object]:
    """Selection + two full training rounds on a virtual fleet."""
    preset = fleet_preset(num_clients, num_rounds=2, clients_per_round=16,
                          eval_clients=16)
    with timed() as clock:
        history = run_method("fedavg", preset)
    return {
        "num_clients": num_clients,
        "rounds": preset.num_rounds,
        "seconds": clock.seconds,
        "final_accuracy": history.final_accuracy(),
        "rounds_completed": len(history.records),
    }


def _gate(cells: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Pass/fail: the ladder's top cell meets the O(cohort) contract."""
    top = max(cells.values(), key=lambda cell: cell["num_clients"])
    seconds = float(top["seconds_to_first_dispatch"])
    peak_mb = float(top["traced_peak_mb"])
    # memory/time must track the cohort, not the fleet: untouched clients
    # are never materialized
    cohort_bound = int(top["cohort_size"])
    sparse = (int(top["shard_materializations"]) <= cohort_bound
              and int(top["state_entries"]) <= cohort_bound)
    verdict = (seconds <= GATE_SECONDS and peak_mb <= GATE_MEGABYTES
               and sparse)
    return {
        "pass": bool(verdict),
        "top_size": top["num_clients"],
        "seconds": seconds,
        "seconds_budget": GATE_SECONDS,
        "traced_peak_mb": peak_mb,
        "megabytes_budget": GATE_MEGABYTES,
        "o_cohort_materialization": sparse,
    }


def run(scale: float) -> Dict[str, object]:
    """Measure the fleet report body at ``scale``.

    ``scale`` multiplies the fleet-size ladder (1k/10k/100k at 1.0) and the
    smoke size (1M at 1.0).
    """
    return {
        "ladder": {str(size): measure_construction(size)
                   for size in scaled_ladder(LADDER, scale)},
        "smoke": measure_smoke(max(16, int(round(SMOKE_CLIENTS * scale)))),
    }


register(Axis(
    name="fleet",
    doc=__doc__,
    gates=f"the top rung reaches first dispatch within {GATE_SECONDS} s and "
          f"{GATE_MEGABYTES:.0f} MB traced peak, materializing shards and "
          "state for the cohort only",
    run=run,
    gate=lambda report: _gate(report["ladder"]),
    columns={"fleet": "num_clients",
             "dispatch_s": "seconds_to_first_dispatch",
             "peak_mb": "traced_peak_mb",
             "shards": "shard_materializations",
             "eager_proj_mb": "projected_eager_shard_mb"},
    cells=lambda report: report["ladder"].values(),
    extra_lines=lambda report: [f"smoke: {scalars(report['smoke'])}"]))
