"""The benchmark's workload registry.

Five FedLPS runs, each built with ``scaled(preset_for(...))`` — nothing the
program does not already ship — and each chosen so that a change to one
layer moves it while at least one other workload bypasses that layer.  The
``why`` strings are the ones ``BENCHMARK.json`` carries; ``README.md`` has
the longer rationale and the measured shares.

This module imports nothing from ``repro`` at import time: ``run.py`` reads
the names from it before any child process exists, and must keep working
(far enough to fail cleanly) in a checkout that has no ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

#: workers of every pool backend — a constant, not ``nproc`` (recorded only)
WORKERS = 2
#: the heaviest state flow of the registry: importance, patterns, P-UCBV
METHOD = "fedlps"
#: rounds of a ``--smoke`` run (shape check only, never timed or pinned)
SMOKE_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One pinned run shape and the twin that must reproduce its history."""

    name: str
    why: str
    #: ``preset_for`` key and the ``scaled`` overrides on top of it
    base: str
    overrides: Dict[str, object]
    #: executor backend; None runs in-process with no executor at all
    backend: Optional[str] = None
    #: checkpoint every round, interrupt half-way, rebuild and resume
    checkpoint: bool = False
    #: field replacements that turn this workload into its twin: the same
    #: federation through the reference code path, whose history digest
    #: must equal this workload's
    twin: Dict[str, object] = field(default_factory=dict)

    def preset(self, seed: int, *, rounds: Optional[int] = None):
        from repro.experiments.presets import preset_for, scaled

        overrides = dict(self.overrides, seed=seed)
        if rounds is not None:
            overrides["num_rounds"] = rounds
        return scaled(preset_for(self.base), **overrides)

    def twin_workload(self) -> "Workload":
        return replace(self, name=self.name + "+twin", twin={}, **self.twin)


_CIFAR = {"num_rounds": 22, "clients_per_round": 8}
_BATCHED = {"num_clients": 64, "clients_per_round": 16, "num_rounds": 38,
            "local_iterations": 16, "batch_size": 1,
            "examples_per_client": 16, "eval_clients": 16,
            "batch_cohort": True}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="serial-mnist",
        why="plain single-worker baseline: compute-bound in the nn/core "
            "loop path with parallel and checkpoint idle, so a transport "
            "or checkpoint change must not move it",
        base="mnist",
        overrides={"num_rounds": 45, "clients_per_round": 4},
        # the CLI's --backend serial: per-task payloads through a
        # SerialExecutor instead of the in-process loop
        twin={"backend": "serial"}),
    Workload(
        name="process-cifar10",
        why="shared-memory broadcast plus pickle fan-out on the largest "
            "model over 2 process workers; the gap to its serial twin is "
            "pool overhead",
        base="cifar10", overrides=_CIFAR, backend="process",
        twin={"backend": None}),
    Workload(
        name="socket-sparse-cifar10",
        why="same compute over TCP: RPF1 framing, HMAC handshake, sparse "
            "codec both ways, 2 reducer shards; shows a gain for shared "
            "memory that costs the socket path and vice versa",
        base="cifar10",
        overrides={**_CIFAR, "codec": "sparse", "reducer_shards": 2},
        backend="socket", twin={"backend": None}),
    Workload(
        name="batched-cohort16",
        why="cohort of 16 fused into one (C,...) tensor program "
            "(nn.batched, federated.batched) instead of the client loop, "
            "so a kernel change that helps one path and hurts the other "
            "shows",
        base="mnist", overrides=_BATCHED,
        twin={"overrides": {**_BATCHED, "batch_cohort": False}}),
    Workload(
        name="fleet100k-fedbuff-ckpt",
        why="100k lazy fleet, flaky scenario, FedBuff, checkpoint every "
            "round, interrupted and resumed: little training per byte of "
            "state, checkpoint write and read in one run",
        base="mnist-100k",
        overrides={"num_rounds": 11, "scenario": "flaky",
                   "aggregation": "fedbuff"},
        checkpoint=True, twin={"checkpoint": False}),
)}
