"""Deterministic per-round resolution of a scenario.

Every decision the engine makes — is a client reachable, does it straggle,
who survives the participation policy — is a pure function of
``(seed, round_index, client_id)`` plus the latencies handed in by the cost
model.  Nothing reads a real clock or shares mutable random state, so the
engine composes with the executor contract from ``repro.parallel``: running
client updates on threads or processes cannot change a history bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from ..util import non_negative
from .config import ScenarioConfig

#: salts separating the engine's independent random decision streams
_AVAILABILITY_SALT = 101
_STRAGGLER_SALT = 211


@dataclass(frozen=True)
class RoundOutcome:
    """What the participation policy decided for one round.

    ``participants`` contributed their update to aggregation;
    ``stragglers`` ran (burning compute and uplink) but were dropped by the
    policy; ``sim_time`` is the simulated wall-clock the server spent on the
    round; ``deadline`` is the cutoff that was applied, if any.
    """

    participants: Tuple[int, ...]
    stragglers: Tuple[int, ...]
    sim_time: float
    deadline: float | None = None


class ScenarioEngine:
    """Applies a :class:`ScenarioConfig` to the federated round loop."""

    def __init__(self, scenario: ScenarioConfig, *, seed: int = 0) -> None:
        self.scenario = scenario
        self.seed = seed
        # trace rounds are stored as tuples; membership tests against them
        # are O(num_clients), which a fleet-scale cohort pays per invited
        # client — memoize each round's set once instead
        self._trace_sets: dict = {}

    # -------------------------------------------------------------- selection
    def selection_target(self, clients_per_round: int) -> int:
        """How many clients the server should invite (over-selection)."""
        return int(math.ceil(clients_per_round * self.scenario.over_selection))

    # ----------------------------------------------------------- availability
    def is_available(self, round_index: int, client_id: int) -> bool:
        """Whether a client is reachable this round.

        A trace, when present, is authoritative; otherwise availability is a
        Bernoulli draw from a generator derived from
        ``(seed, round_index, client_id)`` so that repeated simulations (and
        all executor backends) agree.
        """
        trace = self.scenario.availability_trace
        if trace is not None:
            available = trace.get(round_index)
            if available is None:
                return True
            cached = self._trace_sets.get(round_index)
            if cached is None:
                cached = self._trace_sets[round_index] = frozenset(available)
            return client_id in cached
        if self.scenario.availability >= 1.0:
            return True
        rng = self._rng(round_index, client_id, _AVAILABILITY_SALT)
        return bool(rng.random() < self.scenario.availability)

    def split_available(self, round_index: int, client_ids: Sequence[int]
                        ) -> Tuple[List[int], List[int]]:
        """Partition invited clients into (reachable, unreachable)."""
        available: List[int] = []
        unavailable: List[int] = []
        for client_id in client_ids:
            bucket = (available if self.is_available(round_index, client_id)
                      else unavailable)
            bucket.append(client_id)
        return available, unavailable

    # --------------------------------------------------------------- latency
    def latency(self, round_index: int, client_id: int,
                base_seconds: float) -> float:
        """The client's round latency, with a possible straggler spike.

        ``base_seconds`` is the cost model's ``T_k`` (compute + transfer);
        with probability ``straggler_prob`` the client is additionally slowed
        by ``straggler_slowdown`` — a background-load spike on top of any
        fluctuation the device profile itself models.
        """
        total = float(non_negative(base_seconds, "base_seconds"))
        if self.scenario.straggler_prob > 0.0:
            rng = self._rng(round_index, client_id, _STRAGGLER_SALT)
            if rng.random() < self.scenario.straggler_prob:
                total *= self.scenario.straggler_slowdown
        return total

    # ---------------------------------------------------------------- policy
    def resolve(self, round_index: int,
                latencies: Mapping[int, float]) -> RoundOutcome:
        """Apply the participation policy to this round's latencies.

        An empty round (every invited client unavailable) is billed the
        absolute deadline when one is configured — the server idled until
        the cutoff — and zero seconds otherwise: relative deadlines and
        fastest-k have no latency reference to derive a waiting time from,
        so their empty rounds are deliberately free.  Keep that bias in
        mind when comparing ``sim_time`` across deadline variants under
        heavy unavailability.
        """
        scenario = self.scenario
        if not latencies:
            sim_time = (scenario.deadline_seconds
                        if scenario.policy == "deadline"
                        and scenario.deadline_seconds is not None else 0.0)
            return RoundOutcome((), (), float(sim_time))
        # deterministic ordering: by latency, ties broken by client id
        ordered = sorted(latencies.items(), key=lambda item: (item[1], item[0]))

        if scenario.policy == "wait-all":
            kept = [client_id for client_id, _ in ordered]
            return RoundOutcome(tuple(sorted(kept)), (),
                                max(latencies.values()))

        if scenario.policy == "fastest-k":
            count = min(scenario.fastest_k, len(ordered))
            count = max(count, min(scenario.min_participants, len(ordered)))
            kept = ordered[:count]
            dropped = ordered[count:]
            return RoundOutcome(
                tuple(sorted(client_id for client_id, _ in kept)),
                tuple(sorted(client_id for client_id, _ in dropped)),
                kept[-1][1] if kept else 0.0)

        # deadline policy
        fastest = ordered[0][1]
        cutoff = (scenario.deadline_seconds
                  if scenario.deadline_seconds is not None
                  else scenario.deadline_factor * fastest)
        kept = [(client_id, lat) for client_id, lat in ordered if lat <= cutoff]
        quorum = min(scenario.min_participants, len(ordered))
        if len(kept) < quorum:
            # the server waits past the deadline for the fastest quorum
            kept = ordered[:quorum]
        dropped = ordered[len(kept):]
        slowest_kept = kept[-1][1] if kept else 0.0
        sim_time = max(slowest_kept, cutoff) if dropped else slowest_kept
        return RoundOutcome(
            tuple(sorted(client_id for client_id, _ in kept)),
            tuple(sorted(client_id for client_id, _ in dropped)),
            float(sim_time), deadline=float(cutoff))

    # --------------------------------------------------------------- helpers
    def _rng(self, round_index: int, client_id: int,
             salt: int) -> np.random.Generator:
        """A fresh generator keyed by (seed, round, client, decision salt)."""
        return np.random.default_rng(
            (self.seed, round_index, client_id, salt))
