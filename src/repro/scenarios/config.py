"""Declarative description of a system-heterogeneity scenario."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..util import in_range, non_negative_int, positive, positive_int

#: the participation policies the server can apply at the end of a round
PARTICIPATION_POLICIES = ("wait-all", "deadline", "fastest-k")


@dataclass(frozen=True)
class ScenarioConfig:
    """How the federation's system layer misbehaves during a simulation.

    Availability
        ``availability`` is the per-round Bernoulli probability that an
        invited client is reachable at all; ``availability_trace`` overrides
        it with an explicit schedule mapping ``round_index`` to the tuple of
        *available* client ids (rounds missing from the trace leave every
        client available).

    Stragglers
        Every client's round latency comes from the cost model
        (``T_k = F_hat / F_k + alpha * B_hat / B_k``, Eq. 14).  On top of
        that, with probability ``straggler_prob`` a client suffers a
        background-load spike that multiplies its latency by
        ``straggler_slowdown`` — sampled deterministically from
        ``(seed, round_index, client_id)``.

    Participation policy
        * ``wait-all`` — the server waits for every surviving client
          (Eq. 18's synchronous round time).
        * ``deadline`` — clients slower than the cutoff are dropped; the
          cutoff is ``deadline_seconds`` (absolute) or ``deadline_factor``
          times the round's fastest client (scale-free).  ``over_selection``
          lets the server invite extra clients to compensate for expected
          drops.
        * ``fastest-k`` — the server closes the round after the fastest
          ``fastest_k`` updates arrive.

    ``min_participants`` is the server's quorum: the policy never drops below
    that many clients (it waits past the deadline for the fastest ones), so
    aggregation always has something to average unless nobody was available.
    """

    name: str = "custom"
    policy: str = "wait-all"
    availability: float = 1.0
    availability_trace: Optional[Dict[int, Tuple[int, ...]]] = field(default=None)
    deadline_seconds: Optional[float] = None
    deadline_factor: Optional[float] = None
    fastest_k: Optional[int] = None
    over_selection: float = 1.0
    straggler_prob: float = 0.0
    straggler_slowdown: float = 4.0
    min_participants: int = 1

    def __post_init__(self) -> None:
        if self.policy not in PARTICIPATION_POLICIES:
            raise ValueError(
                f"unknown participation policy {self.policy!r}; "
                f"choose from {PARTICIPATION_POLICIES}")
        in_range(self.availability, "availability", 0, 1, low_open=True)
        if self.policy == "deadline":
            if (self.deadline_seconds is None) == (self.deadline_factor is None):
                raise ValueError(
                    "the deadline policy needs exactly one of "
                    "deadline_seconds (absolute) or deadline_factor (relative)")
        positive(self.deadline_seconds, "deadline_seconds", optional=True)
        # 1 = only the fastest client
        in_range(self.deadline_factor, "deadline_factor", 1, optional=True)
        if self.policy == "fastest-k" and self.fastest_k is None:
            raise ValueError("the fastest-k policy needs fastest_k >= 1")
        positive_int(self.fastest_k, "fastest_k", optional=True)
        in_range(self.over_selection, "over_selection", 1)
        in_range(self.straggler_prob, "straggler_prob", 0, 1)
        in_range(self.straggler_slowdown, "straggler_slowdown", 1)
        non_negative_int(self.min_participants, "min_participants")
        if self.availability_trace is not None:
            # normalize to plain {int: sorted tuple} so configs built from
            # JSON (string keys, lists) compare and pickle predictably
            trace = {int(round_index): tuple(sorted(int(cid) for cid in ids))
                     for round_index, ids in dict(self.availability_trace).items()}
            object.__setattr__(self, "availability_trace", trace)
