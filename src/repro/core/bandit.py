"""P-UCBV: Prompt Upper Confidence Bound Variance (Algorithm 2).

The server treats the choice of each client's sparse ratio as a continuous
multi-armed-bandit problem over ``[ratio_min, ratio_max)``.  The arm space is
partitioned adaptively (decision-tree style splits at previously played
ratios), partitions whose ratios sharply hurt accuracy are promptly
eliminated, and the next ratio is sampled from the partition with the best
UCB-V score computed from reward means and variances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..util import in_range, non_negative, positive, positive_int
from .utility import utility_gain


@dataclass
class RatioPartition:
    """One half-open interval ``[low, high)`` of candidate sparse ratios."""

    low: float
    high: float
    rewards: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"empty partition [{self.low}, {self.high})")

    def contains(self, ratio: float) -> bool:
        return self.low <= ratio < self.high

    @property
    def width(self) -> float:
        return self.high - self.low

    @property
    def pulls(self) -> int:
        return len(self.rewards)

    @property
    def mean_reward(self) -> float:
        return float(np.mean(self.rewards)) if self.rewards else 0.0

    @property
    def reward_variance(self) -> float:
        return float(np.var(self.rewards)) if self.rewards else 0.0

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


class PUCBVAgent:
    """The per-client P-UCBV decision agent run on the server.

    Args:
        total_rounds: ``R``, the planned number of communication rounds.
        num_clients: ``K``.
        selection_fraction: ``epsilon`` in Algorithm 2's ``xi = R / (K * eps)``.
        num_initial_partitions: ``I_0``.
        accuracy_threshold: ``Delta`` (in accuracy percentage points); a round
            whose accuracy change falls below it triggers arm elimination.
        rho: exploration constant of the UCB-V bonus.
        ratio_min / ratio_max: bounds of the feasible sparse-ratio space.
        min_partition_width: splits that would create narrower partitions are
            skipped to keep the tree finite.
    """

    def __init__(self, *, total_rounds: int, num_clients: int,
                 selection_fraction: float, num_initial_partitions: int = 4,
                 accuracy_threshold: float = 0.0, rho: float = 1.0,
                 ratio_min: float = 0.05, ratio_max: float = 1.0,
                 min_partition_width: float = 0.02, seed: int = 0) -> None:
        positive_int(total_rounds, "total_rounds")
        positive_int(num_clients, "num_clients")
        in_range(selection_fraction, "selection_fraction", 0, 1, low_open=True)
        positive_int(num_initial_partitions, "num_initial_partitions")
        in_range(accuracy_threshold, "accuracy_threshold")
        non_negative(rho, "rho")
        in_range(ratio_max, "ratio_max", 0, 1, low_open=True)
        in_range(ratio_min, "ratio_min", 0, ratio_max, low_open=True,
                 high_open=True)
        positive(min_partition_width, "min_partition_width")
        self.accuracy_threshold = accuracy_threshold
        self.rho = rho
        self.ratio_min = ratio_min
        self.ratio_max = ratio_max
        self.min_partition_width = min_partition_width
        self._rng = np.random.default_rng(seed)
        self.xi = total_rounds / (num_clients * selection_fraction)
        self.epsilon = 1.0
        edges = np.linspace(ratio_min, ratio_max, num_initial_partitions + 1)
        self.partitions: List[RatioPartition] = [
            RatioPartition(float(lo), float(hi))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        self.psi = self.xi / num_initial_partitions ** 2
        self._eliminated: int = 0

    # ----------------------------------------------------------------- API
    def initial_ratio(self) -> float:
        """Sample the very first sparse ratio from a random partition."""
        partition = self.partitions[self._rng.integers(len(self.partitions))]
        return partition.sample(self._rng)

    def observe_and_select(self, ratio: float, local_cost_seconds: float,
                           accuracy_percent: float,
                           previous_accuracy_percent: float) -> float:
        """Process one round's feedback and return the next sparse ratio.

        Implements Algorithm 2: split the partition that produced ``ratio``
        at that ratio, possibly eliminate its lower half when accuracy
        degraded, record the reward (Eq. 15) and pick the next partition by
        UCB-V score.
        """
        positive(local_cost_seconds, "local_cost_seconds")
        ratio = float(np.clip(ratio, self.ratio_min,
                              np.nextafter(self.ratio_max, 0.0)))
        index = self._find_partition(ratio)
        lower, upper = self._split(index, ratio)

        accuracy_change = accuracy_percent - previous_accuracy_percent
        if lower is not None and accuracy_change < self.accuracy_threshold \
                and len(self.partitions) > 1:
            self.partitions.remove(lower)
            self._eliminated += 1
            lower = None

        self.epsilon /= 2.0
        self.psi = self.xi / max(len(self.partitions), 1) ** 2

        reward = utility_gain(accuracy_percent, previous_accuracy_percent) \
            / local_cost_seconds
        if lower is not None:
            lower.rewards.append(reward)
        upper.rewards.append(reward)

        best = max(self.partitions, key=self._ucbv_value)
        return best.sample(self._rng)

    # ------------------------------------------------------------ internals
    def _find_partition(self, ratio: float) -> int:
        for index, partition in enumerate(self.partitions):
            if partition.contains(ratio):
                return index
        # ratio fell outside every partition (e.g. after eliminations): use
        # the nearest partition by midpoint distance.
        midpoints = [0.5 * (p.low + p.high) for p in self.partitions]
        return int(np.argmin([abs(ratio - mid) for mid in midpoints]))

    def _split(self, index: int, ratio: float
               ) -> tuple[Optional[RatioPartition], RatioPartition]:
        """Split partition ``index`` at ``ratio`` into (lower, upper) halves.

        Returns ``(lower, upper)`` where ``lower`` is ``None`` when the split
        would create a sliver narrower than ``min_partition_width`` (the
        original partition then plays the role of the upper half).
        """
        partition = self.partitions[index]
        if (ratio - partition.low < self.min_partition_width
                or partition.high - ratio < self.min_partition_width):
            return None, partition
        lower = RatioPartition(partition.low, ratio, rewards=list(partition.rewards))
        upper = RatioPartition(ratio, partition.high, rewards=list(partition.rewards))
        self.partitions[index:index + 1] = [lower, upper]
        return lower, upper

    def _ucbv_value(self, partition: RatioPartition) -> float:
        """UCB-V score (Eq. 17); unexplored partitions are infinitely attractive."""
        if partition.pulls == 0:
            return float("inf")
        log_term = np.log(max(self.xi * self.psi * self.epsilon, 1e-12))
        radicand = max(self.rho * (partition.reward_variance + 2.0) * log_term, 0.0)
        bonus = float(np.sqrt(radicand / (4.0 * (partition.pulls + 1))))
        return partition.mean_reward + bonus
