"""Local and global time-cost model (Eq. 14 and Eq. 18 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..sparsity.accounting import SparseCost
from ..util import non_negative, non_negative_int
from .devices import DeviceProfile


@dataclass(frozen=True)
class CostBreakdown:
    """Time cost of one client's round, split into compute and communication."""

    computation_seconds: float
    communication_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.computation_seconds + self.communication_seconds


class LocalCostModel:
    """Implements ``T_k = F_hat / F_k + alpha * B_hat / B_k`` (Eq. 14).

    ``alpha`` weighs communication against computation exactly as in the
    paper; the available compute ``F_k`` reflects the device's (possibly
    fluctuating) capability in the current round.
    """

    def __init__(self, alpha: float = 1.0, *, seed: int = 0) -> None:
        self.alpha = non_negative(alpha, "alpha")
        self.seed = non_negative_int(seed, "seed")

    def client_cost(self, device: DeviceProfile, cost: SparseCost,
                    round_index: int = 0) -> CostBreakdown:
        """Time needed by ``device`` to execute a round with footprint ``cost``."""
        capability = device.available_capability(round_index, seed=self.seed)
        flops_per_second = capability * device.flops_per_second / device.capability
        computation = cost.flops / flops_per_second if flops_per_second > 0 else 0.0
        transferred = cost.upload_bytes + cost.download_bytes
        communication = (self.alpha * transferred
                         / device.bandwidth_bytes_per_second)
        return CostBreakdown(computation, communication)

    @staticmethod
    def round_time(client_costs: Iterable[CostBreakdown]) -> float:
        """Synchronous round time: the slowest selected client (Eq. 18)."""
        costs = [cost.total_seconds for cost in client_costs]
        return max(costs) if costs else 0.0
