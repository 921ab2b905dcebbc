"""Client abstraction: local data shard, device profile and persistent state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from ..data.dataset import ClientData, Dataset
from ..systems.devices import DeviceProfile


@dataclass
class Client:
    """One simulated edge device participating in the federation.

    ``state`` is a free-form dictionary that personalization strategies use
    to persist client-side information across rounds (importance indicators,
    personal masks, personal head parameters, bandit bookkeeping, ...).
    """

    client_id: int
    data: ClientData
    device: DeviceProfile
    state: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.client_id != self.data.client_id:
            raise ValueError(
                f"client id {self.client_id} does not match data shard id "
                f"{self.data.client_id}")
        if self.client_id != self.device.client_id:
            raise ValueError(
                f"client id {self.client_id} does not match device id "
                f"{self.device.client_id}")

    @property
    def train_data(self) -> Dataset:
        return self.data.train

    @property
    def test_data(self) -> Dataset:
        return self.data.test

    @property
    def num_train_examples(self) -> int:
        return len(self.data.train)

    @property
    def capability(self) -> float:
        """Static capability level ``z_k`` of the client's device."""
        return self.device.capability
