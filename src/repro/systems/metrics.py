"""Training history and evaluation metrics for federated simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RoundRecord:
    """Everything the simulator measured about one communication round."""

    round_index: int
    selected_clients: List[int]
    train_accuracy: float
    test_accuracy: float
    round_flops: float
    round_time_seconds: float
    upload_bytes: float
    download_bytes: float
    cumulative_flops: float
    cumulative_time_seconds: float
    sparse_ratios: Dict[int, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    #: False when evaluation was skipped this round and ``test_accuracy``
    #: merely carries the last fresh value forward (``eval_every > 1``)
    evaluated: bool = True
    #: simulated wall-clock the server spent on the round under the active
    #: scenario (equals ``round_time_seconds`` in the ideal setting, but can
    #: exceed it when the server idles until a deadline, or undercut it when
    #: stragglers are dropped early)
    sim_time: float = 0.0
    cumulative_sim_time: float = 0.0
    #: invited clients that did not contribute to aggregation — unavailable
    #: at invitation time or cut by the participation policy
    dropped: List[int] = field(default_factory=list)
    #: how many of ``dropped`` ran their update but were cut as stragglers
    straggler_count: int = 0
    #: mean staleness (in server versions) of the updates aggregated this
    #: round — always 0 under synchronous aggregation
    staleness_mean: float = 0.0
    #: FedBuff buffer occupancy at the end of the round (0 outside fedbuff)
    buffer_size: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (used by the sweep result cache).

        The asynchronous-aggregation fields (``staleness_mean``,
        ``buffer_size``) are only emitted when non-default, so synchronous
        histories — including every golden fixture — serialize exactly as
        they did before the event-driven server core existed.
        """
        payload: Dict[str, object] = {
            "round_index": self.round_index,
            "selected_clients": list(self.selected_clients),
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "round_flops": self.round_flops,
            "round_time_seconds": self.round_time_seconds,
            "upload_bytes": self.upload_bytes,
            "download_bytes": self.download_bytes,
            "cumulative_flops": self.cumulative_flops,
            "cumulative_time_seconds": self.cumulative_time_seconds,
            "sparse_ratios": {str(cid): ratio
                              for cid, ratio in self.sparse_ratios.items()},
            "extras": dict(self.extras),
            "evaluated": self.evaluated,
            "sim_time": self.sim_time,
            "cumulative_sim_time": self.cumulative_sim_time,
            "dropped": list(self.dropped),
            "straggler_count": self.straggler_count,
        }
        if self.staleness_mean or self.buffer_size:
            payload["staleness_mean"] = self.staleness_mean
            payload["buffer_size"] = self.buffer_size
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RoundRecord":
        """Inverse of :meth:`to_dict` (JSON string keys become ints again)."""
        data = dict(payload)
        data["selected_clients"] = [int(cid)
                                    for cid in data.get("selected_clients", [])]
        data["sparse_ratios"] = {
            int(cid): float(ratio)
            for cid, ratio in dict(data.get("sparse_ratios", {})).items()}
        data["extras"] = dict(data.get("extras", {}))
        data.setdefault("evaluated", True)
        data.setdefault("sim_time", 0.0)
        data.setdefault("cumulative_sim_time", 0.0)
        data["dropped"] = [int(cid) for cid in data.get("dropped", [])]
        data.setdefault("straggler_count", 0)
        data.setdefault("staleness_mean", 0.0)
        data.setdefault("buffer_size", 0)
        return cls(**data)


@dataclass
class TrainingHistory:
    """Ordered per-round records plus convenience accessors.

    ``test_accuracy`` is the paper's headline metric: the average accuracy of
    all clients' (personalized) models on their local test data.
    """

    method: str
    dataset: str
    records: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Add the next round's record.

        Records are append-only: nothing mutates a :class:`RoundRecord`
        once it is appended, so a checkpoint capture lists
        ``self.records`` instead of copying each record.
        """
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError("round records must be appended in increasing order")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------- series
    @property
    def accuracies(self) -> List[float]:
        return [record.test_accuracy for record in self.records]

    @property
    def cumulative_flops(self) -> List[float]:
        return [record.cumulative_flops for record in self.records]

    @property
    def cumulative_time(self) -> List[float]:
        return [record.cumulative_time_seconds for record in self.records]

    @property
    def total_flops(self) -> float:
        return self.records[-1].cumulative_flops if self.records else 0.0

    @property
    def total_time_seconds(self) -> float:
        return self.records[-1].cumulative_time_seconds if self.records else 0.0

    @property
    def total_upload_bytes(self) -> float:
        return float(sum(record.upload_bytes for record in self.records))

    @property
    def total_sim_time(self) -> float:
        """Simulated wall-clock under the scenario (0 for pre-scenario runs)."""
        return self.records[-1].cumulative_sim_time if self.records else 0.0

    @property
    def total_dropped(self) -> int:
        """Invited-but-not-aggregated client slots across the whole run."""
        return int(sum(len(record.dropped) for record in self.records))

    @property
    def total_stragglers(self) -> int:
        return int(sum(record.straggler_count for record in self.records))

    @property
    def mean_staleness(self) -> float:
        """Average per-round mean staleness (0 for synchronous histories)."""
        if not self.records:
            return 0.0
        return float(sum(record.staleness_mean for record in self.records)
                     / len(self.records))

    # ------------------------------------------------------------ summaries
    def final_accuracy(self, last_rounds: int = 3) -> float:
        """Average accuracy over the trailing ``last_rounds`` rounds."""
        if not self.records:
            return 0.0
        tail = self.records[-max(1, last_rounds):]
        return float(sum(record.test_accuracy for record in tail) / len(tail))

    def best_accuracy(self) -> float:
        return max(self.accuracies) if self.records else 0.0

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated seconds until ``target`` accuracy is first reached."""
        for record in self.records:
            if record.test_accuracy >= target:
                return record.cumulative_time_seconds
        return None

    def sim_time_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated scenario seconds until ``target`` accuracy is reached."""
        for record in self.records:
            if record.test_accuracy >= target:
                return record.cumulative_sim_time
        return None

    def time_to_fraction(self, fraction: float = 0.9) -> Optional[float]:
        """Scenario seconds until ``fraction`` of the run's best accuracy.

        Expressing the target relative to the run's own best keeps
        time-to-accuracy comparable across datasets and scenarios, where
        absolute targets may never be reached.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        best = self.best_accuracy()
        if best <= 0.0:
            return None
        return self.sim_time_to_accuracy(fraction * best)

    def flops_to_accuracy(self, target: float) -> Optional[float]:
        """Cumulative FLOPs until ``target`` accuracy is first reached."""
        for record in self.records:
            if record.test_accuracy >= target:
                return record.cumulative_flops
        return None

    def accuracy_at_flops(self, budget: float) -> float:
        """Best accuracy achieved within a FLOP budget."""
        best = 0.0
        for record in self.records:
            if record.cumulative_flops > budget:
                break
            best = max(best, record.test_accuracy)
        return best

    def as_rows(self) -> List[Dict[str, float]]:
        """Flatten the history into plain dictionaries (for tables / CSV)."""
        return [{
            "round": record.round_index,
            "test_accuracy": record.test_accuracy,
            "train_accuracy": record.train_accuracy,
            "cumulative_flops": record.cumulative_flops,
            "cumulative_time_seconds": record.cumulative_time_seconds,
            "cumulative_sim_time": record.cumulative_sim_time,
            "upload_bytes": record.upload_bytes,
            "dropped": len(record.dropped),
            "stragglers": record.straggler_count,
            "staleness_mean": record.staleness_mean,
        } for record in self.records]

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (used by the sweep result cache)."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrainingHistory":
        """Rebuild a history from :meth:`to_dict` output."""
        history = cls(method=str(payload["method"]),
                      dataset=str(payload["dataset"]))
        for record in payload.get("records", []):
            history.append(RoundRecord.from_dict(record))
        return history
