"""JSON-on-disk cache of experiment results, keyed by their full spec.

Rebuilding the paper's figure grid re-runs many (method, preset) pairs; the
cache makes those rebuilds incremental.  A run is identified by the complete
specification that determines its outcome — method name, every preset field
(including the seed) and any strategy constructor overrides — hashed into a
stable key.  Because simulations are bit-deterministic, a cache hit is
indistinguishable from a re-run.

The on-disk format is one human-readable JSON file per run, carrying both the
spec (for inspection and collision checks) and the serialized
:class:`~repro.systems.metrics.TrainingHistory`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from ..systems.metrics import TrainingHistory
# canonicalize moved to the neutral ``repro.util`` module so the checkpoint
# digest and the cache keys share one definition of "the same spec";
# re-exported here for the callers that historically imported it from us.
from ..util import canonicalize  # noqa: F401  (re-export)
from .presets import ExperimentPreset

#: bump when the simulator's numerics change in a way that invalidates runs
#: (2: scenario engine — RoundRecord gained sim_time/dropped/stragglers and
#: presets gained the scenario field).  The event-driven server core (PR 4)
#: did NOT bump: synchronous numerics are bit-identical to version 2, and
#: presets gaining the ``aggregation`` field already changes every spec dict,
#: so stale entries miss on the spec comparison rather than colliding.
CACHE_VERSION = 2

DEFAULT_CACHE_DIR = ".repro-cache"


def run_spec(method: str, preset: ExperimentPreset,
             strategy_kwargs: Optional[dict] = None) -> Dict[str, object]:
    """The canonical, JSON-serializable description of one run."""
    return {
        "version": CACHE_VERSION,
        "method": method,
        "preset": canonicalize(asdict(preset)),
        "strategy_kwargs": canonicalize(dict(strategy_kwargs or {})),
    }


def spec_key(spec: Dict[str, object]) -> str:
    """Stable content hash of a run spec."""
    canonical = json.dumps(canonicalize(spec), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_stem(method: str, preset: ExperimentPreset,
              strategy_kwargs: Optional[dict] = None) -> str:
    """File-system name of one run: method, dataset and spec hash prefix."""
    digest = spec_key(run_spec(method, preset, strategy_kwargs))[:16]
    safe_method = "".join(c if c.isalnum() else "_" for c in method)
    return f"{safe_method}-{preset.dataset}-{digest}"


class ResultCache:
    """Directory-backed store mapping run specs to training histories."""

    def __init__(self, directory: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ----------------------------------------------------------------- paths
    def path_for(self, method: str, preset: ExperimentPreset,
                 strategy_kwargs: Optional[dict] = None) -> Path:
        return self.directory / f"{spec_stem(method, preset, strategy_kwargs)}.json"

    # ------------------------------------------------------------------- api
    def get(self, method: str, preset: ExperimentPreset,
            strategy_kwargs: Optional[dict] = None) -> Optional[TrainingHistory]:
        """The cached history for this spec, or None on a miss."""
        spec = run_spec(method, preset, strategy_kwargs)
        path = self.path_for(method, preset, strategy_kwargs)
        if not path.exists():
            self.misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if payload.get("spec") != spec:
            # stale format or (vanishingly unlikely) truncated-hash collision
            self.misses += 1
            return None
        self.hits += 1
        return TrainingHistory.from_dict(payload["history"])

    def put(self, method: str, preset: ExperimentPreset,
            strategy_kwargs: Optional[dict], history: TrainingHistory) -> Path:
        """Persist one run's history; returns the file written."""
        spec = run_spec(method, preset, strategy_kwargs)
        path = self.path_for(method, preset, strategy_kwargs)
        payload = {"spec": spec, "history": history.to_dict()}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)  # atomic publish so concurrent readers never see a torn file
        return path

    def clear(self) -> int:
        """Delete every cached run; returns the number of files removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.directory)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
