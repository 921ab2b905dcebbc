"""Aggregation policies: how arrivals are merged into the global model.

The synchronous round loop merges a full cohort through
``strategy.aggregate`` and nothing else.  The asynchronous schedulers
additionally need *staleness weighting*: an update that trained on global
parameters ``s`` server versions old should move the global model less than
a fresh one.  That weighting lives here, separate from both the schedulers
(which decide *when* to merge) and the ``weighted_average`` kernels in
``repro.nn.params`` (which only know how to average, not how much to trust).

The merge is strategy-agnostic: the policy asks the strategy to aggregate
the arrival batch exactly as it would in a synchronous round (so residual
reconstruction, masked averaging and any other method-specific math keeps
working), then mixes the resulting candidate back into the previous global
parameters with the staleness-decayed weight:

    global <- (1 - w) * global_prev + w * candidate,
    w = alpha / (1 + staleness)^a          (FedAsync, Xie et al.)

For a buffered flush (FedBuff, Nguyen et al.) the batch carries several
arrivals with individual stalenesses; the mixing weight is ``alpha`` times
the mean of their individual decay factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..federated.strategy import ClientUpdate, Strategy
from ..nn.params import ParamDict
from ..util import in_range, non_negative


def staleness_decay(staleness: float, *, exponent: float = 0.5) -> float:
    """The polynomial staleness discount ``1 / (1 + s)^a`` (FedAsync Eq. 5)."""
    non_negative(staleness, "staleness")
    non_negative(exponent, "the staleness exponent")
    return float(1.0 / (1.0 + staleness) ** exponent)


def staleness_weight(staleness: float, *, alpha: float = 0.6,
                     exponent: float = 0.5) -> float:
    """Mixing weight ``alpha / (1 + s)^a`` of an update ``s`` versions stale."""
    in_range(alpha, "alpha", 0, 1, low_open=True)
    return alpha * staleness_decay(staleness, exponent=exponent)


def mix_params(previous: Mapping[str, np.ndarray],
               candidate: Mapping[str, np.ndarray],
               weight: float, *,
               out: "ParamDict | None" = None) -> ParamDict:
    """Convex combination ``(1 - w) * previous + w * candidate`` per entry.

    With ``out`` (typically the candidate dictionary itself, when the caller
    owns it) the result is written into the given arrays instead of fresh
    allocations — bit-identical, since IEEE-754 addition is commutative and
    the per-entry expression tree is unchanged.
    """
    in_range(weight, "the mixing weight", 0, 1)
    if previous.keys() != candidate.keys():
        raise ValueError("previous and candidate parameters disagree on keys")
    if out is None:
        return {key: (1.0 - weight) * previous[key] + weight * candidate[key]
                for key in previous}
    for key in previous:
        target = np.multiply(candidate[key], weight, out=out[key])
        target += (1.0 - weight) * previous[key]
    return out


@dataclass(frozen=True)
class Arrival:
    """One update ready to merge, with the staleness measured at merge time.

    ``cost`` is the dispatch-time :class:`~repro.systems.cost.CostBreakdown`
    — the schedulers thread it through so ``post_round`` bookkeeping sees
    the same costs a synchronous round would; the policy itself ignores it.
    """

    update: ClientUpdate
    staleness: int
    cost: object = None


class AggregationPolicy:
    """Staleness-weighted merge of arrival batches into the global model."""

    def __init__(self, *, alpha: float = 0.6, exponent: float = 0.5) -> None:
        self.alpha = in_range(alpha, "alpha", 0, 1, low_open=True)
        self.exponent = non_negative(exponent, "the staleness exponent")

    def weight(self, staleness: float) -> float:
        """Mixing weight for a single update ``staleness`` versions old."""
        return staleness_weight(staleness, alpha=self.alpha,
                                exponent=self.exponent)

    def batch_weight(self, arrivals: Sequence[Arrival]) -> float:
        """Mixing weight for a flush: alpha x mean per-arrival decay."""
        if not arrivals:
            raise ValueError("cannot weight an empty arrival batch")
        decay = float(np.mean([staleness_decay(a.staleness,
                                               exponent=self.exponent)
                               for a in arrivals]))
        return self.alpha * decay

    def merge(self, strategy: Strategy, round_index: int,
              arrivals: Sequence[Arrival]) -> float:
        """Merge ``arrivals`` into ``strategy.global_params``; returns w.

        The strategy's own ``aggregate`` computes the candidate parameters
        from the batch (method-specific math included); the policy then
        pulls the global model toward that candidate by the staleness
        weight.  With ``staleness == 0`` and ``alpha == 1`` this degenerates
        to the synchronous aggregation exactly.

        The mix writes into the candidate arrays, which assumes ``aggregate``
        returns freshly-allocated parameters — true of every shipped kernel
        (``weighted_average``/``masked_average`` allocate their results); a
        strategy that aliases update arrays into ``global_params`` must copy
        them first.
        """
        if not arrivals:
            return 0.0
        # the snapshot guards against strategies that aggregate in place;
        # the mix itself reuses the candidate arrays the aggregation just
        # allocated, so the per-arrival cost is one copy, not three
        previous = {key: value.copy()
                    for key, value in strategy.global_params.items()}
        strategy.aggregate(round_index, [a.update for a in arrivals])
        weight = self.batch_weight(arrivals)
        candidate = strategy.global_params
        strategy.global_params = mix_params(previous, candidate, weight,
                                            out=candidate)
        return weight
