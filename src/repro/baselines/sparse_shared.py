"""Heterogeneous sparse-training baselines with a *shared* (non-personalized)
inference model.

These methods extract differently-sized sub-models for differently-capable
clients, train the sub-models locally and merge them back into one global
model.  They differ in how the sparse ratio is chosen (rigid capability rule,
fixed, or bandit-driven) and in the sparse pattern (random, ordered, rolling,
magnitude, depth-wise, unstructured).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..federated.aggregation import fedavg
from ..federated.client import Client
from ..federated.strategy import ClientUpdate, Strategy, StrategyContext
from ..nn.params import ParamDict
from ..sparsity.masks import UnitPattern
from ..sparsity.patterns import (depth_pattern, magnitude_pattern, ordered_pattern,
                                 random_pattern, rolling_pattern)
from ..systems.cost import CostBreakdown
from ..systems.devices import affordable_ratio
from ..util import in_range, non_negative, positive_int


class SharedSparseStrategy(Strategy):
    """Common machinery for HeteroFL-style shared sparse training.

    Subclasses provide the per-client sparse ratio and pattern; this base
    handles masked local training, coverage-aware aggregation and the choice
    of evaluation model (the dense global model or the client's sub-model).
    """

    name = "shared_sparse"
    #: whether clients evaluate with their own sub-model or the dense global one
    evaluate_with_submodel = True

    def client_ratio(self, client: Client, round_index: int) -> float:
        """Sparse ratio assigned to ``client`` this round (default: capability)."""
        return affordable_ratio(client.capability)

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        """Sparse pattern used by ``client`` this round."""
        raise NotImplementedError

    # --------------------------------------------------------- local update
    def local_updates(self, round_index: int,
                      clients: List[Client]) -> List[ClientUpdate]:
        runs = self._train_sparse(
            round_index, clients,
            lambda client: float(np.clip(
                self.client_ratio(client, round_index), 0.05, 1.0)),
            lambda client, ratio: self.client_pattern(client, ratio,
                                                      round_index))
        updates = []
        for client, (ratio, pattern, result, _) in zip(clients, runs):
            client.state["pattern"] = pattern
            updates.append(self._report(client, result, pattern=pattern,
                                        sparse_ratio=ratio))
        return updates

    # ----------------------------------------------------------- aggregation
    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        self._aggregate_submodels(updates)

    # ------------------------------------------------------------ evaluation
    def client_evaluation(self, client: Client) -> Tuple[ParamDict, Optional[UnitPattern]]:
        if self.evaluate_with_submodel and "pattern" in client.state:
            return self.global_params, client.state["pattern"]
        return self.global_params, None


class FedDropout(SharedSparseStrategy):
    """eFD / Federated Dropout: random structured sub-models sized by capability."""

    name = "efd"

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        context = self._require_context()
        rng = self._client_rng(round_index, client.client_id)
        return random_pattern(context.model, ratio, rng=rng)


class FjORD(SharedSparseStrategy):
    """FjORD: ordered dropout with a width sampled at or below the capability."""

    name = "fjord"

    def client_ratio(self, client: Client, round_index: int) -> float:
        rng = self._client_rng(round_index, client.client_id)
        cap = affordable_ratio(client.capability)
        levels = [level for level in (1.0, 0.75, 0.5, 0.25) if level <= cap] or [cap]
        return float(rng.choice(levels))

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        return ordered_pattern(self._require_context().model, ratio)


class HeteroFL(SharedSparseStrategy):
    """HeteroFL: static capability-sized ordered (nested) sub-models."""

    name = "heterofl"

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        return ordered_pattern(self._require_context().model, ratio)


class FedRolex(SharedSparseStrategy):
    """FedRolex: rolling sub-model window so all units get trained over time."""

    name = "fedrolex"
    evaluate_with_submodel = False  # the server model is the inference model

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        return rolling_pattern(self._require_context().model, ratio, round_index)


class DepthFL(SharedSparseStrategy):
    """DepthFL: weak clients drop the deepest layers instead of widths."""

    name = "depthfl"

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        return depth_pattern(self._require_context().model, ratio)


class PruneFL(SharedSparseStrategy):
    """PruneFL: one shared magnitude-pruned model, periodically reconfigured.

    A powerful client performs the initial pruning (modelled by pruning the
    initial global model), every client then trains the same sub-model, and
    the mask is re-derived from global weight magnitudes every
    ``reconfigure_every`` rounds.
    """

    name = "prunefl"
    evaluate_with_submodel = True

    def __init__(self, keep_ratio: float = 0.8, reconfigure_every: int = 5) -> None:
        super().__init__()
        self.keep_ratio = in_range(keep_ratio, "keep_ratio", 0, 1,
                                   low_open=True)
        self.reconfigure_every = positive_int(reconfigure_every,
                                              "reconfigure_every")
        self._shared_pattern: Optional[UnitPattern] = None

    def setup(self, context: StrategyContext) -> None:
        super().setup(context)
        context.model.set_parameters(self.global_params)
        self._shared_pattern = magnitude_pattern(context.model, self.keep_ratio)

    def client_ratio(self, client: Client, round_index: int) -> float:
        return self.keep_ratio

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        # the client keeps what it is handed in its state: a copy, so that
        # client states share no mutable object (every other method derives
        # a fresh pattern per client; a checkpoint pickles each state alone)
        return {name: mask.copy()
                for name, mask in self._shared_pattern.items()}

    def post_round(self, round_index: int, updates: List[ClientUpdate],
                   costs: Mapping[int, CostBreakdown]) -> None:
        if (round_index + 1) % self.reconfigure_every == 0:
            context = self._require_context()
            context.model.set_parameters(self.global_params)
            self._shared_pattern = magnitude_pattern(context.model, self.keep_ratio)

    def client_evaluation(self, client: Client):
        return self.global_params, self._shared_pattern


class ComplementSparsification(Strategy):
    """CS: unstructured complement sparsification of uploads (Jiang & Borcea).

    The server keeps a dense model; each client trains with an unstructured
    magnitude mask over the parameters (modelling the sparse local model) and
    uploads only the largest-magnitude fraction of its update.  Because the
    sparsity is unstructured it would need specialized hardware to realise
    speed-ups; the FLOP accounting still scales with the keep ratio, as the
    paper does when quoting CS's computation costs.
    """

    name = "cs"

    def __init__(self, keep_ratio: float = 0.5) -> None:
        super().__init__()
        self.keep_ratio = in_range(keep_ratio, "keep_ratio", 0, 1,
                                   low_open=True)

    def _unstructured_mask(self, params: Mapping[str, np.ndarray]) -> ParamDict:
        """Global top-k magnitude mask over all parameter entries."""
        flat = np.concatenate([np.abs(value).ravel() for value in params.values()])
        keep = max(1, int(round(self.keep_ratio * flat.size)))
        threshold = np.partition(flat, flat.size - keep)[flat.size - keep]
        return {key: (np.abs(value) >= threshold).astype(np.float64)
                for key, value in params.items()}

    def local_updates(self, round_index: int,
                      clients: List[Client]) -> List[ClientUpdate]:
        mask = self._unstructured_mask(self.global_params)
        nonzero = float(sum(np.count_nonzero(m) for m in mask.values()))
        results = self._train(round_index, clients,
                              param_masks=[mask] * len(clients))
        updates = []
        for client, result in zip(clients, results):
            update = self._report(
                client, result, sparse_ratio=self.keep_ratio,
                uniform_ratio=self.keep_ratio,
                extras={"mask_nonzero": nonzero})
            update.upload_bytes *= self.keep_ratio
            updates.append(update)
        return updates

    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        if not updates:
            return
        merged = fedavg([u.params for u in updates],
                        [u.num_examples for u in updates])
        # complement: entries zeroed by every client's mask keep the old value
        for key in merged:
            untouched = merged[key] == 0.0
            merged[key][untouched] = self.global_params[key][untouched]
        self.global_params = merged


class FedMP(SharedSparseStrategy):
    """FedMP: adaptive model pruning with a UCB bandit over discrete ratios.

    Every client runs a UCB1 bandit over a small discrete set of sparse
    ratios; the reward trades accuracy improvement against local time, and the
    pattern is magnitude-based as in the original paper.
    """

    name = "fedmp"
    evaluate_with_submodel = False

    def __init__(self, arms: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25),
                 exploration: float = 1.0) -> None:
        super().__init__()
        if not arms:
            raise ValueError("arms must not be empty")
        self.arms = tuple(sorted(
            (in_range(arm, "arms", 0, 1, low_open=True) for arm in arms),
            reverse=True))
        self.exploration = non_negative(exploration, "exploration")

    def init_client_state(self, client: Client) -> None:
        # The bandit bookkeeping lives in ``client.state`` (not on the
        # strategy) so that parallel local updates ship it back to the server
        # like every other per-client quantity.  Initialization is pure per
        # client, so the fleet defers it to first participation.
        context = self._require_context()
        n = len(self.arms)
        baseline = 100.0 / max(context.dataset.num_classes, 2)
        client.state["fedmp_counts"] = np.zeros(n)
        client.state["fedmp_rewards"] = np.zeros(n)
        client.state["fedmp_last_arm"] = None
        client.state["fedmp_last_accuracy"] = baseline

    def client_ratio(self, client: Client, round_index: int) -> float:
        counts = client.state["fedmp_counts"]
        rewards = client.state["fedmp_rewards"]
        feasible = [i for i, arm in enumerate(self.arms)
                    if arm <= max(affordable_ratio(client.capability), self.arms[-1])]
        if not feasible:
            feasible = [len(self.arms) - 1]
        unexplored = [i for i in feasible if counts[i] == 0]
        if unexplored:
            arm_index = unexplored[0]
        else:
            total = counts[feasible].sum()
            scores = [rewards[i] / counts[i]
                      + self.exploration * np.sqrt(2 * np.log(total) / counts[i])
                      for i in feasible]
            arm_index = feasible[int(np.argmax(scores))]
        client.state["fedmp_last_arm"] = arm_index
        return self.arms[arm_index]

    def client_pattern(self, client: Client, ratio: float,
                       round_index: int) -> UnitPattern:
        return magnitude_pattern(self._require_context().model, ratio)

    def post_round(self, round_index: int, updates: List[ClientUpdate],
                   costs: Mapping[int, CostBreakdown]) -> None:
        self._require_context()
        for update in updates:
            state = self._client_state(update.client_id)
            arm = state["fedmp_last_arm"]
            if arm is None:
                continue
            accuracy = 100.0 * update.train_accuracy
            gain = accuracy - state["fedmp_last_accuracy"]
            seconds = max(costs[update.client_id].total_seconds, 1e-9)
            state["fedmp_counts"][arm] += 1
            state["fedmp_rewards"][arm] += gain / seconds
            state["fedmp_last_accuracy"] = accuracy
