"""Personalized *sparse* federated learning baselines.

LotteryFL, Hermes, FedSpa and FedP3 all give every client its own sparse
sub-model.  They differ in how the personal mask evolves (dense-to-sparse
magnitude pruning, sparse-to-sparse prune-and-regrow, capability-driven
dropout) and in whether the sparse ratio is fixed, decayed or set by device
capability.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..federated.client import Client
from ..federated.strategy import ClientUpdate, Strategy
from ..nn.params import ParamDict, copy_params
from ..sparsity.masks import UnitPattern
from ..sparsity.patterns import magnitude_pattern, ordered_pattern, random_pattern
from ..systems.devices import affordable_ratio
from ..util import in_range, positive_int
from .personalized import head_keys


class PersonalSparseStrategy(Strategy):
    """Shared plumbing for per-client sparse personalization baselines."""

    name = "personal_sparse"

    # ------------------------------------------------------------- hooks
    def current_ratio(self, client: Client, round_index: int) -> float:
        raise NotImplementedError

    def current_pattern(self, client: Client, ratio: float,
                        round_index: int) -> UnitPattern:
        raise NotImplementedError

    def after_training(self, client: Client, params: ParamDict,
                       pattern: UnitPattern, ratio: float,
                       train_accuracy: float) -> None:
        """Update per-client mask/ratio state after a round (default: keep)."""

    # ------------------------------------------------------ local update
    def local_updates(self, round_index: int,
                      clients: List[Client]) -> List[ClientUpdate]:
        runs = self._train_sparse(
            round_index, clients,
            lambda client: float(np.clip(
                self.current_ratio(client, round_index), 0.05, 1.0)),
            lambda client, ratio: self.current_pattern(client, ratio,
                                                       round_index))
        updates = []
        for client, (ratio, pattern, result, _) in zip(clients, runs):
            client.state["personal_params"] = result.params
            client.state["personal_pattern"] = pattern
            self.after_training(client, result.params, pattern, ratio,
                                result.train_accuracy)
            updates.append(self._report(client, result, pattern=pattern,
                                        sparse_ratio=ratio))
        return updates

    # --------------------------------------------------------- aggregation
    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        self._aggregate_submodels(updates)

    # ---------------------------------------------------------- evaluation
    def client_evaluation(self, client: Client) -> Tuple[ParamDict, Optional[UnitPattern]]:
        personal = client.state.get("personal_params")
        if personal is None:
            return self.global_params, None
        return personal, client.state.get("personal_pattern")

    def evaluates_from_state(self, state: Mapping) -> bool:
        return state.get("personal_params") is not None


class LotteryFL(PersonalSparseStrategy):
    """LotteryFL: per-client lottery tickets found by gradual magnitude pruning.

    A client's ratio starts at 1 and is multiplied by ``prune_rate`` whenever
    its local training accuracy exceeds ``accuracy_threshold``, down to
    ``min_ratio``; the ticket mask is the magnitude pattern of the current
    global model at that ratio.
    """

    name = "lotteryfl"

    def __init__(self, prune_rate: float = 0.8, accuracy_threshold: float = 0.5,
                 min_ratio: float = 0.3) -> None:
        super().__init__()
        self.prune_rate = in_range(prune_rate, "prune_rate", 0, 1,
                                   low_open=True, high_open=True)
        self.accuracy_threshold = in_range(accuracy_threshold,
                                           "accuracy_threshold", 0, 1)
        self.min_ratio = in_range(min_ratio, "min_ratio", 0, 1, low_open=True)

    def current_ratio(self, client: Client, round_index: int) -> float:
        return client.state.get("ratio", 1.0)

    def current_pattern(self, client: Client, ratio: float,
                        round_index: int) -> UnitPattern:
        return magnitude_pattern(self._require_context().model, ratio)

    def after_training(self, client: Client, params: ParamDict,
                       pattern: UnitPattern, ratio: float,
                       train_accuracy: float) -> None:
        if train_accuracy >= self.accuracy_threshold:
            client.state["ratio"] = max(self.min_ratio, ratio * self.prune_rate)
        else:
            client.state["ratio"] = ratio


class Hermes(PersonalSparseStrategy):
    """Hermes: structured magnitude pruning of personal models with decayed ratio.

    The personal mask is re-derived from the *client's own* trained weights
    (not the global model) so the retained channels track what matters for the
    local data; the ratio shrinks by ``prune_step`` every ``prune_every``
    rounds of participation until ``min_ratio``.
    """

    name = "hermes"

    def __init__(self, prune_step: float = 0.1, prune_every: int = 2,
                 min_ratio: float = 0.4) -> None:
        super().__init__()
        self.prune_step = in_range(prune_step, "prune_step", 0, 1,
                                   low_open=True, high_open=True)
        self.prune_every = positive_int(prune_every, "prune_every")
        self.min_ratio = in_range(min_ratio, "min_ratio", 0, 1, low_open=True)

    def current_ratio(self, client: Client, round_index: int) -> float:
        return client.state.get("ratio", 1.0)

    def current_pattern(self, client: Client, ratio: float,
                        round_index: int) -> UnitPattern:
        model = self._require_context().model
        personal = client.state.get("personal_params")
        if personal is not None:
            # score units by the client's own trained weight magnitudes
            model.set_parameters(personal)
        return magnitude_pattern(model, ratio)

    def after_training(self, client: Client, params: ParamDict,
                       pattern: UnitPattern, ratio: float,
                       train_accuracy: float) -> None:
        participations = client.state.get("participations", 0) + 1
        client.state["participations"] = participations
        if participations % self.prune_every == 0:
            client.state["ratio"] = max(self.min_ratio, ratio - self.prune_step)
        else:
            client.state["ratio"] = ratio


class FedSpa(PersonalSparseStrategy):
    """FedSpa: sparse-to-sparse personalization with a constant uniform ratio.

    Every client always trains at ``ratio``; its personal pattern evolves by
    dropping the lowest-magnitude retained units and regrowing the same number
    of random pruned units each round (a structured RigL-style update).
    """

    name = "fedspa"

    def __init__(self, ratio: float = 0.5, regrow_fraction: float = 0.2) -> None:
        super().__init__()
        self.ratio = in_range(ratio, "ratio", 0, 1, low_open=True)
        self.regrow_fraction = in_range(regrow_fraction, "regrow_fraction",
                                        0, 1)

    def current_ratio(self, client: Client, round_index: int) -> float:
        return self.ratio

    def current_pattern(self, client: Client, ratio: float,
                        round_index: int) -> UnitPattern:
        context = self._require_context()
        pattern = client.state.get("personal_pattern")
        if pattern is None:
            rng = self._client_rng(round_index, client.client_id)
            return random_pattern(context.model, ratio, rng=rng)
        return self._prune_and_regrow(client, pattern, round_index)

    def _prune_and_regrow(self, client: Client, pattern: UnitPattern,
                          round_index: int) -> UnitPattern:
        context = self._require_context()
        rng = self._client_rng(round_index, client.client_id)
        personal = client.state.get("personal_params", self.global_params)
        context.model.set_parameters(personal)
        magnitudes = context.model.unit_weight_magnitudes()
        new_pattern: UnitPattern = {}
        for name, mask in pattern.items():
            mask = np.asarray(mask, dtype=bool).copy()
            kept = np.where(mask)[0]
            pruned = np.where(~mask)[0]
            swaps = min(len(pruned),
                        max(0, int(round(self.regrow_fraction * len(kept)))))
            if swaps > 0 and len(kept) > swaps:
                scores = magnitudes[name][kept]
                drop = kept[np.argsort(scores)[:swaps]]
                grow = rng.choice(pruned, size=swaps, replace=False)
                mask[drop] = False
                mask[grow] = True
            new_pattern[name] = mask
        return new_pattern


class FedP3(PersonalSparseStrategy):
    """FedP3: capability-driven dropout plus a personal head (no learned pattern).

    The body is pruned with an ordered pattern sized by the client capability;
    the output head is kept personal exactly as in FedPer.  This mirrors the
    paper's description: personalization under model heterogeneity but with a
    heuristic (uniform/ordered) pattern.
    """

    name = "fedp3"

    def current_ratio(self, client: Client, round_index: int) -> float:
        return affordable_ratio(client.capability)

    def current_pattern(self, client: Client, ratio: float,
                        round_index: int) -> UnitPattern:
        return ordered_pattern(self._require_context().model, ratio)

    def after_training(self, client: Client, params: ParamDict,
                       pattern: UnitPattern, ratio: float,
                       train_accuracy: float) -> None:
        # keep the head personal: remember it on the device
        client.state["personal_head"] = {key: params[key]
                                         for key in head_keys(params)}

    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        if not updates:
            return
        previous_head = {key: np.array(value, copy=True)
                         for key, value in self.global_params.items()
                         if key in head_keys(self.global_params)}
        super().aggregate(round_index, updates)
        self.global_params.update(previous_head)

    def client_evaluation(self, client: Client) -> Tuple[ParamDict, Optional[UnitPattern]]:
        params, pattern = super().client_evaluation(client)
        personal_head = client.state.get("personal_head")
        if personal_head is not None:
            params = copy_params(params)
            params.update(personal_head)
        return params, pattern
