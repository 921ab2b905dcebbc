"""Personalized (dense) federated learning baselines.

* Ditto trains a personal model regularized towards the global one in
  addition to the standard global update.
* FedPer / FedRep split the model into a shared body and a personal head.
* Per-FedAvg personalizes by fine-tuning the meta-learned global model on
  local data before inference.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from ..federated.client import Client
from ..federated.strategy import ClientUpdate, Strategy
from ..federated.aggregation import fedavg
from ..nn.params import ParamDict, copy_params
from ..util import non_negative, non_negative_int, positive, positive_int


HEAD_PREFIX = "head."


def head_keys(params: ParamDict) -> List[str]:
    """Parameter keys belonging to the personalization head (the output layer)."""
    return [key for key in params if key.startswith(HEAD_PREFIX)]


def body_keys(params: ParamDict) -> List[str]:
    """Parameter keys belonging to the shared representation body."""
    return [key for key in params if not key.startswith(HEAD_PREFIX)]


class Ditto(Strategy):
    """Ditto: fair/robust personalization via a proximally regularized personal model.

    Each selected client performs two local passes: the standard global-model
    update (uploaded and averaged) and a personal-model update with a proximal
    pull towards the current global parameters (kept locally).  The double
    work is reflected in the FLOP accounting, matching Table I where Ditto
    costs twice FedAvg.
    """

    name = "ditto"

    def __init__(self, personal_mu: float = 0.1) -> None:
        super().__init__()
        self.personal_mu = non_negative(personal_mu, "personal_mu")

    def local_updates(self, round_index: int,
                      clients: List[Client]) -> List[ClientUpdate]:
        # one batch stream per client feeds both passes, the personal after
        # the global
        rngs = [self._client_rng(round_index, client.client_id)
                for client in clients]
        global_results = self._train(round_index, clients, rngs=rngs)
        personal_results = self._train(
            round_index, clients, rngs=rngs,
            starts=[client.state.get("personal_params", self.global_params)
                    for client in clients],
            prox_mu=self.personal_mu, prox_center=self.global_params)
        updates = []
        for client, global_result, personal_result in zip(
                clients, global_results, personal_results):
            client.state["personal_params"] = personal_result.params
            update = self._report(client, personal_result,
                                  params=global_result.params)
            update.flops *= 2.0
            updates.append(update)
        return updates

    def client_evaluation(self, client: Client) -> Tuple[ParamDict, None]:
        personal = client.state.get("personal_params")
        return (personal if personal is not None else self.global_params), None

    def evaluates_from_state(self, state: Mapping) -> bool:
        return state.get("personal_params") is not None


class FedPer(Strategy):
    """FedPer: shared body, personal classification head kept on-device."""

    name = "fedper"

    def _with_personal_head(self, client: Client) -> ParamDict:
        """The global parameters under the client's own head, once it has one."""
        params = copy_params(self.global_params)
        personal_head = client.state.get("personal_head")
        if personal_head is not None:
            params.update(personal_head)
        return params

    def _report_body(self, client: Client, result) -> ClientUpdate:
        """Keep the trained head on the device and report the rest."""
        heads = head_keys(result.params)
        client.state["personal_head"] = {key: result.params[key]
                                         for key in heads}
        update = self._report(client, result)
        # the head stays local, so the uplink volume shrinks accordingly
        head_fraction = sum(result.params[key].size for key in heads) \
            / max(sum(v.size for v in result.params.values()), 1)
        update.upload_bytes *= 1.0 - head_fraction
        return update

    def local_updates(self, round_index: int,
                      clients: List[Client]) -> List[ClientUpdate]:
        results = self._train(round_index, clients, starts=[
            self._with_personal_head(client) for client in clients])
        return [self._report_body(client, result)
                for client, result in zip(clients, results)]

    def aggregate(self, round_index: int, updates: List[ClientUpdate]) -> None:
        if not updates:
            return
        merged = fedavg([u.params for u in updates],
                        [u.num_examples for u in updates])
        # only the body is shared; the global head keeps its previous value
        for key in head_keys(merged):
            merged[key] = self.global_params[key]
        self.global_params = merged

    def client_evaluation(self, client: Client) -> Tuple[ParamDict, None]:
        return self._with_personal_head(client), None


class FedRep(FedPer):
    """FedRep: like FedPer, but the head and body are trained in two phases."""

    name = "fedrep"

    def __init__(self, head_iterations: Optional[int] = None) -> None:
        super().__init__()
        self.head_iterations = positive_int(head_iterations, "head_iterations",
                                            optional=True)

    def local_updates(self, round_index: int,
                      clients: List[Client]) -> List[ClientUpdate]:
        local_iterations = self._require_context().config.local_iterations
        # one batch stream per client feeds both phases
        rngs = [self._client_rng(round_index, client.client_id)
                for client in clients]
        head_iters = self.head_iterations or max(1, local_iterations // 2)
        # phase 1: adapt the personal head with the body frozen
        head_results = self._train(
            round_index, clients, rngs=rngs, iterations=head_iters,
            starts=[self._with_personal_head(client) for client in clients],
            trainable_keys=head_keys(self.global_params))
        # phase 2: adapt the shared body with the head frozen
        body_results = self._train(
            round_index, clients, rngs=rngs,
            starts=[result.params for result in head_results],
            trainable_keys=body_keys(self.global_params))
        updates = []
        for client, result in zip(clients, body_results):
            update = self._report_body(client, result)
            update.flops *= 1.0 + head_iters / local_iterations
            updates.append(update)
        return updates


class PerFedAvg(Strategy):
    """Per-FedAvg: MAML-style personalization by local fine-tuning at inference.

    Training follows FedAvg (first-order approximation); personalization
    happens at evaluation time, where every client adapts the global model
    with a few SGD steps on its local training data before testing.
    """

    name = "perfedavg"

    def __init__(self, adaptation_steps: int = 2,
                 adaptation_lr: Optional[float] = None) -> None:
        super().__init__()
        self.adaptation_steps = non_negative_int(adaptation_steps,
                                                 "adaptation_steps")
        self.adaptation_lr = positive(adaptation_lr, "adaptation_lr",
                                      optional=True)

    def client_evaluation(self, client: Client) -> Tuple[ParamDict, None]:
        if self.adaptation_steps == 0:
            return self.global_params, None
        options = {"iterations": self.adaptation_steps, "momentum": 0.0}
        if self.adaptation_lr:
            options["learning_rate"] = self.adaptation_lr
        # round 10_000: an rng stream no training round uses
        return self._train(10_000, [client], **options)[0].params, None
