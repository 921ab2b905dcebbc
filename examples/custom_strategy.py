"""Extending the library: writing a custom federated strategy.

A method subclasses :class:`repro.federated.strategy.Strategy` (or a built-in
method), overrides ``local_update`` and says only what differs from dense
FedAvg.  Two helpers on the base carry everything else:

* ``self._train(round_index, clients, **overrides)`` runs local SGD under the
  config's optimizer settings — replace any (``learning_rate=``,
  ``iterations=``) or add a trainer option (``prox_mu=``, ``param_masks=``);
* ``self._report(client, result, ...)`` wraps the metrics, the upload and
  the round's FLOPs / traffic footprint into the ``ClientUpdate``.

Which model a client is tested with is a pair of hooks.
``client_evaluation(client)`` returns the parameters (and optional sub-model
pattern) it infers with — the global model unless overridden.
``evaluates_from_state(state)`` tells the server whether, for a client
holding ``state``, those come from ``client.state`` and nothing else; the
server then remembers the client's accuracy until its state is next written
instead of re-testing it every round.  Return ``True`` only for such states
(FedLPS does once ``state["personal_params"]`` is set) and leave the default
``False`` whenever ``client_evaluation`` reads ``self.global_params`` or any
other attribute of the strategy.  Both examples below inherit the pair
unchanged: ``FedLPSTopUp`` keeps FedLPS's on-device model and its opt-in,
``CapabilityStepFedAvg`` tests the global model and is re-tested every round.

Two examples, plugged into the same trainer, datasets and cost model as every
built-in method:

* ``FedLPSTopUp`` reuses FedLPS's learnable sparse training but tops every
  client's sparse ratio up by a fixed margin above its bandit decision.  It
  overrides ``local_update`` alone, so under ``batch_cohort`` it keeps
  running client by client — the override is never bypassed.
* ``CapabilityStepFedAvg`` is dense FedAvg whose weak devices take smaller
  steps.  It also supplies ``local_update_cohort``, the same update for a
  whole cohort (``_train`` runs several clients as one stacked tensor
  program), so ``batch_cohort=True`` batches it with bit-identical results.

Run with::

    python examples/custom_strategy.py
"""

from __future__ import annotations

import numpy as np

from repro.core import FedLPS
from repro.data import build_federated_dataset
from repro.federated import FederatedConfig, run_federated
from repro.federated.client import Client
from repro.federated.strategy import ClientUpdate, Strategy
from repro.models import build_model_for_dataset


class FedLPSTopUp(FedLPS):
    """FedLPS with a safety margin added to every bandit-chosen ratio."""

    name = "fedlps-topup"

    def __init__(self, margin: float = 0.1, **kwargs) -> None:
        super().__init__(**kwargs)
        self.margin = margin

    def local_update(self, round_index: int, client: Client) -> ClientUpdate:
        state_ratio = client.state.get("ratio")
        if state_ratio is not None:
            client.state["ratio"] = float(np.clip(state_ratio + self.margin,
                                                  self.ratio_min, 1.0))
        return super().local_update(round_index, client)


class CapabilityStepFedAvg(Strategy):
    """Dense FedAvg with a learning rate scaled by the device capability."""

    name = "capability-step"

    def _step_size(self, client: Client) -> float:
        return self.context.config.learning_rate * client.capability

    def local_update(self, round_index: int, client: Client) -> ClientUpdate:
        result = self._train(round_index, [client],
                             learning_rate=self._step_size(client))[0]
        return self._report(client, result)

    def local_update_cohort(self, round_index, clients):
        # the stacked trainer takes one learning rate per client
        rates = np.array([self._step_size(client) for client in clients])
        results = self._train(round_index, clients, learning_rate=rates)
        return [self._report(client, result)
                for client, result in zip(clients, results)]


def main() -> None:
    dataset = build_federated_dataset("mnist", num_clients=10,
                                      examples_per_client=50, seed=11)
    config = FederatedConfig(num_rounds=10, clients_per_round=3,
                             local_iterations=6, seed=11)

    def model_builder():
        return build_model_for_dataset("mnist", seed=11)

    for strategy in (FedLPS(), FedLPSTopUp(margin=0.15),
                     CapabilityStepFedAvg()):
        history = run_federated(strategy, dataset, model_builder, config=config)
        ratios = [ratio for record in history.records
                  for ratio in record.sparse_ratios.values()]
        print(f"{history.method:14s} accuracy={history.final_accuracy():.3f} "
              f"mean ratio={np.mean(ratios):.2f} "
              f"flops={history.total_flops:.3e}")


if __name__ == "__main__":
    main()
