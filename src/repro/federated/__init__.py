"""Federated-learning substrate: clients, strategies, trainer, aggregation."""

from .aggregation import (aggregate_residuals, fedavg, masked_average,
                          staleness_weighted_average)
from .batched import (LocalUpdateResult, client_batch_schedule,
                      train_cohort_batched)
from .client import Client
from .config import AGGREGATIONS, FederatedConfig, FleetConfig
from .evaluation import average_personalized_accuracy, evaluate_params
from .fleet import ClientFleet, FleetStateStore, bind_client_state_initializer
from .strategy import ClientUpdate, Strategy, StrategyContext
from .trainer import FederatedTrainer, run_federated

__all__ = [
    "Client",
    "FederatedConfig",
    "FleetConfig",
    "ClientFleet",
    "FleetStateStore",
    "bind_client_state_initializer",
    "AGGREGATIONS",
    "Strategy",
    "StrategyContext",
    "ClientUpdate",
    "FederatedTrainer",
    "run_federated",
    "train_cohort_batched",
    "client_batch_schedule",
    "LocalUpdateResult",
    "evaluate_params",
    "average_personalized_accuracy",
    "fedavg",
    "aggregate_residuals",
    "masked_average",
    "staleness_weighted_average",
]
