"""Federated-learning substrate: clients, strategies, trainer, aggregation."""

from .aggregation import aggregate_residuals, fedavg, masked_average
from .batched import (LocalUpdateResult, client_batch_schedule,
                      train_cohort_batched)
from .client import Client
from .config import AGGREGATIONS, FederatedConfig, FleetConfig
from .evaluation import evaluate_cohort, evaluate_params
from .fleet import ClientFleet, FleetStateStore
from .strategy import ClientUpdate, Strategy, StrategyContext
from .trainer import FederatedTrainer, run_federated

__all__ = [
    "Client",
    "FederatedConfig",
    "FleetConfig",
    "ClientFleet",
    "FleetStateStore",
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
    "evaluate_cohort",
    "fedavg",
    "aggregate_residuals",
    "masked_average",
]
