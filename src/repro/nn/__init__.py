"""``repro.nn``: a from-scratch numpy neural-network substrate.

The package provides layers with hand-written forward/backward passes,
losses, the flat-arena SGD step, a :class:`Sequential` model container and the
structured-unit machinery (unit gates, unit masks, per-unit magnitudes) that
FedLPS's learnable sparsification builds on.
"""

from .activations import Flatten, ReLU, Sigmoid, Tanh, sigmoid, softmax
from .arena import Arena, cohort_squared_norms
from .base import Layer
from .batched import (BatchedModel, batchable_model, stack_param_dicts,
                      unstack_param_dict)
from .conv import AvgPool2d, Conv2d, MaxPool2d
from .dense import Dense
from .embedding import Embedding
from .losses import (accuracy, accuracy_cohort, softmax_cross_entropy,
                     softmax_cross_entropy_cohort)
from .model import Sequential, UnitGroup
from .optim import BatchedSGD
from .recurrent import LSTM, LastTimestep
from . import params

__all__ = [
    "Layer",
    "Arena",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Embedding",
    "LSTM",
    "LastTimestep",
    "Sequential",
    "UnitGroup",
    "BatchedSGD",
    "BatchedModel",
    "batchable_model",
    "stack_param_dicts",
    "unstack_param_dict",
    "cohort_squared_norms",
    "softmax",
    "sigmoid",
    "softmax_cross_entropy",
    "softmax_cross_entropy_cohort",
    "accuracy",
    "accuracy_cohort",
    "params",
]
