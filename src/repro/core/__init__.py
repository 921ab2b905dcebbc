"""FedLPS core: importance learning, learnable sparse training and P-UCBV."""

from .bandit import PUCBVAgent, RatioPartition
from .convergence import (empirical_parameter_gap, gradient_norm_trajectory,
                          lemma1_gap_bound, max_learning_rate, theorem1_bound)
from .importance import ImportanceIndicator, initialize_importance
from .sparse_training import (SparseTrainingResult,
                              learnable_sparse_training_cohort)
from .strategy import PATTERN_MODES, RATIO_POLICIES, FedLPS
from .utility import accuracy_utility, utility_gain

__all__ = [
    "FedLPS",
    "RATIO_POLICIES",
    "PATTERN_MODES",
    "ImportanceIndicator",
    "initialize_importance",
    "learnable_sparse_training_cohort",
    "SparseTrainingResult",
    "PUCBVAgent",
    "RatioPartition",
    "accuracy_utility",
    "utility_gain",
    "lemma1_gap_bound",
    "theorem1_bound",
    "max_learning_rate",
    "empirical_parameter_gap",
    "gradient_norm_trajectory",
]
