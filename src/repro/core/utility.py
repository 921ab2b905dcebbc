"""Accuracy utility function used by the P-UCBV reward (Eq. 15).

The paper transforms raw accuracy through ``U(x) = 10 - 20 / (1 + e^(0.35 x))``
(with accuracy expressed in percent) so that marginal accuracy gains near
convergence contribute less to the reward than early gains.
"""

from __future__ import annotations

import numpy as np

from ..util import in_range


def accuracy_utility(accuracy_percent: float, *, scale: float = 0.35,
                     amplitude: float = 10.0) -> float:
    """``U(x) = amplitude - 2 * amplitude / (1 + exp(scale * x))``.

    ``accuracy_percent`` is the accuracy in percent (0-100).  The function is
    monotone increasing, equals 0 at 0% and saturates at ``amplitude``.
    """
    in_range(accuracy_percent, "accuracy_percent", 0, 100)
    x = float(accuracy_percent)
    return amplitude - 2.0 * amplitude / (1.0 + float(np.exp(scale * x)))


def utility_gain(current_accuracy_percent: float,
                 previous_accuracy_percent: float, **kwargs) -> float:
    """``U(a_r) - U(a_{r-1})``: the accuracy part of the reward."""
    return (accuracy_utility(current_accuracy_percent, **kwargs)
            - accuracy_utility(previous_accuracy_percent, **kwargs))
