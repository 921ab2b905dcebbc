"""The importance-associated regularization loss of FedLPS (Eq. 6-9).

``L_k = L_tr + mu * L_pr + lambda * L_ir`` where

* ``L_tr`` is the task loss of the *masked* model (Eq. 6),
* ``L_pr = ||omega - omega_global||^2`` keeps local parameters close to the
  global model (Eq. 7),
* ``L_ir = ||Q - sigmoid(|omega|_J)||^2`` keeps the importance indicator from
  drifting or over-sharpening (Eq. 8).

The trainer (:mod:`repro.core.sparse_training`) spells ``L_pr`` and ``L_ir``
along the client axis; here is how the two importance gradients meet.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np


def combine_unit_gradients(task_gate_grads: Mapping[str, np.ndarray],
                           regularizer_grads: Mapping[str, np.ndarray]
                           ) -> Dict[str, np.ndarray]:
    """Total gradient of the loss with respect to the importance indicator.

    The task contribution arrives through the unit gates (straight-through
    estimate of Eq. 4's step function); the regularizer contribution comes
    from Eq. (8).
    """
    combined: Dict[str, np.ndarray] = {}
    for name in task_gate_grads:
        combined[name] = np.asarray(task_gate_grads[name], dtype=np.float64) + \
            np.asarray(regularizer_grads[name], dtype=np.float64)
    return combined
