"""The Table II ablation variants of FedLPS, as registry entries.

Each reuses the :class:`repro.core.FedLPS` implementation with one ratio
policy and registers under its own name (``flst``, ``rcr``, ``p-ucbv``):

* **FLST** — learnable sparse training with a *fixed* ratio (0.5 for every
  client): isolates the contribution of the learnable pattern.
* **RCR** — learnable pattern but the rigid Resource-Controlled Ratio rule
  (ratio = device capability) used by HeteroFL/FjORD/FedRolex.
* **P-UCBV** — the full method (adaptive ratio + learnable pattern).

Figure 9's pattern ablations need no factory: each cell is the registry's
``fedlps`` with constructor kwargs, a ``(label, "fedlps", {"ratio_policy":
"fixed", "fixed_ratio": r, "pattern_mode": mode, ...})`` entry of
:func:`~repro.experiments.runner.run_grid`.

The "Fix" vs "Dyn" rows of Table II refer to static vs dynamically
fluctuating device resources; that is a property of the device fleet
(``DeviceProfile.dynamic``) rather than of the strategy, so Table II sweeps
the preset's ``dynamic_resources`` field as a grid axis.
"""

from __future__ import annotations

from ..core.strategy import FedLPS


def flst(fixed_ratio: float = 0.5, **kwargs) -> FedLPS:
    """FLST: learnable patterns, fixed sparse ratio for every client."""
    strategy = FedLPS(ratio_policy="fixed", fixed_ratio=fixed_ratio, **kwargs)
    strategy.name = "flst"
    return strategy


def rcr(**kwargs) -> FedLPS:
    """RCR: learnable patterns, rigid capability-controlled sparse ratios."""
    strategy = FedLPS(ratio_policy="capability", **kwargs)
    strategy.name = "rcr"
    return strategy


def pucbv(**kwargs) -> FedLPS:
    """P-UCBV: the full FedLPS (adaptive ratios + learnable patterns)."""
    strategy = FedLPS(ratio_policy="pucbv", **kwargs)
    strategy.name = "p-ucbv"
    return strategy
