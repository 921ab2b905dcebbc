"""Named scenarios: the system-heterogeneity counterpart of experiment presets.

Four scenarios ship with the repo; experiments refer to them by name (the
``scenario`` field of an :class:`~repro.experiments.presets.ExperimentPreset`,
``--scenario`` on the CLI):

* ``ideal`` — the paper's assumption: every sampled client always finishes.
  Resolves to ``None`` so the trainer runs the exact legacy round loop.
* ``flaky`` — a quarter of invitations go unanswered (Bernoulli
  availability); the server over-selects by 50% to compensate and waits for
  everyone who did show up.
* ``deadline-tight`` — stragglers spike to 4x latency with probability 0.25
  and the server drops anyone slower than twice the round's fastest client,
  inviting 50% extra clients up front.  The relative deadline keeps the
  scenario meaningful across datasets/model sizes.
* ``trace`` — availability follows a deterministic diurnal schedule (each
  client has a duty cycle and phase derived from the seed), with a loose
  relative deadline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..util import in_range, positive_int
from .config import ScenarioConfig

#: the named scenarios, in the order used by sweeps and docs
SCENARIO_NAMES = ("ideal", "flaky", "deadline-tight", "trace")


def available_scenarios() -> List[str]:
    """Names accepted by :func:`build_scenario` (and the CLI)."""
    return list(SCENARIO_NAMES)


def synthetic_availability_trace(num_clients: int, num_rounds: int, *,
                                 seed: int = 0, duty_cycle: float = 0.6,
                                 min_period: int = 4, max_period: int = 10
                                 ) -> Dict[int, Tuple[int, ...]]:
    """A deterministic diurnal availability schedule.

    Every client gets a period and phase drawn from ``seed`` and is available
    during the first ``duty_cycle`` fraction of each of its periods — a toy
    version of the day/night cycles observed in real cross-device traces.
    Rounds are guaranteed at least one available client (the round-robin
    fallback ``round_index % num_clients``) so a federation never stalls
    completely.
    """
    positive_int(num_clients, "num_clients")
    positive_int(num_rounds, "num_rounds")
    in_range(duty_cycle, "duty_cycle", 0, 1, low_open=True)
    in_range(min_period, "min_period", 2, integral=True)
    in_range(max_period, "max_period", min_period, integral=True)
    rng = np.random.default_rng((seed, num_clients, num_rounds))
    periods = rng.integers(min_period, max_period + 1, size=num_clients)
    phases = rng.integers(0, max_period, size=num_clients)
    trace: Dict[int, Tuple[int, ...]] = {}
    for round_index in range(num_rounds):
        available = [client_id for client_id in range(num_clients)
                     if ((round_index + int(phases[client_id]))
                         % int(periods[client_id]))
                     < math.ceil(duty_cycle * int(periods[client_id]))]
        if not available:
            available = [round_index % num_clients]
        trace[round_index] = tuple(available)
    return trace


def build_scenario(name: str, *, num_clients: int, num_rounds: int,
                   seed: int = 0) -> Optional[ScenarioConfig]:
    """Materialize a named scenario (``None`` for ``ideal``).

    ``num_clients``/``num_rounds``/``seed`` parameterize trace generation so
    the same name scales with the preset it is attached to.
    """
    key = name.lower()
    if key == "ideal":
        return None
    if key == "flaky":
        return ScenarioConfig(name="flaky", policy="wait-all",
                              availability=0.75, over_selection=1.5)
    if key == "deadline-tight":
        return ScenarioConfig(name="deadline-tight", policy="deadline",
                              deadline_factor=2.0, over_selection=1.5,
                              straggler_prob=0.25, straggler_slowdown=4.0)
    if key == "trace":
        return ScenarioConfig(
            name="trace", policy="deadline", deadline_factor=3.0,
            availability_trace=synthetic_availability_trace(
                num_clients, num_rounds, seed=seed))
    raise ValueError(
        f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
