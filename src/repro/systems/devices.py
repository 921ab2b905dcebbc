"""Device capability model for system heterogeneity.

Following the paper, every client is assigned a capability level
``z_k`` from ``{1, 1/2, 1/4, 1/8, 1/16}``; the strongest level corresponds to
an Adreno-630-class accelerator (727 GFLOP/s).  Local resources can fluctuate
between rounds because users run other tasks concurrently, which the paper
exercises in the "Dyn" ablation rows of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from ..util import in_range, non_negative_int, positive, positive_int

#: peak throughput (FLOP/s) of the z = 1 reference device (Adreno 630).
REFERENCE_FLOPS_PER_SECOND = 727e9

#: reference uplink/downlink bandwidth in bytes per second (~20 Mbit/s edge link).
REFERENCE_BANDWIDTH_BYTES = 2.5e6

#: the five capability tiers used throughout the paper.
CAPABILITY_LEVELS = (1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16)

#: smallest sub-model fraction any device is assumed to be able to host.
#: The paper's backbones (VGG11-16) are 2-3 orders of magnitude larger than
#: the CPU-sized models in this reproduction, so a 1/16-capability device can
#: still hold a quarter of *our* backbone even though it could only hold 1/16
#: of VGG.  Capability still scales the simulated *time* cost, so stragglers
#: and heterogeneity effects are preserved; this floor only prevents the
#: scaled-down models from being pruned into uselessness (README,
#: "Departures from the paper").
MIN_AFFORDABLE_RATIO = 0.4


def affordable_ratio(capability: float, *,
                     floor: float = MIN_AFFORDABLE_RATIO) -> float:
    """Largest sub-model fraction a device of ``capability`` can host."""
    return max(float(in_range(capability, "capability", 0, 1, low_open=True)),
               floor)

#: heterogeneity presets of the Figure 7/8 sweep.
HETEROGENEITY_PRESETS: Dict[str, Sequence[float]] = {
    "none": (1.0,),
    "low": (1.0, 1 / 2),
    "median": (1.0, 1 / 2, 1 / 4),
    "high": CAPABILITY_LEVELS,
}


@dataclass
class DeviceProfile:
    """Static description of one edge device plus its fluctuation behaviour."""

    client_id: int
    capability: float
    bandwidth_scale: float = 1.0
    dynamic: bool = False
    fluctuation: float = 0.3

    def __post_init__(self) -> None:
        in_range(self.capability, "capability", 0, 1, low_open=True)
        positive(self.bandwidth_scale, "bandwidth_scale")
        in_range(self.fluctuation, "fluctuation", 0, 1, high_open=True)

    @property
    def flops_per_second(self) -> float:
        """Peak local compute throughput in FLOP/s."""
        return self.capability * REFERENCE_FLOPS_PER_SECOND

    @property
    def bandwidth_bytes_per_second(self) -> float:
        """Peak local link bandwidth in bytes/s."""
        return self.bandwidth_scale * REFERENCE_BANDWIDTH_BYTES

    def available_capability(self, round_index: int, *, seed: int = 0) -> float:
        """Effective capability in a given round.

        Static devices always run at their peak; dynamic devices lose up to
        ``fluctuation`` of their capacity to background tasks, sampled
        deterministically from ``(round_index, client_id, seed)`` so repeated
        simulations agree.
        """
        if not self.dynamic:
            return self.capability
        rng = np.random.default_rng(
            (seed + 1) * 1_000_003 + self.client_id * 7919 + round_index)
        drop = rng.uniform(0.0, self.fluctuation)
        return self.capability * (1.0 - drop)


@dataclass
class DeviceFleet:
    """The set of device profiles participating in a federation."""

    profiles: Dict[int, DeviceProfile] = field(default_factory=dict)

    def __getitem__(self, client_id: int) -> DeviceProfile:
        if client_id not in self.profiles:
            raise KeyError(f"no device profile for client {client_id}")
        return self.profiles[client_id]

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def client_ids(self) -> np.ndarray:
        ids = np.asarray(sorted(self.profiles.keys()), dtype=np.int64)
        ids.flags.writeable = False
        return ids

    def capabilities(self) -> Dict[int, float]:
        return {cid: profile.capability for cid, profile in self.profiles.items()}


#: default bandwidth tiers of :func:`sample_device_fleet`
DEFAULT_BANDWIDTH_LEVELS = (1.0, 0.75, 0.5)


def _check_fleet(num_clients: int, levels: Sequence[float],
                 bandwidth_levels: Sequence[float], seed: int) -> None:
    positive_int(num_clients, "num_clients")
    non_negative_int(seed, "seed")
    if len(levels) == 0 or len(bandwidth_levels) == 0:
        raise ValueError("levels and bandwidth_levels must not be empty")
    for level in levels:
        in_range(level, "levels", 0, 1, low_open=True)
    for level in bandwidth_levels:
        positive(level, "bandwidth_levels")


def sample_device_profile(client_id: int, *,
                          levels: Sequence[float] = CAPABILITY_LEVELS,
                          dynamic: bool = False, seed: int = 0,
                          bandwidth_levels: Sequence[float] = DEFAULT_BANDWIDTH_LEVELS
                          ) -> DeviceProfile:
    """One client's profile, pure in ``(seed, client_id)``.

    Bit-identical to the profile :func:`sample_device_fleet` assigns the
    same client: the eager sampler draws ``choice(levels)`` then
    ``choice(bandwidth_levels)`` per client from one sequential PCG64
    stream, and each bounded ``choice`` over a non-singleton population
    consumes exactly one buffered 32-bit half of a 64-bit PCG64 word (a
    singleton population consumes nothing).  Jumping the bit generator to
    client ``k``'s half-word offset with ``advance`` therefore reproduces
    the sequential draws without generating clients ``0..k-1``.

    This deliberately mirrors the historical stream instead of seeding an
    independent generator per client, because the contract is bit-identity
    with existing eager fleets (golden fixtures included).  It leans on two
    numpy properties pinned by tests/federated/test_fleet.py's equivalence
    suite: the buffered 32-bit bounded-``choice`` path, and its Lemire
    rejection (probability ~2**-32 per draw, which would consume an extra
    half-word) not triggering for the seeds/sizes in use.  If a numpy
    upgrade changes either, that suite fails loudly — update both samplers
    together.  The bounded form of the claim: a fleet of N clients makes
    ~2N draws, so roughly N*2**-31 of seeds contain a rejection that would
    shift every *eager* profile after it while the lazy path reproduces
    the unshifted stream.  At the fleet scales where that probability
    stops being negligible (millions of clients) the eager sampler is
    never built, so the lazy path's own purity in ``(seed, client_id)`` —
    which holds unconditionally — is the operative contract.
    """
    non_negative_int(client_id, "client_id")
    halves = int(len(levels) > 1) + int(len(bandwidth_levels) > 1)
    rng = np.random.default_rng(seed)
    if halves == 2:
        rng.bit_generator.advance(client_id)
    elif halves == 1:
        rng.bit_generator.advance(client_id // 2)
        if client_id % 2:
            # burn the first 32-bit half of the word (range 2 never rejects)
            rng.integers(0, 2)
    capability = float(rng.choice(levels))
    bandwidth = float(rng.choice(bandwidth_levels))
    return DeviceProfile(client_id=client_id, capability=capability,
                         bandwidth_scale=bandwidth, dynamic=dynamic)


class VirtualDeviceFleet(DeviceFleet):
    """A device fleet whose profiles materialize lazily, O(cohort).

    Profiles come from :func:`sample_device_profile`, so any client's device
    is available in O(1) without sampling the rest of the fleet and matches
    :func:`sample_device_fleet` bit-for-bit.  A small memo keeps the current
    working set of profiles; ``capabilities()`` (an O(N) summary) remains
    available but materializes every profile.
    """

    #: memoized profiles kept per fleet (a cohort plus slack)
    MEMO_LIMIT = 4096

    def __init__(self, num_clients: int, *,
                 levels: Sequence[float] = CAPABILITY_LEVELS,
                 dynamic: bool = False, seed: int = 0,
                 bandwidth_levels: Sequence[float] = DEFAULT_BANDWIDTH_LEVELS
                 ) -> None:
        _check_fleet(num_clients, levels, bandwidth_levels, seed)
        super().__init__(profiles={})
        self.num_clients = num_clients
        self.levels = tuple(levels)
        self.bandwidth_levels = tuple(bandwidth_levels)
        self.dynamic = dynamic
        self.seed = seed
        self._ids: np.ndarray | None = None

    def __getitem__(self, client_id: int) -> DeviceProfile:
        if not 0 <= client_id < self.num_clients:
            raise KeyError(f"no device profile for client {client_id}")
        profile = self.profiles.get(client_id)
        if profile is None:
            profile = sample_device_profile(
                client_id, levels=self.levels, dynamic=self.dynamic,
                seed=self.seed, bandwidth_levels=self.bandwidth_levels)
            if len(self.profiles) >= self.MEMO_LIMIT:
                self.profiles.clear()
            self.profiles[client_id] = profile
        return profile

    def __len__(self) -> int:
        return self.num_clients

    @property
    def client_ids(self) -> np.ndarray:
        ids = self._ids
        if ids is None or len(ids) != self.num_clients:
            ids = np.arange(self.num_clients, dtype=np.int64)
            ids.flags.writeable = False
            self._ids = ids
        return ids

    def capabilities(self) -> Dict[int, float]:
        return {cid: self[cid].capability for cid in range(self.num_clients)}

    def __getstate__(self) -> Dict[str, object]:
        # the memo is a cache, not state: ship only the pure description so
        # broadcast payloads stay O(1) regardless of fleet size
        return {"num_clients": self.num_clients, "levels": self.levels,
                "bandwidth_levels": self.bandwidth_levels,
                "dynamic": self.dynamic, "seed": self.seed}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(state["num_clients"], levels=state["levels"],
                      dynamic=state["dynamic"], seed=state["seed"],
                      bandwidth_levels=state["bandwidth_levels"])


def sample_device_fleet(num_clients: int, *, levels: Sequence[float] = CAPABILITY_LEVELS,
                        dynamic: bool = False, seed: int = 0,
                        bandwidth_levels: Sequence[float] = DEFAULT_BANDWIDTH_LEVELS
                        ) -> DeviceFleet:
    """Sample a fleet of devices with capabilities drawn uniformly from ``levels``.

    This mirrors the paper's configuration: capability levels are sampled
    uniformly across clients, and bandwidth varies moderately and
    independently of compute.  This sequential O(N) sampler is the
    reference that :class:`VirtualDeviceFleet` reproduces, profile for
    profile, in O(1) per client.
    """
    _check_fleet(num_clients, levels, bandwidth_levels, seed)
    rng = np.random.default_rng(seed)
    profiles: Dict[int, DeviceProfile] = {}
    for client_id in range(num_clients):
        capability = float(rng.choice(levels))
        bandwidth = float(rng.choice(bandwidth_levels))
        profiles[client_id] = DeviceProfile(
            client_id=client_id, capability=capability,
            bandwidth_scale=bandwidth, dynamic=dynamic)
    return DeviceFleet(profiles)


def fleet_for_heterogeneity(num_clients: int, level: str, *, dynamic: bool = False,
                            seed: int = 0) -> DeviceFleet:
    """Build a fleet for one of the paper's heterogeneity presets."""
    if level not in HETEROGENEITY_PRESETS:
        raise ValueError(
            f"unknown heterogeneity level {level!r}; "
            f"choose from {sorted(HETEROGENEITY_PRESETS)}")
    return sample_device_fleet(num_clients, levels=HETEROGENEITY_PRESETS[level],
                               dynamic=dynamic, seed=seed)
