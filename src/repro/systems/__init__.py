"""Device capability, cost and metrics simulation."""

from .cost import CostBreakdown, LocalCostModel
from .devices import (CAPABILITY_LEVELS, DEFAULT_BANDWIDTH_LEVELS,
                      HETEROGENEITY_PRESETS, MIN_AFFORDABLE_RATIO,
                      REFERENCE_BANDWIDTH_BYTES, REFERENCE_FLOPS_PER_SECOND,
                      DeviceFleet, DeviceProfile, VirtualDeviceFleet,
                      affordable_ratio, sample_device_profile)
from .metrics import RoundRecord, TrainingHistory

__all__ = [
    "DeviceProfile",
    "DeviceFleet",
    "VirtualDeviceFleet",
    "sample_device_profile",
    "DEFAULT_BANDWIDTH_LEVELS",
    "CAPABILITY_LEVELS",
    "HETEROGENEITY_PRESETS",
    "MIN_AFFORDABLE_RATIO",
    "affordable_ratio",
    "REFERENCE_FLOPS_PER_SECOND",
    "REFERENCE_BANDWIDTH_BYTES",
    "LocalCostModel",
    "CostBreakdown",
    "RoundRecord",
    "TrainingHistory",
]
