"""Performance benchmarking (``repro bench``): one harness, seven axes.

:mod:`~repro.benchmarking.harness` owns the run → gate → write → format
path; importing the axis modules below is what fills its ``AXES`` table.
"""

from .harness import AXES, Axis, format_report, run_bench
from .fanout import (BENCH_METHOD, fanout_preset, measure_aggregation_modes,
                     measure_fanout_bytes)
from .fleet import fleet_preset, measure_construction, measure_smoke
from .checkpoint import measure_checkpoint
from .codec import measure_codec
from .faults import fault_preset, measure_faults
from .batch import batch_preset, measure_batching
from .dist import measure_dist_cell, measure_shard_balance

__all__ = [
    "AXES",
    "Axis",
    "format_report",
    "run_bench",
    "BENCH_METHOD",
    "fanout_preset",
    "measure_aggregation_modes",
    "measure_fanout_bytes",
    "fleet_preset",
    "measure_construction",
    "measure_smoke",
    "measure_checkpoint",
    "measure_codec",
    "fault_preset",
    "measure_faults",
    "batch_preset",
    "measure_batching",
    "measure_dist_cell",
    "measure_shard_balance",
]
