"""Shared configuration for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper.  The
default scale is deliberately small so the whole harness finishes in a few
minutes on a laptop CPU; set the environment variable ``REPRO_BENCH_SCALE``
to a value > 1 to enlarge the runs towards paper scale (more clients, more
rounds, more local work).

The tables and figures share many runs (Fig. 4 re-plots Fig. 3's, Fig. 8
and Fig. 9b are slices of Fig. 7 and Fig. 9a, Fig. 3 and Fig. 5 overlap
Table I), so every call passes the one session-wide ``paper_cache``: a
spec an earlier module already ran is read back instead of re-trained,
with byte-identical rows.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.experiments import ResultCache


@pytest.fixture(scope="session")
def paper_cache(tmp_path_factory) -> ResultCache:
    """One result cache shared by every benchmark module of the session."""
    return ResultCache(tmp_path_factory.mktemp("paper-cache"))


def bench_scale() -> float:
    """User-controlled scale factor for benchmark runs."""
    try:
        return max(float(os.environ.get("REPRO_BENCH_SCALE", "1")), 0.25)
    except ValueError:
        return 1.0


def bench_overrides(**extra) -> Dict[str, object]:
    """Preset overrides shared by all benchmark modules."""
    scale = bench_scale()
    overrides: Dict[str, object] = {
        "num_clients": max(6, int(round(8 * scale))),
        "examples_per_client": max(30, int(round(40 * scale))),
        "num_rounds": max(5, int(round(8 * scale))),
        "clients_per_round": 3,
        "local_iterations": max(3, int(round(4 * scale))),
        "batch_size": 16,
        "seed": 7,
    }
    overrides.update(extra)
    return overrides


def print_rows(title: str, rows: List[Dict[str, object]]) -> None:
    """Print benchmark result rows in a compact aligned table."""
    if not rows:
        print(f"\n=== {title}: no rows ===")
        return
    columns = list(rows[0].keys())
    print(f"\n=== {title} ===")
    print(" | ".join(f"{name:>20s}" for name in columns))
    for row in rows:
        cells = []
        for name in columns:
            value = row.get(name)
            if isinstance(value, float):
                cells.append(f"{value:>20.4g}")
            else:
                cells.append(f"{str(value):>20s}")
        print(" | ".join(cells))
