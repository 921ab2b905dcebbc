"""Golden-history fixtures: pinned runs guarding against numeric drift.

Every registry strategy is run once on a tiny fixed preset (plus a few
scenario variants and one lossy-codec variant per aggregation mode) and the
exact resulting history JSON is committed under ``tests/fixtures/golden/``.
The companion test (``tests/test_golden_histories.py``) re-runs each spec
and fails on ANY difference — a changed selection, a shifted float, a new
field default.

When a change intentionally alters numerics (new RNG stream, different
aggregation math, retuned defaults), regenerate the fixtures with::

    python tests/fixtures/regenerate_golden.py

and review the diff like any other code change: the diff IS the behavioural
change you are shipping.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent / "golden"
_REPO_ROOT = Path(__file__).resolve().parents[2]

#: the tiny preset every golden run uses — small enough that the full
#: registry regenerates in well under a minute on a laptop CPU
GOLDEN_OVERRIDES = dict(num_clients=4, num_rounds=2, clients_per_round=2,
                        examples_per_client=20, local_iterations=2,
                        batch_size=8, seed=11)

#: scenario variants pinned in addition to the ideal-setting registry sweep
GOLDEN_SCENARIOS = (
    ("fedavg", "deadline-tight"),
    ("fedavg", "trace"),
    ("fedlps", "deadline-tight"),
)

#: lossy-codec variants: int8 quantization is a documented numerics mode, so
#: its trajectories are pinned in their own fixtures (one per aggregation
#: mode) rather than checked against the dense runs — lossless codecs, by
#: contrast, must reproduce the dense fixtures above bit-for-bit and get no
#: fixtures of their own
GOLDEN_LOSSY = (
    ("fedlps--int8", "fedlps", "sync"),
    ("fedlps--int8--fedasync", "fedlps", "fedasync"),
    ("fedlps--int8--fedbuff", "fedlps", "fedbuff"),
)


def golden_specs():
    """(fixture name, method, scenario, aggregation, codec) per pinned run."""
    from repro.baselines import available_strategies

    specs = [(method, method, "ideal", "sync", "dense")
             for method in available_strategies()]
    specs.extend((f"{method}--{scenario}", method, scenario, "sync", "dense")
                 for method, scenario in GOLDEN_SCENARIOS)
    specs.extend((name, method, "ideal", aggregation, "int8")
                 for name, method, aggregation in GOLDEN_LOSSY)
    return specs


def golden_preset(scenario: str, aggregation: str = "sync",
                  codec: str = "dense"):
    from repro.experiments import preset_for, scaled

    return scaled(preset_for("mnist"), scenario=scenario,
                  aggregation=aggregation, codec=codec, **GOLDEN_OVERRIDES)


def run_golden(method: str, scenario: str, aggregation: str = "sync",
               codec: str = "dense"):
    """One pinned run of :func:`golden_preset`."""
    from repro.experiments import run_method

    return run_method(method, golden_preset(scenario, aggregation, codec))


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name.replace('/', '_')}.json"


def regenerate() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    specs = golden_specs()
    for name, method, scenario, aggregation, codec in specs:
        history = run_golden(method, scenario, aggregation, codec)
        payload = {
            "method": method,
            "scenario": scenario,
            "overrides": GOLDEN_OVERRIDES,
            "history": history.to_dict(),
        }
        # dense/sync fixtures predate the aggregation and codec axes; their
        # payload schema stays exactly as committed (byte-stable files)
        if aggregation != "sync" or codec != "dense":
            payload["aggregation"] = aggregation
            payload["codec"] = codec
        fixture_path(name).write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n")
        print(f"wrote {fixture_path(name).relative_to(_REPO_ROOT)}")
    return len(specs)


if __name__ == "__main__":
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    count = regenerate()
    print(f"regenerated {count} golden fixtures in {FIXTURE_DIR}")
