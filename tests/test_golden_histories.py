"""Golden-history regression suite.

Re-runs every pinned (method, scenario, aggregation, codec) spec from
``tests/fixtures/golden/`` and compares the resulting history JSON
*bit-for-bit* against the committed fixture.  Any numeric drift — a changed
RNG stream, reordered aggregation, different float math — fails loudly.

The wire-codec layer adds two contracts on top: lossless codecs must
reproduce every dense fixture bit-for-bit (they get no fixtures of their
own — the dense files ARE their reference), and the lossy ``int8`` mode is
pinned by its own fixtures, wire-byte reports included.

Intentional changes are shipped by regenerating the fixtures
(``python tests/fixtures/regenerate_golden.py``) and reviewing the diff.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from eager_data import on_both_federations

_SPEC = importlib.util.spec_from_file_location(
    "golden_fixtures",
    Path(__file__).resolve().parent / "fixtures" / "regenerate_golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

SPECS = golden.golden_specs()

#: the dense cells double as the lossless-codec reference trajectories
DENSE_SPECS = [spec for spec in SPECS if spec[4] == "dense"]


def _strip_wire_extras(history_dict):
    for record in history_dict.get("records", []):
        extras = record.get("extras", {})
        for key in [key for key in extras if key.startswith("wire_")]:
            del extras[key]
    return history_dict


class TestFixturesAreComplete:
    def test_every_registry_strategy_is_pinned(self):
        from repro.baselines import available_strategies

        pinned = {name for name, _, scenario, aggregation, codec in SPECS
                  if scenario == "ideal" and aggregation == "sync"
                  and codec == "dense"}
        assert pinned == set(available_strategies()), (
            "registry and golden fixtures diverged; run "
            "`python tests/fixtures/regenerate_golden.py`")

    def test_no_orphan_fixture_files(self):
        expected = {golden.fixture_path(spec[0]).name for spec in SPECS}
        actual = {path.name for path in golden.FIXTURE_DIR.glob("*.json")}
        assert actual == expected, (
            "stale or missing golden fixture files; run "
            "`python tests/fixtures/regenerate_golden.py`")

    def test_lossy_fixtures_cover_every_aggregation_mode(self):
        from repro.server import available_aggregations

        lossy_modes = {aggregation
                       for _, _, _, aggregation, codec in SPECS
                       if codec == "int8"}
        assert lossy_modes == set(available_aggregations()), (
            "each aggregation mode needs one pinned lossy-codec run")


@on_both_federations
@pytest.mark.parametrize("name,method,scenario,aggregation,codec",
                         SPECS, ids=[spec[0] for spec in SPECS])
def test_history_matches_golden_fixture(name, method, scenario, aggregation,
                                        codec, run):
    """Each fixture must reproduce on BOTH kinds of federation.

    ``build_experiment``'s virtual dataset and device fleet, and the
    hand-built eager ones of ``tests/eager_data.py``, are served through
    the same fleet view; neither is allowed to drift a bit from the
    committed fixture (which predates the virtual fleet).  Lossy-codec
    fixtures compare bit-for-bit too — including their per-round wire-byte
    reports.
    """
    path = golden.fixture_path(name)
    assert path.exists(), (
        f"missing golden fixture {path.name}; run "
        "`python tests/fixtures/regenerate_golden.py`")
    payload = json.loads(path.read_text())
    assert payload["overrides"] == dict(golden.GOLDEN_OVERRIDES), (
        "golden preset changed; regenerate the fixtures")
    assert payload.get("codec", "dense") == codec
    assert payload.get("aggregation", "sync") == aggregation
    history = run(method, golden.golden_preset(scenario, aggregation, codec))
    # round-trip through JSON so float formatting cannot mask a mismatch
    fresh = json.loads(json.dumps(history.to_dict()))
    assert fresh == payload["history"], (
        f"numeric drift in {method!r} ({scenario}, {aggregation}, {codec}, "
        f"{run.__name__}); if intentional, run "
        "`python tests/fixtures/regenerate_golden.py` and commit the diff")


@on_both_federations
@pytest.mark.parametrize("name,method,scenario,aggregation,codec",
                         DENSE_SPECS, ids=[spec[0] for spec in DENSE_SPECS])
def test_sparse_codec_reproduces_dense_fixtures(name, method, scenario,
                                                aggregation, codec, run):
    """The lossless wire codec leaves every pinned trajectory untouched.

    Re-running each dense spec under ``codec="sparse"`` must reproduce the
    committed fixture bit-for-bit once the wire-byte report (the one
    legitimate addition) is stripped — and that report must show the
    encoded upload never exceeding the dense baseline.
    """
    payload = json.loads(golden.fixture_path(name).read_text())
    history = run(method,
                  golden.golden_preset(scenario, aggregation, "sparse"))
    raw = history.to_dict()
    uploads = [(record["extras"]["wire_upload_bytes"],
                record["extras"]["wire_upload_dense_bytes"])
               for record in raw["records"]]
    assert uploads, "sparse-codec rounds must record a wire report"
    assert all(wire <= dense for wire, dense in uploads)
    fresh = json.loads(json.dumps(_strip_wire_extras(raw)))
    assert fresh == payload["history"], (
        f"the sparse codec drifted {method!r} ({scenario}) off the dense "
        "fixture — lossless codecs may not change a single bit")
