"""The one ``repro bench`` path, exercised on every registered axis.

What the axes share — the envelope, the gate verdict, the text report, the
artifact and the ``--check`` exit code — is asserted here once per axis;
the per-axis files keep what is unique (``measure_*`` cells, gate clauses).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.benchmarking import AXES, format_report, run_bench
from repro.cli import main

#: the tiny invocation of every axis (for fanout also the cheap cell subset)
TINY = {
    "fanout": ["--scale", "0.25", "--backends", "serial", "thread",
               "--workers-list", "2", "--repeats", "1"],
    "fleet": ["--scale", "0.01"],
    "checkpoint": ["--scale", "0.02"],
    "codec": ["--scale", "0.5"],
    "faults": ["--scale", "0.5"],
    "batch": ["--scale", "0.1"],
    "dist": ["--scale", "0.5"],
}

#: axis-specific text every printed report must carry
MENTIONS = {
    "fanout": ["thread-2", "bytes/round: broadcast", "aggregation fedbuff"],
    "fleet": ["smoke:"],
    "checkpoint": ["restore_s"],
    "codec": ["sparse", "int8"],
    "faults": ["fault_plan chaos", "process"],
    "batch": ["fedlps", "speedup"],
    "dist": ["backend socket", "max_frac"],
}

#: the only options beyond ``--scale/--output/--check``, on the one axis
#: that reads them (20 bench options at PR 12, 9 now)
AXIS_OPTIONS = {
    "fanout": {"backends", "workers_list", "repeats", "aggregations"},
    "faults": {"plan"},
}

ENVELOPE = {"axis", "bench_scale", "python", "platform", "cpu_count", "gate"}


def run_cli(*argv):
    """``main(argv)`` with its stdout captured (usable outside ``capsys``)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    return code, stdout.getvalue()


@pytest.fixture(scope="module", params=list(AXES))
def bench(request, tmp_path_factory):
    """One real ``repro bench <axis> ... --check`` run per axis."""
    axis = request.param
    output = tmp_path_factory.mktemp(axis) / f"BENCH_{axis}.json"
    code, text = run_cli("bench", axis, *TINY[axis],
                         "--output", str(output), "--check")
    return SimpleNamespace(axis=axis, code=code, text=text,
                           report=json.loads(output.read_text()))


@pytest.fixture
def canned(bench, monkeypatch, tmp_path):
    """Swap the axis's ``run`` for its recorded report, cwd into a tmp dir.

    Everything after ``run`` — envelope, gate, artifact, text, exit code —
    still executes for real, at no measurement cost.
    """
    def install(**overrides):
        monkeypatch.setitem(AXES, bench.axis, replace(
            AXES[bench.axis],
            run=lambda scale, **options: dict(bench.report), **overrides))
    install()
    monkeypatch.chdir(tmp_path)
    return SimpleNamespace(axis=bench.axis, install=install, cwd=tmp_path)


class TestEveryAxis:
    def test_registry_is_covered(self):
        assert list(AXES) == list(TINY) == list(MENTIONS)
        assert {name: set(axis.options) for name, axis in AXES.items()
                if axis.options} == AXIS_OPTIONS

    def test_envelope_and_gate(self, bench):
        report = bench.report
        assert ENVELOPE <= set(report)
        assert report["axis"] == bench.axis
        assert report["bench_scale"] == float(TINY[bench.axis][1])
        gate = report["gate"]
        assert isinstance(gate["pass"], bool)
        # --check mirrors the verdict; batch's >= 2x clause is calibrated
        # for scale 1.0, so its tiny run pins only the identity clause
        assert bench.code == (0 if gate["pass"] else 1)
        assert gate["pass"] or bench.axis == "batch", gate
        identity = {key: value for key, value in gate.items()
                    if "identical" in key or "equivalent" in key}
        assert all(value is True for value in identity.values()), identity

    def test_text_report(self, bench):
        *body, gate_line, written = bench.text.splitlines()
        assert body[0].startswith(f"# repro bench: axis {bench.axis}, "
                                  f"bench_scale {TINY[bench.axis][1]}")
        verdict = "PASS" if bench.report["gate"]["pass"] else "FAIL"
        assert gate_line.startswith("gate: ")
        assert gate_line.endswith(f"-> {verdict}")
        assert written.startswith("# report written to ")
        for mention in MENTIONS[bench.axis]:
            assert mention in bench.text, mention
        # the artifact alone renders too (what a later --compare will read)
        assert format_report(bench.report).splitlines()[-1].startswith("gate:")

    def test_default_artifact_name(self, canned):
        assert run_cli("bench", canned.axis)[0] == 0
        assert [path.name for path in canned.cwd.iterdir()] \
            == [f"BENCH_{canned.axis}.json"]

    def test_empty_output_writes_nothing(self, canned):
        code, text = run_cli("bench", canned.axis, "--output", "")
        assert code == 0
        assert "report written" not in text
        assert list(canned.cwd.iterdir()) == []

    def test_check_exits_1_on_a_failing_gate(self, canned):
        canned.install(gate=lambda report: {"pass": False, "reason": "test"})
        code, text = run_cli("bench", canned.axis, "--output", "", "--check")
        assert code == 1
        assert text.splitlines()[-1] == "gate: reason test -> FAIL"
        # without --check the verdict is reported, not enforced
        assert run_cli("bench", canned.axis, "--output", "")[0] == 0

    @pytest.mark.parametrize("axis", list(AXES))
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf")])
    def test_library_callers_get_the_one_scale_check(self, axis, scale):
        with pytest.raises(ValueError, match="positive"):
            run_bench(axis, scale)


class TestMisuseIsRejectedByArgparse:
    @pytest.mark.parametrize("argv, complaint", [
        (["bench"], "arguments are required"),
        (["bench", "gpu"], "invalid choice"),
        # an option exists only on the axis that reads it
        (["bench", "codec", "--backends", "serial"], "unrecognized"),
        (["bench", "checkpoint", "--repeats", "1"], "unrecognized"),
        (["bench", "fleet", "--plan", "chaos"], "unrecognized"),
        # one axis per invocation, by construction
        (["bench", "checkpoint", "fleet"], "unrecognized"),
        # the flag-per-axis spellings are gone
        (["bench", "--codec-scale", "0.5"], "invalid choice"),
        (["bench", "--fleet-scale", "1.0", "--fleet-output", ""],
         "invalid choice"),
        (["bench", "fanout", "--fault-plan", "crashy"], "unrecognized"),
        (["bench", "fanout", "--backends", "gpu"], "invalid choice"),
        (["bench", "faults", "--plan", "meteor-strike"], "invalid choice"),
        (["bench", "fanout", "--scale", "0"], "not a positive float"),
        (["bench", "fleet", "--scale", "-1"], "not a positive float"),
        (["bench", "codec", "--scale", "nan"], "not a positive float"),
        (["bench", "fanout", "--repeats", "0"], "not a positive int"),
        (["bench", "fanout", "--workers-list", "2", "0"],
         "not a positive int"),
    ])
    def test_exit_2_with_one_usage_error(self, argv, complaint, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert complaint in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err and captured.out == ""


class TestHelpComesFromTheRegistry:
    @staticmethod
    def _squeezed(text):
        # argparse re-wraps help (also at hyphens): compare sans whitespace
        return "".join(text.split())

    def test_every_axis_documents_itself(self, capsys):
        for name, axis in AXES.items():
            with pytest.raises(SystemExit):
                main(["bench", name, "--help"])
            text = self._squeezed(capsys.readouterr().out)
            assert f"BENCH_{name}.json" in text
            assert self._squeezed(axis.doc) in text
            assert self._squeezed(f"exit 1 unless {axis.gates}") in text
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        listing = self._squeezed(capsys.readouterr().out)
        for axis in AXES.values():
            assert self._squeezed(axis.doc.splitlines()[0]) in listing


def test_every_axis_keeps_its_ci_gate():
    """Registry <-> CI drift guard: each axis has a ``--check`` step."""
    workflow = (Path(__file__).resolve().parents[2]
                / ".github" / "workflows" / "ci.yml").read_text()
    for axis in AXES:
        assert re.search(rf"\bbench {axis}\b[^\n]*--check", workflow), \
            f"no `repro bench {axis} ... --check` step in ci.yml"
