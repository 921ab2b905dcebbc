"""The one ``repro bench`` harness: run → stamp → gate → write → format.

Every benchmark axis (``fanout``, ``fleet``, ``checkpoint``, ``codec``,
``faults``, ``batch``, ``dist``) is an :class:`Axis` record registered in
:data:`AXES`: the axis module keeps what is unique to it — its preset
builder, its ``measure_*`` cell functions, its gate predicate and ``GATE_*``
thresholds, its table columns — and everything the axes used to repeat
lives here once: scale validation, the report envelope (``axis``,
``bench_scale``, ``python``, ``platform``, ``cpu_count``), the JSON
artifact, the text table, the ``gate: … -> PASS|FAIL`` line, the wall-clock
timer and the history digest.  ``repro bench <axis>`` is generated from the
same table, so an option exists only on the axis that reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from ..experiments import format_rows

Report = Dict[str, object]


@dataclass(frozen=True)
class Axis:
    """What is unique to one ``repro bench`` axis.

    ``doc`` is the axis module's docstring — its title is the sub-command's
    one-line help, the whole of it ``repro bench <axis> --help`` — and
    ``gates`` the sentence ``--check`` documents itself with.
    ``run(scale, **options)`` measures and returns the report body;
    ``gate(report)`` turns the stamped report into the ``{"pass": bool,
    ...}`` verdict ``--check`` enforces.  ``columns`` maps each table header
    to the key it reads from the rows ``cells(report)`` yields and
    ``extra_lines(report)`` adds free-form lines under the table.
    ``options`` maps each ``run`` keyword the CLI exposes to the argparse
    keywords of its ``--flag``; its ``default`` is the only default.
    """

    name: str
    doc: str
    gates: str
    run: Callable[..., Report]
    gate: Callable[[Report], Dict[str, object]]
    columns: Mapping[str, str]
    cells: Callable[[Report], Iterable[Mapping[str, object]]]
    extra_lines: Callable[[Report], List[str]] = lambda report: []
    options: Mapping[str, Dict[str, object]] = field(default_factory=dict)


#: every benchmark axis by name, in registration (= documentation) order
AXES: Dict[str, Axis] = {}


def register(axis: Axis) -> None:
    """Add ``axis`` to :data:`AXES` (called once by each axis module)."""
    AXES[axis.name] = axis


def positive(cast: Callable[[str], float]) -> Callable[[str], float]:
    """An argparse ``type``: ``cast`` the text, reject anything not > 0."""
    def parse(text: str) -> float:
        value = cast(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a positive {cast.__name__}")
        return value
    parse.__name__ = f"positive {cast.__name__}"
    return parse


class timed:
    """Context manager timing its block: ``with timed() as t: ...``.

    ``t.seconds`` holds the block's ``perf_counter`` wall-clock afterwards.
    """

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start


def history_digest(history, strip_prefix: Optional[str] = None) -> str:
    """SHA-256 of a history's canonical JSON.

    With ``strip_prefix`` the per-round ``extras`` whose key starts with it
    (``wire_``, ``fault_``) are dropped first — those report blocks are the
    one place a codec or chaos run legitimately differs from its reference,
    so bit-identity is asserted on everything else.
    """
    payload = history.to_dict()
    if strip_prefix is not None:
        for record in payload["records"]:
            record["extras"] = {key: value
                                for key, value in record["extras"].items()
                                if not key.startswith(strip_prefix)}
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def workload(preset) -> Dict[str, object]:
    """The ``workload`` report block describing a preset's federation."""
    return {
        "dataset": preset.dataset,
        "num_clients": preset.num_clients,
        "clients_per_round": preset.clients_per_round,
        "num_rounds": preset.num_rounds,
        "local_iterations": preset.local_iterations,
    }


def run_bench(axis: str, scale: float = 1.0, output: Optional[str] = None,
              **axis_options) -> Report:
    """Run one axis and return (and optionally write) its gated report.

    ``scale`` multiplies the axis's workload (1.0 is what the gate
    thresholds are calibrated for); ``axis_options`` override the defaults
    declared in the axis's ``options``.  The report is the axis's body
    under one envelope plus its ``gate`` verdict; ``output`` names the JSON
    artifact (``BENCH_<axis>.json`` by CLI default, nothing when empty).
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive")
    spec = AXES[axis]
    options = {name: argument["default"]
               for name, argument in spec.options.items()}
    options.update(axis_options)
    report: Report = {
        "axis": axis,
        "bench_scale": scale,
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        **spec.run(scale, **options),
    }
    report["gate"] = spec.gate(report)
    if output:
        Path(output).write_text(json.dumps(report, indent=2, sort_keys=True))
    return report


def scalars(block: Mapping[str, object]) -> str:
    """``key value, ...`` over the scalar entries of a report block.

    The one rendering rule of every free-form report line (title, extra
    lines, gate): nested blocks are left to the JSON artifact, ``None``
    prints as ``-`` and the gate's ``pass`` is spelled by its verdict.
    """
    return ", ".join(
        f"{key} {'-' if value is None else _cell(value)}"
        for key, value in block.items()
        if key != "pass" and not isinstance(value, (dict, list)))


def _cell(value: object) -> str:
    return format(value, ".4g") if isinstance(value, float) else str(value)


def format_report(report: Report) -> str:
    """Render any axis's report as the text the CLI prints.

    A title listing the report's scalars (envelope first), the axis's table
    (through ``experiments.format_rows``), its extra lines, and one gate
    line listing every scalar clause of the verdict before ``-> PASS`` or
    ``-> FAIL``.
    """
    spec = AXES[report["axis"]]
    rows = [{header: cell.get(key) for header, key in spec.columns.items()}
            for cell in spec.cells(report)]
    gate = report["gate"]
    return "\n".join([
        f"# repro bench: {scalars(report)}",
        format_rows(rows, list(spec.columns)),
        *spec.extra_lines(report),
        f"gate: {scalars(gate)} -> {'PASS' if gate['pass'] else 'FAIL'}"])
