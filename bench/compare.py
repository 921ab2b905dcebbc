"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) with both medians, both ranges,
the ratio B/A with its base, and a verdict:

``ok``          B's median is within the metric's bound of A's
``regressed``   B's median is worse than A's by more than the bound
``improved``    better by more than the bound
``unresolved``  either side's own spread, (max - min) / median, is wider
                than the bound, so the medians cannot be told apart — unless
                every run of B beats every run of A, which is ``improved``

Exact metrics (counts of a deterministic program) are compared as counts.
Per-layer numbers are listed with their ratio and no verdict: they have no
bound.  Exit code 1 on any ``regressed`` row or a higher failure rate in B.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, EXACT  # noqa: E402


def verdict(name: str, better: str, bound: float, a: dict, b: dict) -> str:
    """Judge one end-to-end row; ``a``/``b`` carry median, min, max."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if name in EXACT:
        return ("ok" if b["median"] == a["median"]
                else "regressed" if worse_by > 0 else "improved")
    if any((side["max"] - side["min"]) / side["median"] > bound
           for side in (a, b)):
        b_always_wins = (b["max"] < a["min"] if better == "lower"
                         else b["min"] > a["max"])
        return "improved" if b_always_wins else "unresolved"
    if worse_by > bound:
        return "regressed"
    return "improved" if -worse_by > bound else "ok"


def compare(a: dict, b: dict) -> tuple:
    """Rows of the comparison and whether B may be accepted."""
    rows, accepted = [], True
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for name, unit, better, bound in END_TO_END:
            row_a = side_a["end_to_end"].get(name)
            row_b = side_b["end_to_end"].get(name)
            if row_a is None or row_b is None:
                continue
            outcome = verdict(name, better, bound, row_a, row_b)
            accepted = accepted and outcome != "regressed"
            rows.append((workload, name, unit, row_a, row_b, outcome))
        rate_a = side_a["ops_failed"] / side_a["ops_attempted"]
        rate_b = side_b["ops_failed"] / side_b["ops_attempted"]
        if rate_b > rate_a:
            accepted = False
            rows.append((workload, "ops_failed/ops_attempted", "share",
                         {"median": rate_a, "min": rate_a, "max": rate_a},
                         {"median": rate_b, "min": rate_b, "max": rate_b},
                         "regressed"))
        for name, layer_a in side_a["per_layer"].items():
            layer_b = side_b["per_layer"].get(name)
            if layer_b is not None:
                rows.append((workload, name, layer_a["unit"],
                             {"median": layer_a["value"]},
                             {"median": layer_b["value"]}, "-"))
    return rows, accepted


def format_rows(rows) -> str:
    lines = [f"{'workload':<24s} {'metric':<52s} {'A median [min..max]':>38s}"
             f" {'B median [min..max]':>38s} {'B/A':>22s}  verdict"]
    for workload, name, unit, a, b, outcome in rows:
        def cell(side):
            spread = (f" [{side['min']:.4g}..{side['max']:.4g}]"
                      if "min" in side else "")
            return f"{side['median']:.5g}{spread} {unit}"
        ratio = (f"{b['median'] / a['median']:.4f} of {a['median']:.5g}"
                 if a["median"] else "-")
        lines.append(f"{workload:<24s} {name:<52s} {cell(a):>38s} "
                     f"{cell(b):>38s} {ratio:>22s}  {outcome}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows, accepted = compare(a, b)
    print(format_rows(rows))
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("\n" + "  ".join(f"{key}: {value}"
                           for key, value in sorted(counts.items())))
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
