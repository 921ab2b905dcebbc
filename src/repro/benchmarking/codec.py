"""Wire-codec benchmark: bytes crossing the client/server boundary per codec.

``repro bench codec`` runs the fan-out workload (FedLPS on the MNIST
preset — the method whose uploads are mask-sparse residuals) once per wire
codec and totals the per-round wire reports the server records in
``RoundRecord.extras``: encoded upload/download bytes against the dense
float64 baseline, plus the mask density the sparse codec saw.  The dense
baseline needs no extra run — every cell reports the dense byte count of the
same arrays it encoded, so ``upload_ratio`` compares like with like.

Two correctness clauses ride along with the byte accounting: lossless codecs
must reproduce the dense reference history bit-for-bit once the wire-report
extras are stripped, and lossy codecs report their accuracy delta against
the same reference (the accuracy-vs-uplink-bytes axis).  The report lands in
``BENCH_codec.json``.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..experiments import run_method, scaled
from ..parallel.codec import LOSSLESS_CODECS
from ..systems.metrics import TrainingHistory
from .fanout import BENCH_METHOD, fanout_preset
from .harness import Axis, history_digest, register, workload

#: codecs benchmarked by default — every registered codec but the baseline
BENCH_CODECS = ("sparse", "int8", "pq")

#: the gate's sparse contract: at mask density at or under the ceiling, the
#: sparse codec's wire bytes must come in at or under this dense fraction
GATE_DENSITY_CEILING = 0.5
GATE_SPARSE_RATIO = 0.5

#: the wire-report keys summed over rounds (``ServerCore.take_fanout_report``)
_WIRE_TOTALS = ("wire_upload_bytes", "wire_upload_dense_bytes",
                "wire_download_bytes", "wire_download_dense_bytes")


def measure_codec(preset, codec: str,
                  reference: TrainingHistory
                  ) -> Dict[str, object]:
    """One codec cell: wire-byte totals, density, and the accuracy contract.

    ``reference`` is the dense run of the same preset; lossless cells are
    checked bit-identical against it (wire extras stripped), lossy cells
    report their accuracy delta.
    """
    history = run_method(BENCH_METHOD, scaled(preset, codec=codec))
    totals = {key: 0.0 for key in _WIRE_TOTALS}
    densities = []
    for record in history.records:
        for key in _WIRE_TOTALS:
            totals[key] += record.extras.get(key, 0.0)
        if "wire_upload_density" in record.extras:
            densities.append(record.extras["wire_upload_density"])
    dense_bytes = totals["wire_upload_dense_bytes"]
    cell: Dict[str, object] = {
        "codec": codec,
        "lossless": codec in LOSSLESS_CODECS,
        "upload_bytes": totals["wire_upload_bytes"],
        "upload_dense_bytes": dense_bytes,
        "upload_ratio": (totals["wire_upload_bytes"] / dense_bytes
                         if dense_bytes else None),
        "download_bytes": totals["wire_download_bytes"],
        "download_dense_bytes": totals["wire_download_dense_bytes"],
        "mask_density": (sum(densities) / len(densities)
                         if densities else None),
        "final_accuracy": history.final_accuracy(),
        "best_accuracy": history.best_accuracy(),
    }
    if codec in LOSSLESS_CODECS:
        cell["matches_dense_reference"] = (
            history_digest(history, strip_prefix="wire_")
            == history_digest(reference))
    else:
        cell["accuracy_delta"] = \
            history.final_accuracy() - reference.final_accuracy()
    return cell


def _gate(cells: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Pass/fail: every codec beats dense, sparse meets its ratio budget.

    Three clauses: (a) each benchmarked codec's wire bytes land strictly
    below the dense baseline, (b) lossless codecs reproduced the dense
    reference bit-for-bit, and (c) when the sparse codec saw mask density at
    or under the ceiling, its wire bytes came in at or under the budgeted
    fraction of dense (vacuous at higher densities, where a bitmap+values
    layout legitimately approaches parity).
    """
    ratios = {name: cell["upload_ratio"] for name, cell in cells.items()}
    below_dense = all(ratio is not None and ratio < 1.0
                      for ratio in ratios.values())
    lossless_ok = all(cell.get("matches_dense_reference", True)
                      for cell in cells.values())
    sparse = cells.get("sparse")
    density = sparse["mask_density"] if sparse else None
    sparse_applicable = density is not None and density <= GATE_DENSITY_CEILING
    sparse_ok = (not sparse_applicable
                 or sparse["upload_ratio"] <= GATE_SPARSE_RATIO)
    return {
        "pass": bool(below_dense and lossless_ok and sparse_ok),
        "all_below_dense": below_dense,
        "lossless_bit_identical": lossless_ok,
        "upload_ratios": ratios,
        "sparse_mask_density": density,
        "density_ceiling": GATE_DENSITY_CEILING,
        "sparse_ratio_budget": GATE_SPARSE_RATIO,
        "sparse_budget_applies": sparse_applicable,
    }


def run(scale: float,
        codecs: Iterable[str] = BENCH_CODECS) -> Dict[str, object]:
    """Measure the codec report body at ``scale``.

    ``scale`` multiplies the fan-out workload; one dense reference run
    anchors the lossless and accuracy checks for every codec cell.
    """
    preset = fanout_preset(scale)
    reference = run_method(BENCH_METHOD, preset)
    return {
        "method": BENCH_METHOD,
        "workload": workload(preset),
        "dense_reference": {
            "final_accuracy": reference.final_accuracy(),
            "best_accuracy": reference.best_accuracy(),
        },
        "codecs": {codec: measure_codec(preset, codec, reference)
                   for codec in codecs},
    }


register(Axis(
    name="codec",
    doc=__doc__,
    gates="every codec lands below dense bytes, lossless codecs reproduce "
          "the dense history bit-for-bit, and sparse meets its "
          f"{GATE_SPARSE_RATIO}x byte budget at mask density <= "
          f"{GATE_DENSITY_CEILING}",
    run=run,
    gate=lambda report: _gate(report["codecs"]),
    columns={"codec": "codec", "upload_B": "upload_bytes",
             "dense_B": "upload_dense_bytes", "ratio": "upload_ratio",
             "density": "mask_density", "accuracy": "final_accuracy",
             "identical": "matches_dense_reference",
             "accuracy_delta": "accuracy_delta"},
    cells=lambda report: report["codecs"].values()))
