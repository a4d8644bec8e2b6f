#!/usr/bin/env python
"""Per-layer count gate over the traced perfbench records.

Reads ``perfbench/out/<workload>-seed0-trace1.json`` (written by
``python3 perfbench/run.py --workload all --seed 0 --trace 1``) and
asserts the per-op launch, call, byte and timeline-record counts below.
They are deterministic for seed 0, so a refactor that drops or adds one
kernel launch, transfer byte or sparse-product call fails here.

It also holds loose wall-clock bounds: a layer's traced self time per
op, or the traced set-up's time in ``load_dataset``, divided by the
run's ``machine.calibration_s`` loop so that the bound carries across
machines, must stay under the value in ``WALL_BOUNDS``.

Usage::

    python benchmarks/check_trace_counts.py [perfbench/out]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: metric -> value per workload (per traced op, seed 0)
EXPECTED = {
    "fit-dti": {
        "cusparse.spmv_any.calls": 573,
        "cusparse.spmm_any.calls": 0,
        "cuda.kernel_launches": 2270,
        "cuda.pcie_bytes": 24554232,
        "cusparse.spmv_bytes": 4404573072,
        "hw.timeline_record.calls": 2400,
        # one restart sweep applies all of a restart's shifts
        "linalg.implicit_qr_sweep.calls": 13,
        "linalg.n_restarts": 13,
    },
    "fit-sbm50k-compressive": {
        "cusparse.spmv_any.calls": 0,
        "cusparse.spmm_any.calls": 160,
        "cuda.kernel_launches": 495,
        "cuda.pcie_bytes": 7758520,
        "cusparse.spmv_bytes": 5013216256,
        "hw.timeline_record.calls": 541,
    },
    "serve-mixed": {
        "cusparse.spmv_any.calls": 395,
        "cusparse.spmm_any.calls": 0,
        "cuda.kernel_launches": 2510,
        "cuda.pcie_bytes": 9013152,
        "cusparse.spmv_bytes": 865850112,
        "hw.timeline_record.calls": 3869,
        # one solve and one k-means per distinct problem (4 on seed 0):
        # a cache hit runs neither
        "kmeans.kmeans_device.calls": 4,
        "serve.cold_fits": 4,
        "linalg.implicit_qr_sweep.calls": 19,
        "linalg.n_restarts": 19,
    },
}

#: metric -> upper bound on ``value / machine.calibration_s`` per workload.
#: On a 2-vCPU VM the row-blocked SpMM read 24–32 over four traced runs
#: and the whole-matrix product it replaced read 74–98.  Over six traced
#: runs each, k-means read 12–19 with kernel bodies that index views of
#: their thread range, and 21–28 with bodies that gathered copies through
#: an index vector.  Over six traced runs the set-up's ``load_dataset``
#: read 3.4–3.9 with the offset-vectorized ε-grid and, over four, 12.7–17.7
#: with the per-(cell, offset) loop it replaced.  The IRLM restart's
#: ``implicit_qr_sweep`` read 2.7–4.5 over seven traced runs as one
#: pipelined chase per restart, and 11.6–16.0 over three with one chase
#: per shift.  Over 14 traced runs with the CSR row-sweep SpMV and 11 with
#: the ``bincount`` scatter it replaced, alternating, ``spmv_any`` read
#: 6.2–12.8 against 13.2–20.0 on fit-dti and 1.3–2.9 against 2.5–4.1 on
#: serve-mixed (where a return to the scatter fails 7 runs in 11), and
#: serve-mixed's ``kmeans_device`` read 0.20–0.49 (a cache-hit fit runs
#: no k-means).
WALL_BOUNDS = {
    "fit-dti": {
        "datasets.load_dataset.total_s": 8.0,
        "linalg.implicit_qr_sweep.self_s": 7.0,
        "cusparse.spmv_any.self_s": 13.0,
    },
    "fit-sbm50k-compressive": {"cusparse.spmm_any.self_s": 50.0},
    "serve-mixed": {
        "cusparse.spmv_any.self_s": 3.0,
        "kmeans.kmeans_device.self_s": 1.0,
    },
}


def check(out_dir: Path) -> list[str]:
    """Return the mismatches (empty = gate passes)."""
    failures = []
    for workload, expected in EXPECTED.items():
        path = out_dir / f"{workload}-seed0-trace1.json"
        if not path.exists():
            failures.append(f"{path}: missing (run perfbench with --trace 1)")
            continue
        record = json.loads(path.read_text())
        metrics = record["result"]["metrics"]
        for name, want in expected.items():
            if name not in metrics:
                failures.append(f"{workload}: {name} missing")
                continue
            got = metrics[name]["value"]
            if got != want:
                failures.append(f"{workload}: {name} = {got}, expected {want}")
        calibration = record["machine"]["calibration_s"]
        for name, bound in WALL_BOUNDS.get(workload, {}).items():
            if name not in metrics:
                failures.append(f"{workload}: {name} missing")
                continue
            ratio = metrics[name]["value"] / calibration
            if ratio > bound:
                failures.append(
                    f"{workload}: {name} / calibration_s = {ratio:.1f}, "
                    f"bound {bound:g}"
                )
    return failures


def main(argv: list[str]) -> int:
    out_dir = Path(argv[1]) if len(argv) > 1 else Path("perfbench/out")
    failures = check(out_dir)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"trace counts and wall bounds ok: {len(EXPECTED)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
