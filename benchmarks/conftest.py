"""Shared benchmark fixtures.

Each bench measures the *wall time* of the real (vectorized NumPy)
execution with pytest-benchmark, and prints/writes the *simulated* table
that corresponds to the paper's Table/Figure — both axes matter and they
are kept clearly separate (see DESIGN.md "Timing methodology").

Comparison runs are cached per (dataset, scale) for the whole session so
the table benches and Table VII reuse one pipeline execution.  Rendered
tables are also written to ``benchmarks/out/`` for inspection after a
``--benchmark-only`` run, whose stdout capture would otherwise hide them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Multithreaded OpenBLAS reorders float sums, so a fit's k-means can take
# a different iteration count, and the frozen records in
# ``benchmarks/records/`` and ``BENCH_regression.json`` hold only at the
# one BLAS thread they were recorded with.  These are the thread keys of
# perfbench's ``PINNED_ENV``; they only take effect before numpy loads.
assert "numpy" not in sys.modules, (
    "numpy was imported before benchmarks/conftest.py could pin BLAS to one "
    "thread; run the benchmarks in their own pytest process"
)
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_key] = "1"

from repro.bench.runner import ComparisonResult, run_comparison

#: scaled-down workloads per dataset: full paper sizes would take hours in
#: pure Python; these keep each bench in seconds while the projection
#: handles the paper-scale axis
BENCH_SCALES = {
    "dti": 0.01,
    "fb": 0.5,
    "syn200": 0.1,
    "dblp": 0.02,
}

_cache: dict[str, ComparisonResult] = {}

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def comparison():
    """Factory fixture: ``comparison('fb')`` runs (once) and returns the
    three-column comparison at the bench scale."""

    def get(name: str) -> ComparisonResult:
        if name not in _cache:
            _cache[name] = run_comparison(
                name, scale=BENCH_SCALES[name], seed=0, eig_tol=1e-8
            )
        return _cache[name]

    return get


@pytest.fixture(scope="session")
def write_table():
    """Write a rendered table to benchmarks/out/<name>.txt and echo it."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n[written to benchmarks/out/{name}.txt]")

    return write
