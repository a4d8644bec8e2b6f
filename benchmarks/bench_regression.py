"""Regression tracking — frozen simulated-time records.

The simulated tables are deterministic functions of (dataset, scale,
seed), so any drift between runs is a real behavioral change in the
library.  This bench freezes a record per dataset under
``benchmarks/records/`` on first execution and compares every subsequent
run against it with zero tolerance for the simulated columns.

Delete the records to re-baseline after an intentional cost-model change.

The records hold only at a fixed BLAS thread count: multithreaded
OpenBLAS reorders float sums, so k-means can take a different number of
Lloyd trips and end on other labels.  ``conftest.py`` pins one thread
(the count the records were made with) before numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.record import diff_records, load_record, save_record
from repro.bench.runner import run_comparison

from conftest import BENCH_SCALES

RECORDS = Path(__file__).parent / "records"


def in_fresh_interpreter(name: str) -> int:
    """Run the ``name`` function of this module in a new Python process
    and return its result.

    A ``tracemalloc`` peak counts the Python-level caches (imports,
    interned objects, ufunc and dispatch tables) a measured call fills,
    so in a process that ran other benches first it moves by a few
    hundred to a few thousand bytes with what ran before.  A fresh
    interpreter that imports ``conftest`` first (one BLAS thread) gives
    the same figure on every run.
    """
    here = Path(__file__).parent
    paths = [str(here.parent / "src"), str(here)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    code = f"import conftest, bench_regression; print(bench_regression.{name}())"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=here,
        capture_output=True, text=True, check=True,
    )
    return int(out.stdout.split()[-1])


def similarity_host_peak_bytes() -> int:
    """The ``tracemalloc`` peak of one device similarity build (Algorithm
    1) of the bench's DTI workload, after a warm-up build.

    A build that gathers each launch's endpoint rows whole peaks at
    ``2 × nnz × d`` fp64 values more than the blocked kernel body does.
    Measured by :func:`in_fresh_interpreter` and gated as creep.
    """
    import gc
    import tracemalloc

    from repro.cuda.device import Device
    from repro.datasets import load_dataset
    from repro.graph.build import build_similarity_device

    ds = load_dataset("dti", scale=BENCH_SCALES["dti"], seed=0)
    build_similarity_device(Device(), ds.points, ds.edges)
    device = Device()
    gc.collect()
    tracemalloc.start()
    try:
        build_similarity_device(device, ds.points, ds.edges)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def eigensolver_host_peak_bytes() -> int:
    """The ``tracemalloc`` peak of one ``hybrid_eigensolver`` (Algorithm
    3) on the bench's DTI operator, the normalized similarity graph, after
    a warm-up solve.

    A driver that copies the Lanczos basis into every restart checkpoint,
    or backs the device basis buffer with host storage, peaks several
    ``n × m`` blocks higher.  Measured and gated like
    :func:`similarity_host_peak_bytes`.
    """
    import gc
    import tracemalloc

    from repro.core.workflow import hybrid_eigensolver
    from repro.cuda.device import Device
    from repro.cusparse.conversions import csr2coo
    from repro.cusparse.matrices import csr_to_device
    from repro.datasets import load_dataset
    from repro.graph.build import build_similarity_graph
    from repro.graph.components import remove_isolated
    from repro.graph.laplacian import device_sym_normalize

    ds = load_dataset("dti", scale=BENCH_SCALES["dti"], seed=0)
    W = remove_isolated(build_similarity_graph(ds.points, ds.edges))[0]

    def solve():
        device = Device()
        op = device_sym_normalize(csr2coo(csr_to_device(device, W)))
        gc.collect()
        tracemalloc.start()
        try:
            hybrid_eigensolver(device, op, k=ds.n_clusters, tol=1e-8, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    solve()
    return solve()


def fit_host_peak_bytes() -> int:
    """The ``tracemalloc`` peak of one point-input fit (Algorithm 1 through
    k-means) on the bench's DTI points and edges, after a warm-up fit.

    The data set is loaded before the trace starts, so a fit that keeps a
    copy of ``X`` (the model's anchor rows) through the eigensolver, or
    fills a padded ELL layout no product reads, peaks that many bytes
    higher.  Measured and gated like :func:`similarity_host_peak_bytes`.
    """
    import gc
    import tracemalloc

    from repro.core.pipeline import SpectralClustering
    from repro.datasets import load_dataset

    ds = load_dataset("dti", scale=BENCH_SCALES["dti"], seed=0)

    def fit():
        return SpectralClustering(
            n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0,
        ).fit(X=ds.points, edges=ds.edges)

    fit()
    gc.collect()
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(BENCH_SCALES))
def test_simulated_times_frozen(name, comparison):
    r = comparison(name)
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{name}_scale{BENCH_SCALES[name]}.json"
    if not path.exists():
        save_record(path, r)
        pytest.skip(f"baseline recorded at {path.name}; rerun to compare")
    drifts = diff_records(load_record(path), r, rel_tol=1e-9)
    assert not drifts, "\n".join(drifts)


def test_quality_frozen(comparison):
    """Clustering quality (ARI) is part of the frozen record too."""
    for name in sorted(BENCH_SCALES):
        r = comparison(name)
        path = RECORDS / f"{name}_scale{BENCH_SCALES[name]}.json"
        if not path.exists():
            pytest.skip("baselines not yet recorded")
        old = load_record(path)
        for col, ari in old.get("quality", {}).items():
            assert r.quality[col] == pytest.approx(ari, abs=1e-12), (name, col)


def test_emit_machine_readable_summary(comparison):
    """Write ``BENCH_regression.json`` at the repo root.

    The machine-readable companion of the frozen records: per-dataset
    per-stage simulated times and throughput (nodes per simulated
    second), plus the serving-layer throughput summary.  CI uploads this
    file as a workflow artifact so every run leaves a comparable trace.
    """
    import json

    from bench_ablation_kmeans import kmeans_ablation_summary
    from bench_compressive_ablation import compressive_ablation_summary
    from bench_multigpu_eig import multigpu_eig_summary
    from bench_precision_ablation import precision_ablation_summary
    from bench_serve_deadline import serve_deadline_summary
    from bench_serve_predict import serve_predict_summary
    from bench_serve_throughput import serve_summary
    from bench_topology_composition import topology_composition_summary
    from check_regression import compare

    payload = {"schema_version": 1, "datasets": {}}
    for name in sorted(BENCH_SCALES):
        r = comparison(name)
        cuda_stages = {
            stage: cols["cuda"] for stage, cols in r.stages.items()
        }
        total = sum(cuda_stages.values())
        payload["datasets"][name] = {
            "scale": r.scale,
            "n": r.n,
            "nnz_directed": r.nnz_directed,
            "k": r.k,
            "stages_simulated_s": cuda_stages,
            "total_simulated_s": total,
            "throughput_nodes_per_sim_s": r.n / total if total > 0 else 0.0,
            "communication_s": r.comm,
            "computation_s": r.comp,
            "ari_cuda": r.quality.get("cuda"),
        }
    for peak in ("similarity", "eigensolver", "fit"):
        payload["datasets"]["dti"][f"{peak}_host_peak_bytes"] = (
            in_fresh_interpreter(f"{peak}_host_peak_bytes")
        )
    payload["serve"] = serve_summary()
    payload["serve_predict"] = serve_predict_summary()
    payload["serve_deadline"] = serve_deadline_summary()
    payload["kmeans_ablation"] = kmeans_ablation_summary()
    payload["multigpu_eig"] = multigpu_eig_summary()
    payload["precision_ablation"] = precision_ablation_summary()
    payload["compressive_ablation"] = compressive_ablation_summary()
    payload["topology_composition"] = topology_composition_summary()
    out = Path(__file__).parent.parent / "BENCH_regression.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written = json.loads(out.read_text())
    assert written["datasets"].keys() == BENCH_SCALES.keys()
    # every bar of the record, from the gate table CI checks it with
    assert compare(written, written, 0.0) == []
