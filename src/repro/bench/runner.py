"""Experiment runner: one Table II workload through all three columns.

:func:`run_comparison` executes the hybrid CUDA pipeline (simulated K20c
times) once on a scaled-down instance and charges the Matlab and Python
baseline columns (modeled Xeon times) from its counters: the baselines run
the same IRLM and Lloyd iteration, and only Matlab's random k-means
seeding differs.  It collects per-stage numbers, clustering quality
against ground truth, and the iteration counts the paper-scale projection
needs.

:func:`project_paper_scale` re-evaluates every cost model at the paper's
published workload parameters (Table II n/edges/k, d=90 for DTI), reusing
the measured restart and Lloyd-iteration counts — the two quantities that
depend on spectral structure rather than on raw size.  The projection is
what EXPERIMENTS.md compares against Tables III-VII.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import cost as bcost
from repro.baselines.cost import MATLAB_2015A, PYTHON_27
from repro.bench.paperdata import PAPER_TABLES, TABLE_OF_DATASET
from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.datasets.registry import PAPER_STATS, load_dataset
from repro.hw.costmodel import CPUCostModel, GPUCostModel, TransferCostModel
from repro.hw.spec import K20C, PCIE_X16_GEN2, XEON_E5_2690
from repro.kmeans.cpu import kmeans_cpu
from repro.metrics.external import adjusted_rand_index

#: the baseline columns and the environment each one models
_BASELINES = (("matlab", MATLAB_2015A), ("python", PYTHON_27))


@dataclass
class ComparisonResult:
    """All three columns on one workload."""

    dataset: str
    scale: float
    n: int
    nnz_directed: int
    k: int
    #: stage -> column -> seconds (simulated for cuda, modeled for others)
    stages: dict
    #: column -> ARI against the generator's ground truth
    quality: dict
    #: measured counters reused by the projection
    counters: dict
    #: CUDA communication/computation seconds (Table VII axis)
    comm: float = 0.0
    comp: float = 0.0
    #: stage -> column -> seconds at the paper-scale workload
    projection: dict = field(default_factory=dict)
    #: the published Table III-VI rows for this dataset
    paper: dict = field(default_factory=dict)


def run_comparison(
    name: str,
    scale: float = 0.05,
    seed: int = 0,
    eig_tol: float = 1e-8,
    kmeans_max_iter: int = 100,
    project: bool = True,
) -> ComparisonResult:
    """Run one dataset through the CUDA, Matlab and Python columns."""
    ds = load_dataset(name, scale=scale, seed=seed)
    point_input = ds.points is not None
    kw: dict = (
        dict(X=ds.points, edges=ds.edges)
        if point_input
        else dict(graph=ds.graph)
    )

    device = Device()
    sc = SpectralClustering(
        n_clusters=ds.n_clusters,
        eig_tol=eig_tol,
        kmeans_max_iter=kmeans_max_iter,
        seed=seed,
        device=device,
    )
    res = sc.fit(**kw)
    # sklearn seeds k-means with k-means++ as the CUDA fit does, so the
    # Python column's Lloyd run is the fit's own; Matlab seeds at random
    mat_km = kmeans_cpu(
        res.embedding, ds.n_clusters, init=MATLAB_2015A.kmeans_init,
        max_iter=kmeans_max_iter, seed=seed,
    )

    stats = res.eig_stats
    counters = dict(
        n_op=stats["n_op"],
        n_restarts=stats["n_restarts"],
        m=stats["m"],
        cuda_kmeans_iters=res.kmeans.n_iter,
        matlab_kmeans_iters=mat_km.n_iter,
        python_kmeans_iters=res.kmeans.n_iter,
    )
    nnz_dir = ds.edges.shape[0] if point_input else ds.graph.nnz // 2
    modeled = {
        col: bcost.baseline_stages(
            profile, n=res.kept.size, nnz=nnz_dir, k=ds.n_clusters,
            m=stats["m"], n_op=stats["n_op"], n_restarts=stats["n_restarts"],
            kmeans_iters=counters[f"{col}_kmeans_iters"],
            point_input=point_input,
        )
        for col, profile in _BASELINES
    }
    stages = {
        s: {
            "cuda": res.timings.simulated.get(s, 0.0)
            + (res.timings.simulated.get("laplacian", 0.0) if s == "eigensolver" else 0.0),
            "matlab": modeled["matlab"][s],
            "python": modeled["python"][s],
        }
        for s in modeled["matlab"]
    }

    quality = {}
    if ds.labels is not None:
        cuda_ari = adjusted_rand_index(res.labels, ds.labels)
        mat_labels = np.full(res.labels.size, -1, dtype=np.int64)
        mat_labels[res.kept] = mat_km.labels
        quality = {
            "cuda": cuda_ari,
            "matlab": adjusted_rand_index(mat_labels, ds.labels),
            "python": cuda_ari,
        }

    out = ComparisonResult(
        dataset=name,
        scale=scale,
        n=ds.n,
        nnz_directed=ds.n_edges,
        k=ds.n_clusters,
        stages=stages,
        quality=quality,
        counters=counters,
        comm=res.profile.communication,
        comp=res.profile.computation,
        paper=PAPER_TABLES.get(TABLE_OF_DATASET[name], {}),
    )
    if project:
        out.projection = project_paper_scale(name, counters)
    return out


def _cuda_eigensolver_projection(
    n: int, nnz_sym: int, k: int, m: int, n_op: int, n_restarts: int
) -> tuple[float, float]:
    """(computation, communication) seconds of Algorithm 3 at a workload.

    Models the device-resident RCI path: the iteration vector and Lanczos
    basis live on the GPU, so each reverse-communication step is two
    on-device gemv sweeps plus the SpMV with **no** per-op PCIe round
    trip.  Only ARPACK's small tridiagonal state crosses the bus per
    restart, plus one seed upload and one result download.
    """
    gpu = GPUCostModel(K20C)
    cpu = CPUCostModel(XEON_E5_2690)
    pcie = TransferCostModel(PCIE_X16_GEN2)
    j_avg = (k + m) / 2.0
    gemv = gpu.kernel_time(
        2.0 * j_avg * n, (j_avg * n + 2.0 * n) * 8.0, kind="stream"
    )
    per_op_comp = 2.0 * gemv + gpu.spmv_time(n, nnz_sym)
    comp = n_op * per_op_comp
    # restart: host tridiagonal math + on-device basis rotation V <- V Q
    comp += n_restarts * (
        cpu.blas3_time(15.0 * m**3, threads=1)
        + cpu.blas3_time(6.0 * (m - k) * m * m, threads=1)
        + gpu.gemm_time(n, k, m)
    )
    comp += gpu.gemm_time(n, k, m)  # Ritz-vector assembly
    comm = pcie.h2d_time(n * 8)  # seed vector up
    comm += n_restarts * (
        pcie.d2h_time(2 * m * 8) + pcie.h2d_time(m * k * 8)
    )
    comm += pcie.d2h_time(n * k * 8)  # embedding down
    return comp, comm


def _cuda_kmeans_projection(n: int, d: int, k: int, iters: int) -> float:
    """Algorithm 4 per-iteration cost at a workload (gemm + argmin + sort)."""
    gpu = GPUCostModel(K20C)
    per_iter = (
        gpu.gemm_time(n, k, d)
        + gpu.kernel_time(float(n) * k, float(n) * k * 8, kind="stream")  # init S
        + gpu.kernel_time(float(n) * k, float(n) * k * 8, kind="stream")  # argmin
        + gpu.sort_time(n)
        + gpu.kernel_time(float(n) * d, float(n) * d * 8 * 2, kind="stream")  # reduce
    )
    init = gpu.gemm_time(n, k, d) * 0.5  # k-means++ distance passes
    return iters * per_iter + init


def _cuda_similarity_projection(n: int, d: int, nnz_dir: int) -> float:
    """Algorithm 1 at a workload: transfers + the three kernels + sort."""
    gpu = GPUCostModel(K20C)
    pcie = TransferCostModel(PCIE_X16_GEN2)
    t = pcie.h2d_time(n * d * 8) + pcie.h2d_time(nnz_dir * 16)
    t += gpu.kernel_time(float(n) * d, float(n) * d * 8, kind="stream")  # average
    t += gpu.kernel_time(3.0 * n * d, 2.0 * n * d * 8, kind="stream")  # update
    t += gpu.kernel_time(
        2.0 * nnz_dir * d, 2.0 * nnz_dir * d * 8, kind="stream"
    )  # similarity
    t += gpu.sort_time(2 * nnz_dir)
    return t


def project_paper_scale(name: str, counters: dict) -> dict:
    """Evaluate all cost models at the paper's Table II workload.

    Restart counts and Lloyd iteration counts are carried over from the
    measured scaled run; ``n_op`` is recomputed from the paper-scale basis
    size via the IRAM schedule ``n_op = m + restarts · (m - k)``.
    """
    stats = PAPER_STATS[name]
    n = stats["nodes"]
    nnz_dir = stats["edges"]
    nnz_sym = 2 * nnz_dir
    k = stats["clusters"]
    m = min(n, 2 * k + 1)
    restarts = counters["n_restarts"]
    n_op = m + restarts * (m - k)

    point_input = "dim" in stats
    baseline = {
        col: bcost.baseline_stages(
            profile, n=n, nnz=nnz_dir, k=k, m=m, n_op=n_op,
            n_restarts=restarts, kmeans_iters=counters[f"{col}_kmeans_iters"],
            point_input=point_input,
        )
        for col, profile in _BASELINES
    }

    proj: dict = {}
    if point_input:
        proj["similarity"] = {
            "cuda": _cuda_similarity_projection(n, stats["dim"], nnz_dir),
            "matlab": baseline["matlab"]["similarity"],
            "python": baseline["python"]["similarity"],
            "matlab_vectorized": bcost.similarity_vectorized_time(
                MATLAB_2015A, nnz_dir
            ),
            "python_vectorized": bcost.similarity_vectorized_time(
                PYTHON_27, nnz_dir
            ),
        }
    comp, comm = _cuda_eigensolver_projection(n, nnz_sym, k, m, n_op, restarts)
    proj["eigensolver"] = {
        "cuda": comp + comm,
        "cuda_communication": comm,
        "matlab": baseline["matlab"]["eigensolver"],
        "python": baseline["python"]["eigensolver"],
    }
    proj["kmeans"] = {
        "cuda": _cuda_kmeans_projection(n, k, k, counters["cuda_kmeans_iters"]),
        "matlab": baseline["matlab"]["kmeans"],
        "python": baseline["python"]["kmeans"],
    }
    return proj
