"""Cost models for the Matlab/Python baseline columns.

Calibration
-----------
The per-environment constants are fixed once, against the paper's own DTI
measurements, and then *every other* table entry is a prediction:

* ``loop_overhead_s`` — the paper's serial similarity loop takes 221.2 s
  (Matlab) / 220.9 s (Python) over 3,992,290 edges → 55.4 / 55.3 µs per
  interpreted loop iteration.
* ``vectorized_edge_cost_s`` — the vectorized variants take 5.753 / 6.271 s
  → 1.44 / 1.57 µs per edge.
* ``blas_threads`` — Matlab 2015a ships multithreaded MKL (8 cores on the
  Table I Xeon); the paper's Python 2.7 scipy/numpy stack runs effectively
  single-threaded BLAS, which is why its eigensolver lags Matlab by ~5×
  on DTI (3282 s vs 603 s).
* ``blas1_derate`` — additional Python slowdown on memory-bound sweeps
  (temporaries and dispatch in numpy-1.10-era ufuncs).
* ``kmeans_init`` — the paper notes Matlab's kmeans uses random seeding
  ("the CUDA and Python implementations utilize the k-means++
  initialization, which leads to fewer number of iterations in general
  than Matlab").

Every model is a pure function of (profile, workload descriptor), so the
same code evaluates both the scaled benchmark runs and the paper-scale
projections recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.costmodel import CPUCostModel
from repro.hw.spec import XEON_E5_2690


@dataclass(frozen=True)
class InterpreterProfile:
    """Execution characteristics of one baseline environment."""

    name: str
    #: seconds per iteration of an interpreted scalar loop
    loop_overhead_s: float
    #: seconds per edge for the vectorized similarity construction
    vectorized_edge_cost_s: float
    #: threads the BLAS-3 kernels use
    blas_threads: int
    #: threads the memory-bound BLAS-1/2 and SpMV paths use
    blas1_threads: int
    #: multiplicative slowdown on memory-bound sweeps (1.0 = none)
    blas1_derate: float
    #: k-means seeding strategy the environment defaults to
    kmeans_init: str
    #: fixed seconds of interpreted reverse-communication machinery per
    #: operator application (eigs.m / scipy LinearOperator bookkeeping,
    #: workspace copies, convergence checks in interpreted code)
    rci_overhead_s: float = 0.0


MATLAB_2015A = InterpreterProfile(
    name="Matlab",
    loop_overhead_s=55.4e-6,
    vectorized_edge_cost_s=1.441e-6,
    blas_threads=8,
    blas1_threads=8,
    blas1_derate=1.0,
    kmeans_init="random",
    rci_overhead_s=2e-3,
)

PYTHON_27 = InterpreterProfile(
    name="Python",
    loop_overhead_s=55.3e-6,
    vectorized_edge_cost_s=1.571e-6,
    blas_threads=1,
    blas1_threads=1,
    blas1_derate=1.6,
    kmeans_init="k-means++",
    rci_overhead_s=8e-3,
)

_CPU = CPUCostModel(XEON_E5_2690)


def similarity_serial_time(profile: InterpreterProfile, nnz: int) -> float:
    """The paper's baseline similarity build: a scalar loop over edges."""
    return nnz * profile.loop_overhead_s


def similarity_vectorized_time(profile: InterpreterProfile, nnz: int) -> float:
    """The vectorized alternative the paper also reports (§V.C prose)."""
    return nnz * profile.vectorized_edge_cost_s


def spmv_time(
    profile: InterpreterProfile, n: int, nnz: int, cpu: CPUCostModel = _CPU
) -> float:
    """One CPU CSR SpMV inside the RCI loop."""
    return cpu.spmv_time(n, nnz, threads=profile.blas1_threads) * profile.blas1_derate


def takestep_time(
    profile: InterpreterProfile, n: int, j_avg: float, cpu: CPUCostModel = _CPU
) -> float:
    """One ARPACK ``TakeStep``: the reorthogonalization sweep (BLAS-2)."""
    nbytes = 2.0 * j_avg * n * 8.0
    return cpu.blas1_time(nbytes, threads=profile.blas1_threads) * profile.blas1_derate


def restart_time(
    profile: InterpreterProfile, n: int, m: int, k: int, cpu: CPUCostModel = _CPU
) -> float:
    """One implicit restart: m×m tridiagonal eig + shift sweeps + V·Q."""
    t = cpu.blas3_time(15.0 * m**3, threads=1)
    t += cpu.blas3_time(6.0 * (m - k) * m * m, threads=1)
    t += cpu.blas3_time(2.0 * n * m * k, threads=profile.blas_threads)
    return t


def eigensolver_time(
    profile: InterpreterProfile,
    n: int,
    nnz: int,
    k: int,
    m: int,
    n_op: int,
    n_restarts: int,
    cpu: CPUCostModel = _CPU,
) -> float:
    """Total baseline eigensolver time for a given iteration history.

    The structure mirrors the paper's complexity expression (10): the
    per-iteration CPU interface cost plus the per-restart dense work, with
    the SpMV on the *CPU* — the one term the hybrid implementation moves
    to the GPU.
    """
    j_avg = (k + m) / 2.0
    per_op = (
        takestep_time(profile, n, j_avg, cpu)
        + spmv_time(profile, n, nnz, cpu)
        + profile.rci_overhead_s
    )
    total = n_op * per_op
    total += n_restarts * restart_time(profile, n, m, k, cpu)
    total += cpu.blas3_time(2.0 * n * m * k, threads=profile.blas_threads)
    return total


def kmeans_time(
    profile: InterpreterProfile,
    n: int,
    d: int,
    k: int,
    iters: int,
    cpu: CPUCostModel = _CPU,
) -> float:
    """Baseline Lloyd k-means: a per-cluster distance sweep each iteration.

    Matlab's kmeans and sklearn-0.17's C path both compute point-to-center
    distances cluster by cluster — ``k`` passes over the ``(n, d)`` data
    per iteration, memory bound — rather than one BLAS-3 product.  That
    access-pattern difference (not raw flops) is what the GPU's
    gemm-reformulated distance kernel exploits for its 100-400× speedups.
    """
    sweep_bytes = float(k) * n * d * 8.0
    per_iter = (
        cpu.blas1_time(sweep_bytes, threads=profile.blas1_threads)
        * profile.blas1_derate
    )
    init = per_iter if profile.kmeans_init == "k-means++" else 0.0
    return iters * per_iter + init


def baseline_stages(
    profile: InterpreterProfile,
    n: int,
    nnz: int,
    k: int,
    m: int,
    n_op: int,
    n_restarts: int,
    kmeans_iters: int,
    point_input: bool,
) -> dict[str, float]:
    """Modeled seconds per stage of one baseline column.

    ``n`` counts the clustered (non-isolated) vertices and ``nnz`` the
    directed edges: the serial similarity loop visits each once, and the
    operator stores both directions.  The iteration history (``m``,
    ``n_op``, ``n_restarts``, ``kmeans_iters``) is the one the baseline
    would run; graph input has no similarity stage.
    """
    stages = {}
    if point_input:
        stages["similarity"] = similarity_serial_time(profile, nnz)
    stages["eigensolver"] = eigensolver_time(
        profile, n=n, nnz=2 * nnz, k=k, m=m, n_op=n_op, n_restarts=n_restarts,
    )
    stages["kmeans"] = kmeans_time(profile, n=n, d=k, k=k, iters=kmeans_iters)
    return stages
