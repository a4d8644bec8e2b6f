"""The Matlab 2015a column: reference numerics + the Matlab cost profile.

Matlab specifics reproduced: multithreaded MKL BLAS (all 8 Xeon cores),
built-in sparse SpMV inside ``eigs``'s reverse-communication loop, and the
Statistics-toolbox ``kmeans`` with *random* seeding (the paper singles this
out as the reason Matlab's k-means needs more iterations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import cost
from repro.baselines.cost import MATLAB_2015A
from repro.baselines.reference import ReferenceResult, reference_spectral_clustering


@dataclass
class BaselineRun:
    """A baseline column: actual results plus modeled (paper-axis) times."""

    name: str
    result: ReferenceResult
    #: modeled seconds per stage on the Table I Xeon
    modeled: dict

    @property
    def labels(self) -> np.ndarray:
        return self.result.labels


def run_matlab_like(
    X: np.ndarray | None = None,
    edges: np.ndarray | None = None,
    graph=None,
    n_clusters: int = 2,
    seed: int | None = 0,
    m: int | None = None,
    eig_tol: float = 0.0,
    kmeans_max_iter: int = 300,
    vectorized_similarity: bool = False,
) -> BaselineRun:
    """Run the Matlab-like baseline; see :class:`BaselineRun`.

    ``vectorized_similarity`` selects the optimized Matlab variant the
    paper also quotes (5.75 s instead of 221 s on DTI).
    """
    ref = reference_spectral_clustering(
        X=X, edges=edges, graph=graph, n_clusters=n_clusters,
        m=m, eig_tol=eig_tol,
        kmeans_init=MATLAB_2015A.kmeans_init, kmeans_max_iter=kmeans_max_iter,
        seed=seed,
    )
    n = ref.kept.size
    nnz_dir = edges.shape[0] if edges is not None else (graph.nnz // 2)
    nnz_sym = 2 * nnz_dir
    stats = ref.eig_stats
    modeled = {
        "similarity": (
            cost.similarity_vectorized_time(MATLAB_2015A, nnz_dir)
            if vectorized_similarity
            else cost.similarity_serial_time(MATLAB_2015A, nnz_dir)
        )
        if X is not None
        else 0.0,
        "eigensolver": cost.eigensolver_time(
            MATLAB_2015A, n=n, nnz=nnz_sym, k=n_clusters,
            m=stats["m"], n_op=stats["n_op"], n_restarts=stats["n_restarts"],
        ),
        "kmeans": cost.kmeans_time(
            MATLAB_2015A, n=n, d=n_clusters, k=n_clusters,
            iters=ref.kmeans.n_iter,
        ),
    }
    return BaselineRun(name="Matlab", result=ref, modeled=modeled)
