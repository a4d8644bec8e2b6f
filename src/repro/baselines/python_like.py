"""The Python 2.7 column: reference numerics + the Python cost profile.

Python-2.7-era specifics reproduced: effectively single-threaded BLAS under
scipy's ARPACK wrapper (the eigensolver's ~5× gap to Matlab on DTI),
numpy-1.10 ufunc overheads on memory-bound sweeps, and sklearn-0.17
``KMeans`` with k-means++ seeding (fewer iterations than Matlab's random
seeding, as the paper notes).
"""

from __future__ import annotations

import numpy as np

from repro.baselines import cost
from repro.baselines.cost import PYTHON_27
from repro.baselines.matlab_like import BaselineRun
from repro.baselines.reference import reference_spectral_clustering


def run_python_like(
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
    """Run the Python-like baseline; see
    :class:`~repro.baselines.matlab_like.BaselineRun`."""
    ref = reference_spectral_clustering(
        X=X, edges=edges, graph=graph, n_clusters=n_clusters,
        m=m, eig_tol=eig_tol,
        kmeans_init=PYTHON_27.kmeans_init, kmeans_max_iter=kmeans_max_iter,
        seed=seed,
    )
    n = ref.kept.size
    nnz_dir = edges.shape[0] if edges is not None else (graph.nnz // 2)
    nnz_sym = 2 * nnz_dir
    stats = ref.eig_stats
    modeled = {
        "similarity": (
            cost.similarity_vectorized_time(PYTHON_27, nnz_dir)
            if vectorized_similarity
            else cost.similarity_serial_time(PYTHON_27, nnz_dir)
        )
        if X is not None
        else 0.0,
        "eigensolver": cost.eigensolver_time(
            PYTHON_27, n=n, nnz=nnz_sym, k=n_clusters,
            m=stats["m"], n_op=stats["n_op"], n_restarts=stats["n_restarts"],
        ),
        "kmeans": cost.kmeans_time(
            PYTHON_27, n=n, d=n_clusters, k=n_clusters,
            iters=ref.kmeans.n_iter,
        ),
    }
    return BaselineRun(name="Python", result=ref, modeled=modeled)
