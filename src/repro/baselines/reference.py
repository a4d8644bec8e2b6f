"""The host-only reference pipeline: the test suite's oracle.

Runs the identical algorithm to the hybrid path — same similarity measure,
same normalized operator, same IRLM eigensolver, same Lloyd k-means — but
entirely on the host, with the SpMV inside the reverse-communication loop
executed by the reference CPU ``csrmv``.  Hybrid and reference must
produce matching restarts, operator applications, eigenvalues and
partitions from matching seeds; that agreement is what lets the Matlab
and Python comparison columns be charged from the CUDA fit's own counters
(:func:`repro.bench.runner.run_comparison`) instead of a host rerun.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.graph.build import build_similarity_graph
from repro.graph.components import remove_isolated
from repro.graph.laplacian import sym_normalized_adjacency
from repro.kmeans.cpu import kmeans_cpu
from repro.kmeans.utils import KMeansResult
from repro.linalg.eigsolver import SymEigProblem
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@dataclass
class ReferenceResult:
    """Host pipeline outcome with the eigensolver and k-means counters."""

    labels: np.ndarray
    eigenvalues: np.ndarray
    embedding: np.ndarray
    kmeans: KMeansResult
    #: eigensolver counters: n_op, n_restarts, m, converged
    eig_stats: dict
    #: wall seconds per stage of this process (not paper-comparable)
    wall: dict
    kept: np.ndarray


def reference_spectral_clustering(
    X: np.ndarray | None = None,
    edges: np.ndarray | None = None,
    graph: COOMatrix | CSRMatrix | None = None,
    n_clusters: int = 2,
    m: int | None = None,
    eig_tol: float = 0.0,
    eig_maxiter: int | None = None,
    kmeans_init: str = "k-means++",
    kmeans_max_iter: int = 300,
    seed: int | None = 0,
) -> ReferenceResult:
    """Run the full pipeline on the host.  Arguments mirror
    :class:`~repro.core.pipeline.SpectralClustering`."""
    point_input = X is not None
    if point_input == (graph is not None):
        raise ClusteringError("provide either (X, edges) or graph=")

    wall: dict[str, float] = {}
    t0 = time.perf_counter()
    if point_input:
        if edges is None:
            raise ClusteringError("point input requires edges")
        W = build_similarity_graph(np.asarray(X), np.asarray(edges))
        n_total = W.shape[0]
    else:
        assert graph is not None
        W = graph
        n_total = W.shape[0]
    W_sub, kept = remove_isolated(W)
    wall["similarity"] = time.perf_counter() - t0

    n = W_sub.shape[0]
    if n <= n_clusters:
        raise ClusteringError(
            f"only {n} non-isolated nodes for k={n_clusters} clusters"
        )

    t0 = time.perf_counter()
    S = sym_normalized_adjacency(W_sub)
    deg = W_sub.row_sums()
    wall["laplacian"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prob = SymEigProblem(
        n=n, k=n_clusters, which="LA", m=m, tol=eig_tol,
        maxiter=eig_maxiter, seed=seed,
    )
    while not prob.converged():
        prob.take_step()
        if prob.needs_matvec():
            prob.put_vector(S.matvec(prob.get_vector()))
    theta, U = prob.find_eigenvectors()
    order = np.argsort(theta)[::-1]
    theta = theta[order]
    U = U[:, order]
    inv_sqrt = 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0))
    embedding = U * inv_sqrt[:, None]
    wall["eigensolver"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    km = kmeans_cpu(
        embedding, n_clusters, init=kmeans_init,
        max_iter=kmeans_max_iter, seed=seed,
    )
    wall["kmeans"] = time.perf_counter() - t0

    labels_full = np.full(n_total, -1, dtype=np.int64)
    labels_full[kept] = km.labels
    res = prob.result
    return ReferenceResult(
        labels=labels_full,
        eigenvalues=theta,
        embedding=embedding,
        kmeans=km,
        eig_stats=dict(
            n_op=res.n_op,
            n_restarts=res.n_restarts,
            m=prob.m,
            converged=res.converged,
        ),
        wall=wall,
        kept=kept,
    )
