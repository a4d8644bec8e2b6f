"""Content fingerprints: the cache/batching identity of a workload.

The serving layer must decide when two requests refer to *the same*
clustering problem.  Object identity is useless across a replayed trace
(every line re-resolves its dataset), so identity is defined by content:

* :func:`graph_fingerprint` — SHA-256 over the canonical CSR form of the
  similarity graph (shape, ``indptr``, ``indices``, values).  Two graphs
  with equal sparsity pattern and equal values fingerprint equally no
  matter how they were constructed (COO entry order, duplicate
  accumulation, format).
* :func:`points_fingerprint` — the point-input analogue: SHA-256 over the
  profile matrix, the ε-edge list, and the similarity measure parameters
  (which determine the graph Algorithm 1 would build).

On top of the workload fingerprint sit two composite keys:

* :func:`operator_key` — identifies a *device operator build* (Algorithm 2
  output).  Requests with equal operator keys can share one graph upload +
  one Laplacian normalization in a micro-batch.
* :func:`embedding_key` — identifies a *spectral embedding* (Algorithm 3
  output).  This is the embedding-cache key: it adds every solver
  parameter that influences the Lanczos iteration or the eigenvector
  post-processing, so a cache hit is bit-identical to a cold solve by
  construction — the cached array was produced by the exact computation
  the key describes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _h64(h: "hashlib._Hash", *ints: int) -> None:
    for i in ints:
        h.update(np.int64(i).tobytes())


def graph_fingerprint(graph: COOMatrix | CSRMatrix) -> str:
    """SHA-256 content hash of a similarity graph in canonical CSR form."""
    csr = graph if isinstance(graph, CSRMatrix) else graph.to_csr()
    h = hashlib.sha256(b"repro.graph.csr.v1")
    _h64(h, csr.shape[0], csr.shape[1], csr.nnz)
    h.update(np.ascontiguousarray(csr.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.data, dtype=np.float64).tobytes())
    return h.hexdigest()


def points_fingerprint(
    X: np.ndarray, edges: np.ndarray, measure: str, sigma: float
) -> str:
    """SHA-256 content hash of a point-input workload (Algorithm 1 inputs).

    ``sigma`` only parameterizes the exponential-decay measure; cosine and
    cross-correlation ignore it entirely, so it is canonicalized to the
    default before hashing.  A request that spells out ``sigma=2.5`` with
    ``similarity='crosscorr'`` builds the exact same graph as the default
    and must share its cache slot.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    h = hashlib.sha256(b"repro.points.v1")
    _h64(h, X.shape[0], X.shape[1] if X.ndim > 1 else 1, edges.shape[0])
    h.update(X.tobytes())
    h.update(edges.tobytes())
    h.update(measure.encode("utf-8"))
    sigma_canon = float(sigma) if measure == "expdecay" else 1.0
    h.update(np.float64(sigma_canon).tobytes())
    return h.hexdigest()


def operator_key(
    fingerprint: str, operator: str, objective: str, handle_isolated: str
) -> tuple:
    """Batch-compatibility key: requests sharing it can share one graph
    upload + Laplacian build (stages 1-2)."""
    return (fingerprint, operator, objective, handle_isolated)


def embedding_key(
    fingerprint: str,
    operator: str,
    objective: str,
    handle_isolated: str,
    n_clusters: int,
    m: int | None,
    eig_tol: float,
    eig_maxiter: int | None,
    seed: int | None,
    normalize_rows: bool,
    precision: str = "fp64",
    embedding: str = "lanczos",
    filter_order: int | None = None,
    n_signals: int | None = None,
) -> tuple:
    """Embedding-cache key: every parameter that influences stages 1-3.

    Note ``seed`` is included because it seeds the Lanczos start vector —
    two requests with different seeds legitimately produce different
    embeddings, so they must not share a cache slot.  ``precision`` and
    ``embedding`` are included because reduced-precision and power-
    iteration embeddings are tolerance-band accurate rather than
    bit-identical — an fp16 solve must never shadow an fp64 one (unlike
    ``devices``/``eig_residency``, which are bit-identical placements
    and deliberately excluded).  ``filter_order``/``n_signals`` shape the
    compressive tier's feature sketch (a different polynomial degree or
    sketch width is a different embedding); they stay ``None`` on the
    eigenvector embeddings, so compressive keys can never collide with
    exact or power keys for the same workload.  The compressive
    ``sample_frac``/``lift`` knobs are stage-4-only (they act after the
    embedding is built) and are deliberately excluded.
    """
    return (
        fingerprint, operator, objective, handle_isolated,
        int(n_clusters), m, float(eig_tol), eig_maxiter, seed,
        bool(normalize_rows), str(precision), str(embedding),
        None if filter_order is None else int(filter_order),
        None if n_signals is None else int(n_signals),
    )


def model_key(
    embedding_key: tuple, kmeans_init: str, kmeans_max_iter: int
) -> tuple:
    """Fitted-model cache key: the embedding key plus the stage-4 knobs
    that shape the centroids.

    A :class:`~repro.core.model.FittedSpectralModel` adds exactly one
    artifact on top of the embedding — the k-means centroids — so its
    identity is the embedding's identity extended by the k-means
    parameters (``seed`` is already in the embedding key and seeds the
    k-means initialization too).  Predict-side knobs (payload size,
    deadline, priority, chaos plan) are deliberately *outside* the key:
    every predict against the same fit shares one cached model.
    """
    return ("model",) + tuple(embedding_key) + (
        str(kmeans_init), int(kmeans_max_iter),
    )
