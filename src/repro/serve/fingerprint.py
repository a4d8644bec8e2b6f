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
  profile matrix and the ε-edge list (which determine the graph
  Algorithm 1 would build).

On top of the workload fingerprint sit two composite keys:

* :func:`operator_key` — identifies a *device operator build* (Algorithm 2
  output).  Requests with equal operator keys can share one graph upload +
  one Laplacian normalization in a micro-batch.
* :func:`embedding_key` — identifies a *spectral embedding* (Algorithm 3
  output).  This is the service's one cache key, shared by fit and
  predict requests: it adds every solver parameter that influences the
  Lanczos iteration or the eigenvector post-processing, so the cached
  model's embedding is bit-identical to a cold solve by construction —
  it was produced by the exact computation the key describes.

The key reads a :class:`~repro.core.config.ClusterConfig` through the
role tables below, which give every config field exactly one role.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.compressive.filters import DEFAULT_FILTER_ORDER, default_n_signals
from repro.core.config import ClusterConfig
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


def points_fingerprint(X: np.ndarray, edges: np.ndarray) -> str:
    """SHA-256 content hash of a point-input workload (Algorithm 1 inputs;
    the measure is always cross-correlation)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    h = hashlib.sha256(b"repro.points.v2")
    _h64(h, X.shape[0], X.shape[1] if X.ndim > 1 else 1, edges.shape[0])
    h.update(X.tobytes())
    h.update(edges.tobytes())
    return h.hexdigest()


def operator_key(fingerprint: str, operator: str, objective: str) -> tuple:
    """Batch-compatibility key: requests sharing it can share one graph
    upload + Laplacian build (stages 1-2)."""
    return (fingerprint, operator, objective)


# Every ClusterConfig field has exactly one cache role: it is in the
# embedding key, it selects the cached labels, or it is deliberately not
# keyed (with the reason).  tests/serve/test_fingerprint.py fails when a
# field has none.

#: Embedding key: the fields that change the embedding (stages 1-3), in
#: key order.  ``seed`` seeds the Lanczos start vector; ``precision`` and
#: ``embedding`` select tolerance-band accurate (not bit-identical)
#: embeddings, so an fp16 or power solve never shadows an exact one;
#: ``filter_order``/``n_signals`` shape the compressive sketch.
EMBEDDING_KEY_FIELDS = (
    "operator", "objective", "n_clusters", "m", "eig_tol", "eig_maxiter",
    "seed", "precision", "embedding", "filter_order", "n_signals",
)

#: Label fields: the stage-4 knobs that shape the k-means labels and
#: centroids (``seed``, in the key, also seeds the k-means start).  They
#: are not keyed — a request that differs from a cached entry only here
#: still reuses its solve — but a request reuses the entry's labels only
#: when all of them equal the entry's (:func:`same_labels`); otherwise it
#: reruns stage 4 on the cached embedding.
LABEL_FIELDS = ("kmeans_max_iter", "sample_frac")

#: Fields in neither role, and why leaving them out cannot alias results
UNKEYED_FIELDS = {
    "devices": "bit-identical placement: a sharded solve equals one device",
    "eig_residency": "bit-identical placement of the Lanczos vectors",
    "eig_spmv_format": "bit-identical placement: format only changes time",
}

#: the cast that canonicalizes a keyed value (other fields key as is)
_CASTS = {
    "n_clusters": int, "eig_tol": float, "precision": str, "embedding": str,
    "filter_order": int, "n_signals": int, "kmeans_max_iter": int,
    "sample_frac": float,
}


def _keyed(values: dict, names: tuple) -> tuple:
    return tuple(
        _CASTS[name](values[name])
        if name in _CASTS and values[name] is not None else values[name]
        for name in names
    )


def embedding_key(fingerprint: str, config: ClusterConfig) -> tuple:
    """The cache key: the workload fingerprint plus the
    :data:`EMBEDDING_KEY_FIELDS` values of ``config``.

    The compressive knobs are resolved to the engine defaults, so an
    explicit-default request shares a slot with an engine-default one;
    they key ``None`` on the eigenvector embeddings (where they are
    inert), so compressive keys never collide with exact or power keys
    for the same workload.
    """
    values = vars(config).copy()
    if config.embedding == "compressive":
        values["filter_order"] = config.filter_order or DEFAULT_FILTER_ORDER
        values["n_signals"] = (
            config.n_signals or default_n_signals(config.n_clusters)
        )
    else:
        values["filter_order"] = values["n_signals"] = None
    return (fingerprint,) + _keyed(values, EMBEDDING_KEY_FIELDS)


def same_labels(a: ClusterConfig, b: ClusterConfig) -> bool:
    """Whether configs with equal embedding keys give the same labels:
    their :data:`LABEL_FIELDS` agree."""
    return _keyed(vars(a), LABEL_FIELDS) == _keyed(vars(b), LABEL_FIELDS)
