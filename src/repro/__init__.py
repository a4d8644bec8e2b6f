"""fastsc-py — a reproduction of "A High Performance Implementation of
Spectral Clustering on CPU-GPU Platforms" (Jin & JaJa, 2016).

The package implements the paper's full pipeline on a *simulated* CUDA
platform (real numerics, modeled K20c/Xeon/PCIe time — see DESIGN.md):

>>> from repro import SpectralClustering
>>> from repro.datasets import load_dataset
>>> ds = load_dataset("syn200", scale=0.05)
>>> result = SpectralClustering(n_clusters=ds.n_clusters).fit(graph=ds.graph)
>>> result.labels  # doctest: +SKIP

Subpackages
-----------
``repro.core``
    The public :class:`SpectralClustering` estimator (Figure 2 pipeline)
    and its validated :class:`ClusterConfig`.
``repro.cuda`` / ``repro.cublas`` / ``repro.cusparse`` / ``repro.thrust``
    The simulated CUDA runtime and libraries.
``repro.sparse``
    From-scratch COO/CSR sparse formats.
``repro.linalg``
    The ARPACK-style implicitly restarted Lanczos eigensolver with the
    reverse communication interface.
``repro.graph``
    The cross-correlation measure, ε-neighbour graph construction, Laplacians.
``repro.kmeans``
    GPU k-means (Algorithm 4) with k-means++ seeding (Algorithm 5).
``repro.baselines``
    The Matlab-like and Python-like comparison columns.
``repro.datasets`` / ``repro.metrics`` / ``repro.bench``
    Table II workloads, quality metrics, and the table/figure harness.
"""

from repro._version import __version__
from repro.core.config import ClusterConfig
from repro.core.pipeline import SpectralClustering
from repro.core.result import ClusteringResult, StageTimings
from repro.errors import ReproError

__all__ = [
    "__version__",
    "SpectralClustering",
    "ClusterConfig",
    "ClusteringResult",
    "StageTimings",
    "ReproError",
]
