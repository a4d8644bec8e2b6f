"""k-means clustering: the paper's GPU algorithm and host baselines.

* :mod:`repro.kmeans.gpu` — Algorithm 4: BLAS-3 pairwise distances
  (``S = ||v||² + ||c||² − 2VCᵀ`` via cuBLAS gemm), label argmin, and the
  sort-based centroid update (Thrust ``sort_by_key`` + segmented reduce);
* :mod:`repro.kmeans.init` — Algorithm 5: parallel k-means++ seeding on
  Thrust primitives, plus uniform random seeding;
* :mod:`repro.kmeans.cpu` — vectorized host Lloyd iteration (the numeric
  twin of the Matlab/Python baselines);
* :mod:`repro.kmeans.utils` — shared label/inertia/validation helpers.
"""

from repro.kmeans.utils import KMeansResult, inertia, relabel_empty_clusters
from repro.kmeans.init import (
    kmeans_plus_plus,
    kmeans_plus_plus_device,
    random_init,
)
from repro.kmeans.cpu import kmeans_cpu
from repro.kmeans.gpu import kmeans_device

__all__ = [
    "KMeansResult",
    "inertia",
    "relabel_empty_clusters",
    "kmeans_plus_plus",
    "kmeans_plus_plus_device",
    "random_init",
    "kmeans_cpu",
    "kmeans_device",
]
