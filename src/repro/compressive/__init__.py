"""Compressive spectral clustering tier (Tremblay et al., PAPERS.md).

The approximate embedding path for paper-scale graphs: Chebyshev
polynomial filtering of ``O(log k)`` seeded random signals replaces the
eigendecomposition, coherence-weighted downsampling + the fused GPU
k-means replaces full-n clustering, and a regularized interpolation
lifts the labels back to every vertex.  Selected as
``SpectralClustering(embedding="compressive")`` / ``repro run
--embedding compressive``; see ``docs/compressive.md``.
"""

from repro.compressive.engine import CompressiveStats, compressive_embedding
from repro.compressive.filters import (
    DEFAULT_FILTER_ORDER,
    apply_chebyshev_filter,
    chebyshev_filter_coefficients,
    default_n_signals,
    filter_response,
    jackson_damping,
    random_signals,
)
from repro.compressive.lift import lift_labels_device, lift_labels_host
from repro.compressive.sampling import (
    coherence_weights,
    default_sample_frac,
    gather_rows,
    sample_vertices,
)

__all__ = [
    "CompressiveStats",
    "compressive_embedding",
    "DEFAULT_FILTER_ORDER",
    "apply_chebyshev_filter",
    "chebyshev_filter_coefficients",
    "default_n_signals",
    "filter_response",
    "jackson_damping",
    "random_signals",
    "lift_labels_device",
    "lift_labels_host",
    "coherence_weights",
    "default_sample_frac",
    "gather_rows",
    "sample_vertices",
]
