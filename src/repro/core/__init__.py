"""The paper's primary contribution: the hybrid CPU-GPU spectral clustering
pipeline (Figure 2).

:class:`~repro.core.pipeline.SpectralClustering` is the public estimator
and :class:`~repro.core.config.ClusterConfig` its validated knobs;
:mod:`repro.core.workflow` contains the hybrid stage runners (Algorithm 1 →
Algorithm 2 → Algorithm 3 → Algorithm 4) with the CPU/GPU/PCIe time
accounting; :mod:`repro.core.result` defines the result records.
"""

from repro.core.config import ClusterConfig
from repro.core.model import (
    ApplyDeltaResult,
    FittedSpectralModel,
    PredictResult,
)
from repro.core.pipeline import SpectralClustering
from repro.core.result import ClusteringResult, StageTimings
from repro.core.workflow import hybrid_eigensolver, EigStats

__all__ = [
    "ClusterConfig",
    "SpectralClustering",
    "ApplyDeltaResult",
    "FittedSpectralModel",
    "PredictResult",
    "ClusteringResult",
    "StageTimings",
    "hybrid_eigensolver",
    "EigStats",
]
