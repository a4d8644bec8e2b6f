"""The Matlab/Python comparison columns (paper §V.B).

The paper benchmarks against Matlab 2015a (built-in sparse ops +
Statistics-toolbox k-means) and Python 2.7 (scipy eigsh + sklearn 0.17
k-means).  Both share ARPACK's reverse-communication structure with our
solver; what differs is *where the flops run*: serial interpreted loops for
similarity, CPU SpMV inside the RCI, and loop/sweep-based k-means.  The
columns are therefore charged from the CUDA fit's own iteration counts
(:func:`repro.bench.runner.run_comparison`):

* :mod:`repro.baselines.cost` — the interpreter/CPU cost models with the
  calibration constants documented against the paper's own measurements,
  and :func:`~repro.baselines.cost.baseline_stages`, one column's modeled
  seconds per stage;
* :mod:`repro.baselines.reference` — the host-only pipeline, the
  correctness oracle for the hybrid path.
"""

from repro.baselines.cost import (
    InterpreterProfile,
    MATLAB_2015A,
    PYTHON_27,
    baseline_stages,
    eigensolver_time,
    kmeans_time,
    similarity_serial_time,
    similarity_vectorized_time,
)
from repro.baselines.reference import ReferenceResult, reference_spectral_clustering

__all__ = [
    "InterpreterProfile",
    "MATLAB_2015A",
    "PYTHON_27",
    "baseline_stages",
    "similarity_serial_time",
    "similarity_vectorized_time",
    "eigensolver_time",
    "kmeans_time",
    "ReferenceResult",
    "reference_spectral_clustering",
]
