"""Large-scale symmetric eigensolver, written from scratch.

This subpackage is the stand-in for ARPACK/ARPACK++ (paper §III.C, §IV.B):

* :mod:`repro.linalg.tridiag` — the tridiagonal Ritz solve (LAPACK);
* :mod:`repro.linalg.qr` — Givens rotations and the implicit shifted QR
  sweep that applies the restart shifts;
* :mod:`repro.linalg.lanczos` — the m-step Lanczos factorization with
  full (DGKS) reorthogonalization;
* :mod:`repro.linalg.iram` — the implicitly restarted Lanczos method with
  exact-shift polynomial filtering (the symmetric IRAM of Sorensen);
* :mod:`repro.linalg.rci` — the reverse communication interface: the solver
  suspends whenever it needs ``OP @ x`` and the caller supplies the product,
  which is how the paper splits the eigensolver between CPU (driver) and GPU
  (SpMV);
* :mod:`repro.linalg.eigsolver` — :class:`SymEigProblem`, the "Prob" object
  of the paper's Algorithm 3, plus a one-call :func:`eigsh` driver.

Like ARPACK itself (which defers small dense eigenproblems to LAPACK), the
inner m×m dense eigenproblems go to LAPACK via ``numpy.linalg``.
"""

from repro.linalg.tridiag import eigh_tridiagonal
from repro.linalg.qr import givens
from repro.linalg.utils import dgks_orthogonalize, normalize_columns
from repro.linalg.lanczos import LanczosState
from repro.linalg.iram import IRLMResult, irlm_generator
from repro.linalg.rci import (
    LanczosCheckpoint,
    MatvecRequest,
    RCIStatus,
    TransferLedger,
)
from repro.linalg.eigsolver import SymEigProblem, eigsh

__all__ = [
    "eigh_tridiagonal",
    "givens",
    "dgks_orthogonalize",
    "normalize_columns",
    "LanczosState",
    "IRLMResult",
    "irlm_generator",
    "LanczosCheckpoint",
    "MatvecRequest",
    "RCIStatus",
    "TransferLedger",
    "SymEigProblem",
    "eigsh",
]
