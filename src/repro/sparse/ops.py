"""Format-generic sparse operations."""

from __future__ import annotations

import numpy as np

from repro.errors import SparseValueError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def row_sums(A: COOMatrix | CSRMatrix) -> np.ndarray:
    """Per-row sums for any format (degree vector of a similarity graph)."""
    if isinstance(A, (COOMatrix, CSRMatrix)):
        return A.row_sums()
    raise SparseValueError(f"unsupported sparse type {type(A).__name__}")
