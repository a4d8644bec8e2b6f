"""Sparse matrix formats, written from scratch.

The paper stores the similarity graph in Coordinate (COO) format during
construction and converts to Compressed Sparse Row (CSR) for the
eigensolver's matrix-vector products (§IV.A).  This subpackage provides
both with validated constructors, conversions, and vectorized reference
kernels — no scipy.

These are *host-side* structures; their device-resident counterparts live in
``repro.cusparse``.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.construct import (
    diags,
    from_edge_list,
    identity,
    random_sparse,
)
from repro.sparse.ops import row_sums

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "diags",
    "from_edge_list",
    "identity",
    "random_sparse",
    "row_sums",
]
