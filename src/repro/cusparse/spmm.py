"""Sparse × dense matrix products on the device (``cusparseDcsrmm`` and
its ELL counterpart).

The same format trade-off that drives the SpMV autotuner applies to SpMM:
the padded ELL layout streams coalesced and is read once per launch
(amortized over the ``p`` columns of B), while CSR pays an irregular
gather per row segment.  All formats compute through one substrate
(:mod:`repro.cusparse.substrate`): the gathered-B products in canonical
CSR order, row-reduced by the same ``np.add.reduceat`` over the same
non-empty row starts, so the format choice changes only the charged
time, never a float of C.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.runtime import chaos_check
from repro.cuda.memory import DeviceArray
from repro.cusparse.matrices import DeviceCSR
from repro.cusparse.substrate import charge, epilogue
from repro.errors import SparseValueError
from repro.precision import kernel_letter


def _product(kernel: str, A, B: DeviceArray, C, alpha: float, beta: float):
    """Chaos site, operand checks and ``C <- alpha * A @ B + beta * C``
    through the substrate; returns ``(C, device, p, value itemsize)``."""
    dev = A.device
    chaos_check(f"cusparse.{kernel}", dev)
    n, m = A.shape
    if B.ndim != 2 or B.shape[0] != m:
        raise SparseValueError(f"spmm: A is {A.shape}, B is {B.shape}")
    p = B.shape[1]
    if C is not None and C.shape != (n, p):
        raise SparseValueError(f"spmm: C is {C.shape}, expected {(n, p)}")
    sub = A.substrate
    if C is None:
        C = dev.empty((n, p), dtype=sub.vals.dtype)
        beta = 0.0
    out = C.data
    if (
        alpha == 1.0 and beta == 0.0 and out.dtype == np.float64
        and out.flags.c_contiguous and not np.may_share_memory(out, B.data)
    ):
        # ``1.0 * prod`` is ``prod`` bit for bit: reduce straight into C
        sub.spmm(B.data, out=out)
    else:
        epilogue(out, sub.spmm(B.data), alpha, beta)
    return C, dev, p, sub.vals.dtype.itemsize


def csrmm(
    A: DeviceCSR,
    B: DeviceArray,
    C: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> DeviceArray:
    """``C <- alpha * A @ B + beta * C`` with sparse A and dense B.

    Used when several vectors are multiplied at once (e.g. applying the
    operator to a block of Lanczos restart vectors).  One launch; the
    matrix structure traffic is amortized across the ``p`` columns.
    """
    C, dev, p, vs = _product("csrmm", A, B, C, alpha, beta)
    n, nnz = A.shape[0], A.nnz
    charge(
        dev, f"cusparse{kernel_letter(vs)}csrmm",
        dev.cost.spmm_time(n, nnz, p, itemsize=vs),
        dev.cost.spmm_bytes(n, nnz, p, vs),
    )
    return C


def ellmm(
    A,
    B: DeviceArray,
    C: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> DeviceArray:
    """``C <- alpha * A @ B + beta * C`` for a :class:`DeviceELL` matrix.

    One coalesced launch over the padded layout; on near-uniform row
    lengths (e.g. the k-means membership matrix at exactly one nonzero
    per row) it beats csrmm by skipping the row-pointer indirection.
    """
    C, dev, p, vs = _product("ellmm", A, B, C, alpha, beta)
    n = A.shape[0]
    charge(
        dev, f"cusparse{kernel_letter(vs)}ellmm",
        dev.cost.ellmm_time(n, A.nnz, A.width, p, itemsize=vs),
        dev.cost.ellmm_bytes(n, A.nnz, A.width, p, vs),
    )
    return C


def spmm_any(
    A,
    B: DeviceArray,
    C: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> DeviceArray:
    """Format-dispatching SpMM: CSR or ELL operand, same semantics."""
    from repro.cusparse.formats import DeviceELL

    if isinstance(A, DeviceCSR):
        return csrmm(A, B, C, alpha=alpha, beta=beta)
    if isinstance(A, DeviceELL):
        return ellmm(A, B, C, alpha=alpha, beta=beta)
    raise SparseValueError(f"spmm: unsupported operand type {type(A).__name__}")
