"""Sparse matrix-vector products on the device.

:func:`csrmv` is the workhorse of the whole paper: ARPACK's reverse
communication interface calls it once (sometimes twice) per Lanczos
iteration, with the vector shuttling over PCIe each time (Algorithm 3).
The cost model charges gather-class bandwidth, which is why the GPU's
advantage over a CPU SpMV is the ~5-10x the paper reports rather than the
raw flops ratio.

Every kernel here is three steps: check the operands, compute through the
operand's :class:`~repro.cusparse.substrate.Substrate` (one product for
all formats), and charge its launches through
:func:`~repro.cusparse.substrate.charge`.
"""

from __future__ import annotations

from repro.chaos.runtime import chaos_check
from repro.cuda.memory import DeviceArray
from repro.cusparse.matrices import DeviceCOO, DeviceCSR
from repro.cusparse.substrate import charge, epilogue
from repro.errors import SparseValueError
from repro.precision import kernel_letter


def _product(kernel: str, A, x: DeviceArray, y, alpha: float, beta: float):
    """Chaos site, operand checks and ``y <- alpha * A @ x + beta * y``
    through the substrate; returns ``(y, device, value itemsize)``."""
    dev = A.device
    chaos_check(f"cusparse.{kernel}", dev)
    n, m = A.shape
    if x.size != m:
        raise SparseValueError(f"{kernel}: A is {A.shape}, x has length {x.size}")
    sub = A.substrate
    if y is None:
        y = dev.empty(n, dtype=sub.vals.dtype)
        beta = 0.0
    elif y.size != n:
        raise SparseValueError(f"{kernel}: A is {A.shape}, y has length {y.size}")
    epilogue(y.data, sub.spmv(x.data), alpha, beta)
    return y, dev, sub.vals.dtype.itemsize


def csrmv(
    A: DeviceCSR,
    x: DeviceArray,
    y: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> DeviceArray:
    """``y <- alpha * A @ x + beta * y`` (``cusparseDcsrmv``)."""
    y, dev, vs = _product("csrmv", A, x, y, alpha, beta)
    n, nnz = A.shape[0], A.nnz
    charge(
        dev, f"cusparse{kernel_letter(vs)}csrmv",
        dev.cost.spmv_time(n, nnz, itemsize=vs), dev.cost.spmv_bytes(n, nnz, vs),
    )
    return y


def coomv(
    A: DeviceCOO,
    x: DeviceArray,
    y: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> DeviceArray:
    """``y <- alpha * A @ x + beta * y`` in COO (atomics-based kernel).

    COO SpMV on a GPU requires atomic scatter-adds; the cost model reflects
    this with an extra penalty over csrmv — the reason the pipeline converts
    to CSR before the eigensolver (§IV.B, and the format ablation bench).
    """
    y, dev, vs = _product("coomv", A, x, y, alpha, beta)
    n, nnz = A.shape[0], A.nnz
    # atomic contention: ~2x the csrmv time at the same bytes
    charge(
        dev, f"cusparse{kernel_letter(vs)}coomv",
        dev.cost.spmv_time(n, nnz, itemsize=vs) * 2.0,
        dev.cost.spmv_bytes(n, nnz, vs),
    )
    return y


def ellmv(
    A,
    x: DeviceArray,
    y: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> DeviceArray:
    """``y <- alpha * A @ x + beta * y`` for a :class:`DeviceELL` matrix.

    One fully-coalesced kernel over the padded layout; cheap on uniform row
    lengths, pays for every padding slot on skewed ones.
    """
    y, dev, vs = _product("ellmv", A, x, y, alpha, beta)
    n = A.shape[0]
    charge(
        dev, f"cusparse{kernel_letter(vs)}ellmv",
        dev.cost.ellmv_time(n, A.nnz, A.width, itemsize=vs),
        dev.cost.ellmv_bytes(n, A.nnz, A.width, vs),
    )
    return y


def spmv_any(
    A,
    x: DeviceArray,
    y: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> DeviceArray:
    """Format-dispatching SpMV: CSR or ELL operand, same semantics."""
    from repro.cusparse.formats import DeviceELL

    if isinstance(A, DeviceCSR):
        return csrmv(A, x, y, alpha=alpha, beta=beta)
    if isinstance(A, DeviceELL):
        return ellmv(A, x, y, alpha=alpha, beta=beta)
    if isinstance(A, DeviceCOO):
        return coomv(A, x, y, alpha=alpha, beta=beta)
    raise SparseValueError(f"spmv: unsupported operand type {type(A).__name__}")
