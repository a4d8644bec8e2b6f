"""The ELL device sparse format and the SpMV/SpMM format autotuner.

cuSPARSE ships one SpMV kernel per storage format because no single layout
wins everywhere:

* **CSR** is compact but every row read is an irregular gather;
* **ELL** pads all rows to the longest one — fully coalesced reads, so it
  flies on near-uniform row lengths and drowns in padding on skewed ones.

:func:`autotune_format` picks the format per matrix from row-length
statistics (mean / max / variance over ``indptr``), by evaluating the
calibrated per-format cost-model kernels and taking the cheapest — the same
inspector/executor split ``cusparseDcsrmv`` callers do by hand.

Bit-identity invariant
----------------------
All formats compute through one substrate (:mod:`repro.cusparse.substrate`):
an ELL operand shares the :class:`~repro.cusparse.substrate.Substrate`
of the CSR matrix it was converted from, so every SpMV and SpMM reduces
the same canonical CSR-order arrays in the same order as
:func:`~repro.cusparse.spmv.csrmv`: the SpMV through the CSR operand's
one row-sweep plan (each row summed from +0.0 in element order), the
SpMM through ``np.add.reduceat``.  COO operands keep the ``bincount``
scatter, whose sums have the same order, because their values are
rescaled in place between products and a plan would cache stale ones.
Format choice changes only the
*charged time* and the device-memory footprint, never a float — which is
what lets the pipeline autotune freely while keeping cluster labels
bit-identical.  The ELL arrays are therefore accounting-only: they are
reserved at the padded layout's size but never materialized on the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.chaos.runtime import chaos_check
from repro.cuda.memory import BufferGroup, DeviceArray
from repro.cusparse.matrices import DeviceCSR
from repro.cusparse.substrate import Substrate
from repro.errors import SparseFormatError
from repro.hw.costmodel import GPUCostModel
from repro.precision import kernel_letter

SPMV_FORMATS = ("csr", "ell")


@dataclass(frozen=True)
class RowStats:
    """Row-length statistics of a sparse matrix (the autotuner's features)."""

    n_rows: int
    nnz: int
    mean: float
    max: int
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def padding_ratio(self) -> float:
        """Padded-ELL entries over true nonzeros (1.0 = perfectly uniform)."""
        if self.nnz == 0:
            return 1.0
        return self.n_rows * self.max / self.nnz


def row_stats(indptr: np.ndarray) -> RowStats:
    """Compute :class:`RowStats` from a CSR ``indptr`` array."""
    counts = np.diff(indptr)
    n_rows = counts.size
    nnz = int(indptr[-1]) if n_rows else 0
    if n_rows == 0:
        return RowStats(0, 0, 0.0, 0, 0.0)
    return RowStats(
        n_rows=n_rows,
        nnz=nnz,
        mean=float(counts.mean()),
        max=int(counts.max()),
        variance=float(counts.var()),
    )


@dataclass
class DeviceELL:
    """ELLPACK matrix on the device: ``(n_rows, width)`` padded layout.

    ``cols`` and ``val`` are accounting-only: reserved with
    :meth:`~repro.cuda.device.Device.reserve`, they charge the padded
    layout's device footprint to the allocator but hold no host storage
    (read-only zero-stride views).  Products read the source CSR's
    ``substrate`` — see the module docstring.
    """

    cols: DeviceArray
    val: DeviceArray
    shape: tuple[int, int]
    nnz: int
    substrate: Substrate = field(repr=False)

    def __post_init__(self) -> None:
        if self.cols.shape != self.val.shape:
            raise SparseFormatError(
                f"device ELL cols/val disagree: {self.cols.shape} vs {self.val.shape}"
            )

    @property
    def width(self) -> int:
        return self.cols.shape[1] if self.cols.ndim == 2 else 0

    @property
    def device(self):
        return self.val.device

    def free(self) -> None:
        self.cols.free()
        self.val.free()


def csr_to_ell(A: DeviceCSR, width: int | None = None) -> DeviceELL:
    """Convert CSR -> ELL on the device (``cusparseDcsr2ell``).

    Charges one streaming conversion kernel and reserves the padded
    layout through the device allocator (the same ``cuda.alloc`` fault
    site, request and bytes as allocating it); no padded copy is written,
    since every product reads the CSR substrate.  ``width`` defaults to
    the longest row.
    """
    dev = A.device
    chaos_check("cusparse.csr2ell", dev)
    n, _ = A.shape
    counts = A.row_lengths()
    longest = int(counts.max()) if counts.size else 0
    if width is None:
        width = longest
    elif width < longest:
        raise SparseFormatError(
            f"ELL width {width} drops entries (longest row is {longest})"
        )
    bufs = BufferGroup()
    try:
        cols = bufs.add(dev.reserve((n, max(width, 1)), dtype=np.int64))
        val = bufs.add(dev.reserve((n, max(width, 1)), dtype=A.val.data.dtype))
    except BaseException:
        bufs.free_all()
        raise
    vs = A.val.data.dtype.itemsize
    dt = dev.cost.format_conversion_time(A.nnz, n * width, itemsize=vs)
    dev.timeline.record(f"cusparse{kernel_letter(vs)}csr2ell", "kernel", dt)
    dev.kernel_launches += 1
    return DeviceELL(
        cols=cols,
        val=val,
        shape=A.shape,
        nnz=A.nnz,
        substrate=A.substrate,
    )


@dataclass(frozen=True)
class FormatDecision:
    """The autotuner's verdict, with its evidence."""

    format: str
    stats: RowStats
    #: predicted per-SpMV seconds for each candidate format
    predicted_s: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "format": self.format,
            "predicted_spmv_s": dict(self.predicted_s),
            "row_mean": self.stats.mean,
            "row_max": self.stats.max,
            "row_variance": self.stats.variance,
            "padding_ratio": self.stats.padding_ratio,
        }


def autotune_format(
    indptr: np.ndarray, cost: GPUCostModel, itemsize: int = 8
) -> FormatDecision:
    """Choose the cheapest SpMV format from row-length statistics.

    Evaluates the calibrated cost-model kernel for each format on this
    matrix's shape and picks the minimum time; ties (and empty matrices)
    fall back to CSR.  The decision is a pure function of ``indptr`` and
    the device spec — deterministic and free of measurement noise, an
    analytic stand-in for the probe-and-measure autotuners real libraries
    use.  (A simulated kernel's measured time *is* the model's prediction,
    so timing earlier solves adds no evidence.)

    ``itemsize`` is the value-storage width the predictions price — pass
    the reduced width when tuning for an fp32/fp16 operand.
    """
    stats = row_stats(indptr)
    predicted = {
        "csr": cost.spmv_time(stats.n_rows, stats.nnz, itemsize=itemsize)
    }
    if stats.nnz and stats.n_rows:
        predicted["ell"] = cost.ellmv_time(
            stats.n_rows, stats.nnz, stats.max, itemsize=itemsize
        )
    return FormatDecision(
        format=_cheapest(predicted), stats=stats, predicted_s=predicted
    )


def _cheapest(effective: dict[str, float]) -> str:
    """The minimum-time format; CSR (no conversion) wins ties."""
    best = min(sorted(effective), key=lambda f: effective[f])
    if effective["csr"] <= effective[best]:
        best = "csr"
    return best


def autotune_spmm_format(
    indptr: np.ndarray,
    cost: GPUCostModel,
    p: int,
    conversion_uses: int | None = None,
    itemsize: int = 8,
) -> FormatDecision:
    """Choose the cheapest SpMM format for a ``p``-column right-hand side.

    The SpMM twin of :func:`autotune_format`, reusing the same row-length
    evidence and :class:`FormatDecision` reporting: the calibrated
    per-format SpMM kernels (``spmm_time``/``ellmm_time``) are evaluated
    on this matrix's shape and the minimum picked.  Ties fall back to CSR
    (no conversion needed).

    ``conversion_uses`` charges the ELL candidate its CSR->ELL conversion
    kernel amortized over that many SpMM launches — pass ``1`` when the
    operand is rebuilt per product (the k-means membership matrix changes
    every Lloyd iteration), leave ``None`` when the conversion happens
    once outside the measured loop.
    """
    if p < 1:
        raise SparseFormatError(f"spmm autotune needs p >= 1 columns, got {p}")
    if conversion_uses is not None and conversion_uses < 1:
        raise SparseFormatError(
            f"conversion_uses must be >= 1, got {conversion_uses}"
        )
    stats = row_stats(indptr)
    predicted = {
        "csr": cost.spmm_time(stats.n_rows, stats.nnz, p, itemsize=itemsize)
    }
    effective = dict(predicted)
    if stats.nnz and stats.n_rows:
        predicted["ell"] = effective["ell"] = cost.ellmm_time(
            stats.n_rows, stats.nnz, stats.max, p, itemsize=itemsize
        )
        if conversion_uses is not None:
            effective["ell"] += cost.format_conversion_time(
                stats.nnz, stats.n_rows * stats.max, itemsize=itemsize
            ) / conversion_uses
    return FormatDecision(
        format=_cheapest(effective), stats=stats, predicted_s=predicted
    )


def convert_for_spmv(A: DeviceCSR, fmt: str) -> "DeviceCSR | DeviceELL":
    """Materialize ``A`` in ``fmt`` (no-op for ``"csr"``)."""
    if fmt == "csr":
        return A
    if fmt == "ell":
        return csr_to_ell(A)
    raise SparseFormatError(f"unknown SpMV format {fmt!r}")
