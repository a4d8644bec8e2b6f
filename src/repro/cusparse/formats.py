"""ELL/HYB device sparse formats and the SpMV format autotuner.

cuSPARSE ships one SpMV kernel per storage format because no single layout
wins everywhere:

* **CSR** is compact but every row read is an irregular gather;
* **ELL** pads all rows to the longest one — fully coalesced reads, so it
  flies on near-uniform row lengths and drowns in padding on skewed ones;
* **HYB** stores the first ``K`` entries of each row in ELL and spills the
  tail to a COO list, splitting the difference for power-law graphs.

:func:`autotune_format` picks the format per matrix from row-length
statistics (mean / max / variance over ``indptr``), by evaluating the
calibrated per-format cost-model kernels and taking the cheapest — the same
inspector/executor split ``cusparseDcsrmv`` callers do by hand.

Bit-identity invariant
----------------------
All formats compute through one substrate (:mod:`repro.cusparse.substrate`):
an ELL or HYB operand shares the :class:`~repro.cusparse.substrate.Substrate`
of the CSR matrix it was converted from, so every SpMV and SpMM reduces
the same canonical CSR-order arrays in the same order as
:func:`~repro.cusparse.spmv.csrmv`.  Format choice changes only the
*charged time* and the device-memory footprint, never a float — which is
what lets the pipeline autotune freely while keeping cluster labels
bit-identical.
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

SPMV_FORMATS = ("csr", "ell", "hyb")


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

    ``cols`` uses ``-1`` for padding slots and ``val`` zero-fills them; the
    device arrays are the format's real memory footprint.  Products read
    the source CSR's ``substrate`` — see the module docstring.
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


@dataclass
class DeviceHYB:
    """HYB matrix on the device: ELL part of width ``K`` plus a COO tail."""

    ell_cols: DeviceArray
    ell_val: DeviceArray
    coo_row: DeviceArray
    coo_col: DeviceArray
    coo_val: DeviceArray
    shape: tuple[int, int]
    nnz: int
    substrate: Substrate = field(repr=False)

    @property
    def width(self) -> int:
        return self.ell_cols.shape[1] if self.ell_cols.ndim == 2 else 0

    @property
    def nnz_ell(self) -> int:
        return self.nnz - self.coo_val.size

    @property
    def nnz_coo(self) -> int:
        return self.coo_val.size

    @property
    def device(self):
        return self.ell_val.device

    def free(self) -> None:
        self.ell_cols.free()
        self.ell_val.free()
        self.coo_row.free()
        self.coo_col.free()
        self.coo_val.free()


def _padded_layout(
    A: DeviceCSR, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter the first ``width`` entries of each CSR row into the padded
    ``(n_rows, width)`` ELL arrays; returns (cols, vals, kept-entry mask)."""
    n = A.shape[0]
    counts = A.row_lengths()
    offsets = np.repeat(A.indptr.data[:-1], counts)
    slot = np.arange(A.nnz, dtype=np.int64) - offsets  # position within row
    mask = slot < width
    cols = np.full((n, max(width, 1)), -1, dtype=np.int64)
    vals = np.zeros((n, max(width, 1)), dtype=A.val.data.dtype)
    rows = A.substrate.rows
    cols[rows[mask], slot[mask]] = A.indices.data[mask]
    vals[rows[mask], slot[mask]] = A.val.data[mask]
    return cols, vals, mask


def csr_to_ell(A: DeviceCSR, width: int | None = None) -> DeviceELL:
    """Convert CSR -> ELL on the device (``cusparseDcsr2ell``).

    Charges one streaming conversion kernel; allocates the padded layout
    through the device allocator.  ``width`` defaults to the longest row.
    """
    dev = A.device
    chaos_check("cusparse.csr2ell", dev)
    n, _ = A.shape
    if width is None:
        counts = A.row_lengths()
        width = int(counts.max()) if counts.size else 0
    cols_host, vals_host, mask = _padded_layout(A, width)
    if not mask.all():
        raise SparseFormatError(
            f"ELL width {width} drops entries (longest row is larger); "
            "use HYB for skewed matrices"
        )
    bufs = BufferGroup()
    try:
        cols = bufs.add(dev.empty((n, max(width, 1)), dtype=np.int64))
        val = bufs.add(dev.empty((n, max(width, 1)), dtype=A.val.data.dtype))
    except BaseException:
        bufs.free_all()
        raise
    cols.data[...] = cols_host
    val.data[...] = vals_host
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


def hyb_ell_width(stats: RowStats) -> int:
    """cuSPARSE's ``CUSPARSE_HYB_PARTITION_AUTO`` heuristic: the ELL part
    covers the *typical* row, the tail spills to COO."""
    return max(1, int(math.ceil(stats.mean)))


def csr_to_hyb(A: DeviceCSR, width: int | None = None) -> DeviceHYB:
    """Convert CSR -> HYB on the device (``cusparseDcsr2hyb``)."""
    dev = A.device
    chaos_check("cusparse.csr2hyb", dev)
    n, _ = A.shape
    if width is None:
        width = hyb_ell_width(row_stats(A.indptr.data))
    cols_host, vals_host, mask = _padded_layout(A, width)
    spill = ~mask
    bufs = BufferGroup()
    try:
        ell_cols = bufs.add(dev.empty((n, width), dtype=np.int64))
        ell_val = bufs.add(dev.empty((n, width), dtype=A.val.data.dtype))
        n_coo = max(int(spill.sum()), 0)
        coo_row = bufs.add(dev.empty(n_coo, dtype=np.int64))
        coo_col = bufs.add(dev.empty(n_coo, dtype=np.int64))
        coo_val = bufs.add(dev.empty(n_coo, dtype=A.val.data.dtype))
    except BaseException:
        bufs.free_all()
        raise
    ell_cols.data[...] = cols_host
    ell_val.data[...] = vals_host
    coo_row.data[...] = A.substrate.rows[spill]
    coo_col.data[...] = A.indices.data[spill]
    coo_val.data[...] = A.val.data[spill]
    vs = A.val.data.dtype.itemsize
    dt = dev.cost.format_conversion_time(
        A.nnz, n * width + 3 * coo_val.size, itemsize=vs
    )
    dev.timeline.record(f"cusparse{kernel_letter(vs)}csr2hyb", "kernel", dt)
    dev.kernel_launches += 1
    return DeviceHYB(
        ell_cols=ell_cols,
        ell_val=ell_val,
        coo_row=coo_row,
        coo_col=coo_col,
        coo_val=coo_val,
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
    #: ELL partition width a HYB conversion would use
    hyb_width: int

    def as_dict(self) -> dict:
        return {
            "format": self.format,
            "predicted_spmv_s": dict(self.predicted_s),
            "hyb_width": self.hyb_width,
            "row_mean": self.stats.mean,
            "row_max": self.stats.max,
            "row_variance": self.stats.variance,
            "padding_ratio": self.stats.padding_ratio,
        }


def autotune_format(
    indptr: np.ndarray,
    cost: GPUCostModel,
    formats: tuple[str, ...] = SPMV_FORMATS,
    itemsize: int = 8,
) -> FormatDecision:
    """Choose the cheapest SpMV format from row-length statistics.

    Evaluates the calibrated cost-model kernel for each candidate format on
    this matrix's shape and picks the minimum time; ties (and empty
    matrices) fall back to CSR.  The decision is a pure function of
    ``indptr`` and the device spec — deterministic and free of measurement
    noise, an analytic stand-in for the probe-and-measure autotuners real
    libraries use.  (A simulated kernel's measured time *is* the model's
    prediction, so timing earlier solves adds no evidence.)

    ``itemsize`` is the value-storage width the predictions price — pass
    the reduced width when tuning for an fp32/fp16 operand.
    """
    for f in formats:
        if f not in SPMV_FORMATS:
            raise SparseFormatError(f"unknown SpMV format {f!r}")
    stats = row_stats(indptr)
    K = hyb_ell_width(stats)
    predicted: dict[str, float] = {}
    if "csr" in formats:
        predicted["csr"] = cost.spmv_time(stats.n_rows, stats.nnz, itemsize=itemsize)
    if stats.nnz and stats.n_rows:
        counts = np.diff(indptr)
        if "ell" in formats:
            predicted["ell"] = cost.ellmv_time(
                stats.n_rows, stats.nnz, stats.max, itemsize=itemsize
            )
        if "hyb" in formats:
            nnz_ell = int(np.minimum(counts, K).sum())
            predicted["hyb"] = cost.hybmv_time(
                stats.n_rows, nnz_ell, K, stats.nnz - nnz_ell, itemsize=itemsize
            )
    if not predicted:
        raise SparseFormatError("no candidate formats to autotune over")
    return FormatDecision(
        format=_cheapest(predicted), stats=stats, predicted_s=predicted,
        hyb_width=K,
    )


def _cheapest(effective: dict[str, float]) -> str:
    """The minimum-time format; CSR (no conversion) wins ties."""
    best = min(sorted(effective), key=lambda f: effective[f])
    if effective.get("csr", float("inf")) <= effective[best]:
        best = "csr"
    return best


def autotune_spmm_format(
    indptr: np.ndarray,
    cost: GPUCostModel,
    p: int,
    formats: tuple[str, ...] = SPMV_FORMATS,
    conversion_uses: int | None = None,
    itemsize: int = 8,
) -> FormatDecision:
    """Choose the cheapest SpMM format for a ``p``-column right-hand side.

    The SpMM twin of :func:`autotune_format`, reusing the same row-length
    evidence and :class:`FormatDecision` reporting: the calibrated
    per-format SpMM kernels (``spmm_time``/``ellmm_time``/``hybmm_time``)
    are evaluated on this matrix's shape and the minimum picked.  Ties
    fall back to CSR (no conversion needed).

    ``conversion_uses`` charges each non-CSR candidate its CSR->X
    conversion kernel amortized over that many SpMM launches — pass ``1``
    when the operand is rebuilt per product (the k-means membership
    matrix changes every Lloyd iteration), leave ``None`` when the
    conversion happens once outside the measured loop.
    """
    if p < 1:
        raise SparseFormatError(f"spmm autotune needs p >= 1 columns, got {p}")
    if conversion_uses is not None and conversion_uses < 1:
        raise SparseFormatError(
            f"conversion_uses must be >= 1, got {conversion_uses}"
        )
    for f in formats:
        if f not in SPMV_FORMATS:
            raise SparseFormatError(f"unknown SpMM format {f!r}")
    stats = row_stats(indptr)
    K = hyb_ell_width(stats)
    predicted: dict[str, float] = {}
    conversion: dict[str, float] = {}
    if "csr" in formats:
        predicted["csr"] = cost.spmm_time(
            stats.n_rows, stats.nnz, p, itemsize=itemsize
        )
    if stats.nnz and stats.n_rows:
        counts = np.diff(indptr)
        if "ell" in formats:
            predicted["ell"] = cost.ellmm_time(
                stats.n_rows, stats.nnz, stats.max, p, itemsize=itemsize
            )
            conversion["ell"] = cost.format_conversion_time(
                stats.nnz, stats.n_rows * stats.max, itemsize=itemsize
            )
        if "hyb" in formats:
            nnz_ell = int(np.minimum(counts, K).sum())
            predicted["hyb"] = cost.hybmm_time(
                stats.n_rows, nnz_ell, K, stats.nnz - nnz_ell, p, itemsize=itemsize
            )
            conversion["hyb"] = cost.format_conversion_time(
                stats.nnz, stats.n_rows * K + 3 * (stats.nnz - nnz_ell), itemsize=itemsize
            )
    if not predicted:
        raise SparseFormatError("no candidate formats to autotune over")
    effective = predicted
    if conversion_uses is not None:
        effective = {
            f: t + conversion.get(f, 0.0) / conversion_uses
            for f, t in predicted.items()
        }
    return FormatDecision(
        format=_cheapest(effective), stats=stats, predicted_s=predicted,
        hyb_width=K,
    )


def convert_for_spmv(
    A: DeviceCSR, fmt: str, hyb_width: int | None = None
) -> "DeviceCSR | DeviceELL | DeviceHYB":
    """Materialize ``A`` in ``fmt`` (no-op for ``"csr"``)."""
    if fmt == "csr":
        return A
    if fmt == "ell":
        return csr_to_ell(A)
    if fmt == "hyb":
        return csr_to_hyb(A, width=hyb_width)
    raise SparseFormatError(f"unknown SpMV format {fmt!r}")
