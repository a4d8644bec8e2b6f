"""Sparse format conversions on the device.

``coo2csr`` reproduces ``cusparseXcoo2csr``: the COO row indices (assumed
sorted, as Algorithm 1 produces them) are compressed into the CSR row
pointer by a counting pass + prefix sum — both streaming device kernels.
"""

from __future__ import annotations

import numpy as np

from repro.cuda.memory import BufferGroup
from repro.cusparse.matrices import DeviceCOO, DeviceCSR
from repro.errors import SparseFormatError


def coo2csr(coo: DeviceCOO, assume_sorted: bool = True) -> DeviceCSR:
    """Compress device COO row indices into CSR (``cusparseXcoo2csr``).

    Parameters
    ----------
    assume_sorted:
        cuSPARSE requires rows sorted ascending.  When False, a device
        radix sort of the triples is performed first (Thrust-style),
        charging sort time.
    """
    dev = coo.device
    n = coo.shape[0]
    rows = coo.row.data
    cols = coo.col.data
    vals = coo.val.data
    if not assume_sorted:
        order = np.argsort(rows * coo.shape[1] + cols, kind="stable")
        rows = rows[order]
        cols = cols[order]
        vals = vals[order]
        dev.timeline.record(
            "thrust::sort_by_key[coo2csr]", "kernel", dev.cost.sort_time(rows.size)
        )
    elif rows.size and np.any(np.diff(rows) < 0):
        raise SparseFormatError(
            "coo2csr: row indices not sorted; pass assume_sorted=False"
        )

    counts = np.bincount(rows, minlength=n)
    indptr_host = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr_host[1:])

    bufs = BufferGroup()
    try:
        indptr = bufs.add(dev.empty(n + 1, dtype=np.int64))
        indptr.data[...] = indptr_host
        indices = bufs.add(dev.empty(cols.size, dtype=np.int64))
        indices.data[...] = cols
        val = bufs.add(dev.empty(vals.size, dtype=np.float64))
        val.data[...] = vals
        dev.charge_kernel(
            "cusparseXcoo2csr",
            flops=rows.size,
            bytes_moved=rows.size * 8 + (n + 1) * 8,
        )
    except BaseException:
        bufs.free_all()
        raise
    return DeviceCSR(indptr=indptr, indices=indices, val=val, shape=coo.shape)


def csr2coo(csr: DeviceCSR) -> DeviceCOO:
    """Expand the CSR row pointer back to per-nonzero row indices."""
    dev = csr.device
    n = csr.shape[0]
    lengths = np.diff(csr.indptr.data)
    rows_host = np.repeat(np.arange(n, dtype=np.int64), lengths)
    bufs = BufferGroup()
    try:
        row = bufs.add(dev.empty(rows_host.size, dtype=np.int64))
        row.data[...] = rows_host
        col = bufs.add(dev.empty(csr.indices.size, dtype=np.int64))
        col.data[...] = csr.indices.data
        val = bufs.add(dev.empty(csr.val.size, dtype=np.float64))
        val.data[...] = csr.val.data
        dev.charge_kernel(
            "cusparseXcsr2coo",
            flops=rows_host.size,
            bytes_moved=rows_host.size * 8 + (n + 1) * 8,
        )
    except BaseException:
        bufs.free_all()
        raise
    return DeviceCOO(row=row, col=col, val=val, shape=csr.shape)
