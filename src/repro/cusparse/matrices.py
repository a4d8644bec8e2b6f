"""Device-resident sparse matrix handles.

Thin records of :class:`~repro.cuda.memory.DeviceArray` components plus the
matrix shape — the same three-array layouts the host formats use, but living
in (simulated) device memory.  Moving a host matrix to the device charges
one H2D transfer per component array, exactly what ``cudaMemcpy`` of the
three COO/CSR arrays costs on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.cuda.device import Device
from repro.cuda.memory import BufferGroup, DeviceArray
from repro.cusparse.substrate import Substrate
from repro.errors import SparseFormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@dataclass
class DeviceCOO:
    """COO matrix on the device: three parallel nnz-length arrays."""

    row: DeviceArray
    col: DeviceArray
    val: DeviceArray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if not (self.row.size == self.col.size == self.val.size):
            raise SparseFormatError(
                f"device COO arrays disagree on nnz: {self.row.size}/"
                f"{self.col.size}/{self.val.size}"
            )

    @property
    def nnz(self) -> int:
        return self.val.size

    @property
    def device(self) -> Device:
        return self.val.device

    @cached_property
    def substrate(self) -> Substrate:
        """The product arrays (the row ids are stored, not expanded)."""
        return Substrate(
            self.shape[0], self.col.data, self.val.data, rows=self.row.data
        )

    def to_host(self) -> COOMatrix:
        """Copy back to a host COOMatrix (three D2H transfers)."""
        return COOMatrix(
            self.row.copy_to_host(),
            self.col.copy_to_host(),
            self.val.copy_to_host(),
            self.shape,
            check=False,
        )

    def free(self) -> None:
        self.row.free()
        self.col.free()
        self.val.free()
        self.__dict__.pop("substrate", None)  # release the host arrays too


@dataclass
class DeviceCSR:
    """CSR matrix on the device.

    The structure and values are fixed once built: the :attr:`substrate`
    a product reads, and its SpMV plan (which copies the values), are
    derived on first use and kept.
    """

    indptr: DeviceArray
    indices: DeviceArray
    val: DeviceArray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        if self.indptr.size != self.shape[0] + 1:
            raise SparseFormatError(
                f"device CSR indptr length {self.indptr.size} != "
                f"n_rows+1 = {self.shape[0] + 1}"
            )
        if self.indices.size != self.val.size:
            raise SparseFormatError(
                f"device CSR indices/val mismatch: {self.indices.size} vs {self.val.size}"
            )

    @property
    def nnz(self) -> int:
        return self.val.size

    @property
    def device(self) -> Device:
        return self.val.device

    @cached_property
    def substrate(self) -> Substrate:
        """The product arrays over the device buffers (no copy)."""
        return Substrate(
            self.shape[0], self.indices.data, self.val.data,
            indptr=self.indptr.data,
        )

    def row_lengths(self):
        """Per-row nonzero counts (host-side view of ``indptr`` deltas).

        Row-length statistics drive the SpMV format autotuner
        (:mod:`repro.cusparse.formats`); reading ``n+1`` row pointers is
        metadata work the real pipeline also does on the host.
        """
        import numpy as np

        return np.diff(self.indptr.data)

    def to_host(self) -> CSRMatrix:
        """Copy back to a host CSRMatrix (three D2H transfers)."""
        return CSRMatrix(
            self.indptr.copy_to_host(),
            self.indices.copy_to_host(),
            self.val.copy_to_host(),
            self.shape,
            check=False,
        )

    def free(self) -> None:
        self.indptr.free()
        self.indices.free()
        self.val.free()
        self.__dict__.pop("substrate", None)  # release the host arrays too


def coo_to_device(device: Device, coo: COOMatrix) -> DeviceCOO:
    """Upload a host COO matrix (three H2D transfers)."""
    bufs = BufferGroup()
    try:
        return DeviceCOO(
            row=bufs.add(device.to_device(coo.row)),
            col=bufs.add(device.to_device(coo.col)),
            val=bufs.add(device.to_device(coo.data)),
            shape=coo.shape,
        )
    except BaseException:
        bufs.free_all()
        raise


def csr_to_device(device: Device, csr: CSRMatrix) -> DeviceCSR:
    """Upload a host CSR matrix (three H2D transfers)."""
    bufs = BufferGroup()
    try:
        return DeviceCSR(
            indptr=bufs.add(device.to_device(csr.indptr)),
            indices=bufs.add(device.to_device(csr.indices)),
            val=bufs.add(device.to_device(csr.data)),
            shape=csr.shape,
        )
    except BaseException:
        bufs.free_all()
        raise


def cast_csr(device: Device, A: DeviceCSR, dtype) -> DeviceCSR:
    """Device-to-device cast of a CSR matrix's values to a storage dtype.

    One streaming kernel (read fp64 values, write the reduced copy); the
    structure arrays are duplicated on-device so the cast matrix owns all
    three components and can be freed independently of ``A`` — no PCIe
    traffic is charged.  Identity (returns ``A`` itself) when the dtype
    already matches, so the fp64 path never pays the copy.
    """
    import numpy as np

    dt = np.dtype(dtype)
    if A.val.data.dtype == dt:
        return A
    bufs = BufferGroup()
    try:
        indptr = bufs.add(device.empty(A.indptr.size, dtype=A.indptr.data.dtype))
        indices = bufs.add(device.empty(A.indices.size, dtype=A.indices.data.dtype))
        val = bufs.add(device.empty(A.val.size, dtype=dt))
    except BaseException:
        bufs.free_all()
        raise
    indptr.data[...] = A.indptr.data
    indices.data[...] = A.indices.data
    val.data[...] = A.val.data
    bytes_moved = (
        A.indptr.nbytes * 2 + A.indices.nbytes * 2 + A.val.nbytes + val.nbytes
    )
    device.timeline.record(
        f"castCsr[{dt.name}]",
        "kernel",
        device.cost.kernel_time(0.0, bytes_moved, kind="stream", itemsize=dt.itemsize),
    )
    device.kernel_launches += 1
    return DeviceCSR(indptr=indptr, indices=indices, val=val, shape=A.shape)
