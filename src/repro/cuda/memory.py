"""Device memory: device-resident arrays.

A :class:`DeviceArray` is a handle to memory "on the device".  The backing
store is a NumPy array (the simulation substrate), but the type system of the
package treats host and device data as distinct worlds:

* host ndarrays enter the device only through ``Device.to_device`` /
  ``Device.empty``-family calls, which charge allocation and H2D time;
* device arrays leave only through :meth:`DeviceArray.copy_to_host`, which
  charges D2H time;
* kernels (``repro.cuda.kernel``) and the simulated libraries
  (``repro.cublas``, ``repro.cusparse``, ``repro.thrust``) are the only code
  that touches ``DeviceArray.data`` directly — exactly the set of actors that
  may dereference a device pointer in real CUDA.

The device's :class:`~repro.cuda.allocator.CachingAllocator` enforces the
memory capacity (5 GB on the K20c), so oversubscription fails the same way
``cudaMalloc`` would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DeviceArrayError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cuda.device import Device


class DeviceArray:
    """A device-resident n-dimensional array handle.

    Create instances through the owning :class:`~repro.cuda.device.Device`
    (``to_device``, ``empty``, ``zeros``, ``full``); the constructor is
    internal.
    """

    __slots__ = ("_data", "_device", "_valid")

    def __init__(self, data: np.ndarray, device: "Device") -> None:
        self._data = data
        self._device = device
        self._valid = True

    # -- pointer-like introspection ------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The raw device buffer.  Only simulated-device code may touch it."""
        self._check_valid()
        return self._data

    @property
    def device(self) -> "Device":
        return self._device

    @property
    def shape(self) -> tuple[int, ...]:
        self._check_valid()
        return self._data.shape

    @property
    def ndim(self) -> int:
        self._check_valid()
        return self._data.ndim

    @property
    def dtype(self) -> np.dtype:
        self._check_valid()
        return self._data.dtype

    @property
    def size(self) -> int:
        self._check_valid()
        return self._data.size

    @property
    def nbytes(self) -> int:
        self._check_valid()
        return self._data.nbytes

    @property
    def itemsize(self) -> int:
        self._check_valid()
        return self._data.itemsize

    def __len__(self) -> int:
        self._check_valid()
        return len(self._data)

    def __repr__(self) -> str:
        if not self._valid:
            return "<DeviceArray (freed)>"
        return (
            f"<DeviceArray shape={self._data.shape} dtype={self._data.dtype} "
            f"on {self._device.spec.name!r}>"
        )

    # -- lifecycle -------------------------------------------------------
    def _check_valid(self) -> None:
        if not self._valid:
            raise DeviceArrayError("use of freed DeviceArray")

    def free(self) -> None:
        """Release the allocation back to the device (``cudaFree``)."""
        if self._valid:
            self._device._release(self._data.nbytes)
            self._valid = False
            self._data = np.empty(0)

    @property
    def is_valid(self) -> bool:
        return self._valid

    # -- transfers ---------------------------------------------------------
    def copy_to_host(self, out: np.ndarray | None = None) -> np.ndarray:
        """Copy device → host, charging D2H transfer time.

        Parameters
        ----------
        out:
            Optional preallocated host buffer (same shape/dtype); the
            analogue of reusing a pinned staging buffer.
        """
        self._check_valid()
        self._device._record_d2h(self._data.nbytes)
        if out is None:
            return self._data.copy()
        if out.shape != self._data.shape or out.dtype != self._data.dtype:
            raise DeviceArrayError(
                f"host buffer mismatch: {out.shape}/{out.dtype} vs "
                f"{self._data.shape}/{self._data.dtype}"
            )
        np.copyto(out, self._data)
        return out

    def copy_from_host(self, src: np.ndarray) -> "DeviceArray":
        """Overwrite contents from a host array (H2D into existing buffer)."""
        self._check_valid()
        src = np.asarray(src)
        if src.shape != self._data.shape or src.dtype != self._data.dtype:
            raise DeviceArrayError(
                f"host source mismatch: {src.shape}/{src.dtype} vs "
                f"{self._data.shape}/{self._data.dtype}"
            )
        self._device._record_h2d(src.nbytes)
        np.copyto(self._data, src)
        return self

    def copy(self) -> "DeviceArray":
        """Device→device copy (no PCIe traffic; charges a stream kernel)."""
        self._check_valid()
        out = self._device.empty(self._data.shape, self._data.dtype)
        self._device.charge_kernel(
            "cudaMemcpyDtoD", flops=0, bytes_moved=2 * self._data.nbytes
        )
        np.copyto(out._data, self._data)
        return out

    # -- views (metadata only, free on device) ----------------------------
    def view_rows(self, lo: int, hi: int) -> "DeviceArray":
        """A zero-copy view of rows ``[lo, hi)`` — pointer arithmetic on the
        device buffer, as kernels tiling a large matrix would do."""
        self._check_valid()
        if not 0 <= lo <= hi <= self._data.shape[0]:
            raise DeviceArrayError(
                f"row slice [{lo}, {hi}) out of range for shape {self._data.shape}"
            )
        out = DeviceArray.__new__(DeviceArray)
        out._data = self._data[lo:hi]
        out._device = self._device
        out._valid = True
        return out


class BufferGroup:
    """A registry of device buffers for exception-safe cleanup.

    Allocation sites can fault (OOM or injected chaos) at any point in a
    multi-buffer routine; registering each buffer as it is created lets the
    error path release everything acquired so far with one call.  ``free``
    is idempotent, so buffers already released individually on the success
    path are skipped.

    Usage::

        with BufferGroup() as bufs:
            a = bufs.add(dev.empty(...))
            b = bufs.add(dev.empty(...))
            ...
        # everything still live is released on exit, error or not
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: list[DeviceArray] = []

    def add(self, buf: "DeviceArray") -> "DeviceArray":
        self._bufs.append(buf)
        return buf

    def __len__(self) -> int:
        return len(self._bufs)

    def __enter__(self) -> "BufferGroup":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.free_all()

    def free_all(self) -> None:
        """Release every registered buffer that is still live.

        Idempotent: buffers already freed individually (or by a previous
        ``free_all``) are skipped rather than relying on caller discipline,
        and a repeated call is a no-op.  Each release routes through the
        owning device's allocator, so the blocks land back on its free
        lists.
        """
        bufs, self._bufs = self._bufs, []
        for buf in bufs:
            if buf.is_valid:
                buf.free()

