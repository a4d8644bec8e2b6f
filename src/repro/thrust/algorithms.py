"""Thrust algorithm implementations over :class:`~repro.cuda.memory.DeviceArray`.

Every algorithm

* validates that its operands are device-resident and co-located,
* executes the real computation vectorized on the backing buffers,
* charges the owning device a cost appropriate to the primitive
  (radix-sort throughput for sorts, streaming bandwidth for scans and
  transforms, gather bandwidth for searches).

Binary ``transform`` functors are named strings (``"plus"``, ``"minus"``,
``"multiplies"`` …) rather than arbitrary Python callables, mirroring how
Thrust functors are compiled device code rather than host closures.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cuda.device import Device
from repro.cuda.memory import DeviceArray
from repro.errors import DeviceArrayError

_BINARY_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "plus": np.add,
    "minus": np.subtract,
    "multiplies": np.multiply,
    "divides": np.divide,
    "maximum": np.maximum,
    "minimum": np.minimum,
}

_UNARY_OPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "negate": np.negative,
    "square": np.square,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "abs": np.abs,
    "reciprocal": lambda x: 1.0 / x,
    "identity": lambda x: x,
}

#: cub::DeviceScan/DeviceReduceByKey tile granularity (items per tile) and
#: per-tile descriptor footprint for the modeled ``temp_storage_bytes``
_CUB_TILE_ITEMS = 2048
_CUB_TILE_STATE_BYTES = 16
_CUB_TEMP_HEADER_BYTES = 256


def _cub_temp_bytes(n: int) -> int:
    """Modeled CUB ``temp_storage_bytes`` for an ``n``-item scan/keyed
    reduce: one decoupled-lookback tile descriptor per tile plus a fixed
    header — small, but a real ``cudaMalloc`` when not served from a cache,
    which is exactly why Thrust exposes a custom allocator hook."""
    tiles = -(-max(0, int(n)) // _CUB_TILE_ITEMS)
    return _CUB_TEMP_HEADER_BYTES + _CUB_TILE_STATE_BYTES * tiles


def _device_of(*arrays: DeviceArray) -> Device:
    dev = None
    for a in arrays:
        if not isinstance(a, DeviceArray):
            raise DeviceArrayError(
                f"thrust operand must be a DeviceArray, got {type(a).__name__}"
            )
        if dev is None:
            dev = a.device
        elif a.device is not dev:
            raise DeviceArrayError("thrust operands on different devices")
    assert dev is not None
    return dev


# ---------------------------------------------------------------------------
# movement
# ---------------------------------------------------------------------------


def copy(src: DeviceArray, dst: DeviceArray) -> DeviceArray:
    """``thrust::copy`` — device-to-device element copy."""
    dev = _device_of(src, dst)
    if src.shape != dst.shape:
        raise DeviceArrayError(f"copy shape mismatch {src.shape} vs {dst.shape}")
    np.copyto(dst.data, src.data)
    dev.charge_kernel("thrust::copy", flops=0, bytes_moved=2 * src.nbytes)
    return dst


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def transform(
    a: DeviceArray,
    op: str,
    b: DeviceArray | float | None = None,
    out: DeviceArray | None = None,
) -> DeviceArray:
    """``thrust::transform`` with a named functor.

    Unary form: ``transform(a, "sqrt")``.
    Binary form: ``transform(a, "plus", b)`` where ``b`` is a device array
    of matching shape or a scalar.
    """
    dev = _device_of(a)
    if out is None:
        out = dev.empty(a.shape, dtype=a.dtype)
    else:
        _device_of(a, out)

    if b is None:
        try:
            fn = _UNARY_OPS[op]
        except KeyError:
            raise ValueError(
                f"unknown unary functor {op!r}; expected one of {sorted(_UNARY_OPS)}"
            ) from None
        out.data[...] = fn(a.data)
        moved = a.nbytes + out.nbytes
    else:
        try:
            fn2 = _BINARY_OPS[op]
        except KeyError:
            raise ValueError(
                f"unknown binary functor {op!r}; expected one of {sorted(_BINARY_OPS)}"
            ) from None
        if isinstance(b, DeviceArray):
            _device_of(a, b)
            out.data[...] = fn2(a.data, b.data)
            moved = a.nbytes + b.nbytes + out.nbytes
        else:
            out.data[...] = fn2(a.data, b)
            moved = a.nbytes + out.nbytes
    dev.charge_kernel(f"thrust::transform[{op}]", flops=a.size, bytes_moved=moved)
    return out


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def inclusive_scan(a: DeviceArray, out: DeviceArray | None = None) -> DeviceArray:
    """``thrust::inclusive_scan`` — running prefix sums."""
    dev = _device_of(a)
    if out is None:
        out = dev.empty(a.shape, dtype=a.dtype)
    with dev.scratch(_cub_temp_bytes(a.size)):
        np.cumsum(a.data, out=out.data)
        dev.charge_kernel(
            "thrust::inclusive_scan", flops=2 * a.size, bytes_moved=a.nbytes + out.nbytes
        )
    return out


def exclusive_scan(
    a: DeviceArray, out: DeviceArray | None = None, init=0
) -> DeviceArray:
    """``thrust::exclusive_scan`` — shifted prefix sums starting at ``init``."""
    dev = _device_of(a)
    if out is None:
        out = dev.empty(a.shape, dtype=a.dtype)
    with dev.scratch(_cub_temp_bytes(a.size)):
        np.cumsum(a.data, out=out.data)
        out.data[1:] = out.data[:-1]
        out.data[:1] = 0  # a no-op on an empty scan
        if init:
            np.add(out.data, init, out=out.data)
        dev.charge_kernel(
            "thrust::exclusive_scan", flops=2 * a.size, bytes_moved=a.nbytes + out.nbytes
        )
    return out


# ---------------------------------------------------------------------------
# sorting / searching / keyed reduction
# ---------------------------------------------------------------------------


def sort_by_key(keys: DeviceArray, values: DeviceArray) -> tuple[DeviceArray, DeviceArray]:
    """``thrust::sort_by_key`` — stable in-place sort of (keys, values).

    ``values`` may be 2-D (one row per key), matching the k-means use where
    the payload is a d-dimensional point.  The radix double buffer covers
    both arrays; it comes from the caching allocator (ThrustAllocator
    pattern) rather than a raw per-call ``cudaMalloc``.
    """
    dev = _device_of(keys, values)
    if keys.size != values.shape[0]:
        raise DeviceArrayError(
            f"sort_by_key: {keys.size} keys vs {values.shape[0]} values"
        )
    with dev.scratch(keys.nbytes + values.nbytes):
        order = np.argsort(keys.data, kind="stable")
        keys.data[...] = keys.data[order]
        values.data[...] = values.data[order]
        dev.timeline.record(
            "thrust::sort_by_key", "kernel", dev.cost.sort_time(keys.size)
        )
    return keys, values


def reduce_by_key(
    keys: DeviceArray, values: DeviceArray
) -> tuple[DeviceArray, DeviceArray]:
    """``thrust::reduce_by_key`` with ``plus`` — segmented sums over *sorted* keys.

    Returns (unique_keys, segment_sums).  2-D values reduce row-wise.
    """
    dev = _device_of(keys, values)
    if keys.size != values.shape[0]:
        raise DeviceArrayError(
            f"reduce_by_key: {keys.size} keys vs {values.shape[0]} values"
        )
    if keys.size == 0:
        empty_keys = dev.empty(0, dtype=keys.dtype)
        try:
            empty_vals = dev.empty((0,) + values.shape[1:], dtype=values.dtype)
        except BaseException:
            empty_keys.free()
            raise
        return empty_keys, empty_vals
    with dev.scratch(_cub_temp_bytes(keys.size)):
        kd = keys.data
        boundaries = np.flatnonzero(np.diff(kd)) + 1
        starts = np.concatenate(([0], boundaries))
        uniq = kd[starts]
        sums = np.add.reduceat(values.data, starts, axis=0)
        out_keys = dev.empty(uniq.shape, dtype=keys.dtype)
        try:
            out_vals = dev.empty(sums.shape, dtype=values.dtype)
        except BaseException:
            out_keys.free()
            raise
        out_keys.data[...] = uniq
        out_vals.data[...] = sums
        dev.charge_kernel(
            "thrust::reduce_by_key",
            flops=values.size,
            bytes_moved=keys.nbytes + values.nbytes + out_vals.nbytes,
        )
    return out_keys, out_vals


def lower_bound(sorted_arr: DeviceArray, queries: DeviceArray) -> DeviceArray:
    """``thrust::lower_bound`` — first position not less than each query."""
    dev = _device_of(sorted_arr, queries)
    out = dev.empty(queries.shape, dtype=np.int64)
    out.data[...] = np.searchsorted(sorted_arr.data, queries.data, side="left")
    dev.charge_kernel(
        "thrust::lower_bound",
        flops=queries.size * max(1, int(np.log2(max(2, sorted_arr.size)))),
        bytes_moved=queries.nbytes + out.nbytes,
        kind="gather",
    )
    return out
