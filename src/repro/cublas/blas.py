"""Dense BLAS over device arrays: ``cublasDgemm`` → :func:`gemm`.

The paper's k-means (Algorithm 4) makes one cuBLAS call, the distance
update ``S -= 2 V Cᵀ``; it is charged compute-bound at the device gemm
efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.runtime import chaos_check
from repro.cuda.device import Device
from repro.cuda.memory import DeviceArray
from repro.errors import DeviceArrayError


def _device_of(*arrays: DeviceArray) -> Device:
    dev = None
    for a in arrays:
        if not isinstance(a, DeviceArray):
            raise DeviceArrayError(
                f"cublas operand must be a DeviceArray, got {type(a).__name__}"
            )
        if dev is None:
            dev = a.device
        elif a.device is not dev:
            raise DeviceArrayError("cublas operands on different devices")
    assert dev is not None
    return dev


def _maybe_t(a: np.ndarray, trans: bool) -> np.ndarray:
    return a.T if trans else a


def gemm(
    A: DeviceArray,
    B: DeviceArray,
    C: DeviceArray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
) -> DeviceArray:
    """``C <- alpha * op(A) @ op(B) + beta * C`` (``cublasDgemm``).

    The k-means distance computation ``S -= 2 V Cᵀ`` is one call:
    ``gemm(V, C, S, alpha=-2.0, beta=1.0, transb=True)``.
    """
    dev = _device_of(A, B)
    chaos_check("cublas.gemm", dev)
    Aop = _maybe_t(A.data, transa)
    Bop = _maybe_t(B.data, transb)
    m, k = Aop.shape
    k2, n = Bop.shape
    if k != k2:
        raise DeviceArrayError(f"gemm: inner dims differ, op(A) {m}x{k}, op(B) {k2}x{n}")
    if C is None:
        C = dev.empty((m, n), dtype=A.dtype)
        beta = 0.0
    else:
        _device_of(A, C)
        if C.shape != (m, n):
            raise DeviceArrayError(f"gemm: C is {C.shape}, expected {(m, n)}")
    if beta == 0.0:
        C.data[...] = alpha * (Aop @ Bop)
    else:
        C.data[...] = alpha * (Aop @ Bop) + beta * C.data
    dt = dev.cost.gemm_time(m, n, k, itemsize=A.itemsize)
    dev.timeline.record("cublasDgemm", "kernel", dt)
    dev.kernel_launches += 1
    return C
