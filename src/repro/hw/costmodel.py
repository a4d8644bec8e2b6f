"""Analytic cost models converting work descriptors into simulated seconds.

The central primitive is the *roofline*: a kernel that performs ``flops``
floating point operations and moves ``bytes`` through memory takes::

    t = max(flops / achievable_flops, bytes / achievable_bandwidth)

plus a fixed launch overhead.  Achievable rates are peak rates scaled by the
efficiency factors carried on the hardware spec, so the same kernel
description yields different times on different platforms — which is exactly
how the paper's speedup tables arise.

These models are deliberately simple and fully documented: the goal of the
reproduction is that the *shape* of the results (which implementation wins,
by roughly what factor, and where the crossovers fall) emerges from first
principles flop/byte/latency accounting rather than from hard-coded answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.spec import CPUSpec, GPUSpec, PCIeSpec
from repro.hw.topology import PCIeTopology


def roofline_time(
    flops: float, bytes_moved: float, flops_per_s: float, bytes_per_s: float
) -> float:
    """Roofline execution time: the slower of the compute and memory legs.

    Parameters
    ----------
    flops:
        Floating point operations performed.
    bytes_moved:
        Bytes read + written through device memory.
    flops_per_s, bytes_per_s:
        Achievable rates (already efficiency-scaled).
    """
    if flops < 0 or bytes_moved < 0:
        raise ValueError("work must be non-negative")
    t_compute = flops / flops_per_s if flops_per_s > 0 else 0.0
    t_memory = bytes_moved / bytes_per_s if bytes_per_s > 0 else 0.0
    return max(t_compute, t_memory)


@dataclass(frozen=True)
class CostModel:
    """Base class: cost models are pure functions of (work, spec)."""


@dataclass(frozen=True)
class GPUCostModel(CostModel):
    """Kernel cost model for a :class:`~repro.hw.spec.GPUSpec`.

    Three kernel classes are distinguished, matching how real kernels hit
    the K20c:

    * ``dense``   — BLAS-3-like, compute bound at ``gemm_efficiency`` of peak;
    * ``stream``  — coalesced streaming (elementwise, reductions), bandwidth
      bound at ``stream_efficiency``;
    * ``gather``  — irregular access (SpMV, scatter), bandwidth bound at
      ``gather_efficiency``.
    """

    gpu: GPUSpec

    def _rates(self, kind: str, itemsize: int) -> tuple[float, float]:
        peak_f = self.gpu.peak_flops(itemsize)
        peak_b = self.gpu.mem_bandwidth_bytes_s
        if kind == "dense":
            return peak_f * self.gpu.gemm_efficiency, peak_b
        if kind == "stream":
            return peak_f * 0.5, peak_b * self.gpu.stream_efficiency
        if kind == "gather":
            return peak_f * 0.25, peak_b * self.gpu.gather_efficiency
        raise ValueError(f"unknown kernel kind: {kind!r}")

    def kernel_time(
        self,
        flops: float,
        bytes_moved: float,
        kind: str = "stream",
        itemsize: int = 8,
    ) -> float:
        """Simulated seconds for one kernel launch of the given class."""
        f_rate, b_rate = self._rates(kind, itemsize)
        body = roofline_time(flops, bytes_moved, f_rate, b_rate)
        return self.gpu.kernel_launch_overhead_s + body

    def gemm_time(self, m: int, n: int, k: int, itemsize: int = 8) -> float:
        """C(m,n) += A(m,k) @ B(k,n): 2mnk flops, (mk+kn+2mn) elements."""
        flops = 2.0 * m * n * k
        bytes_moved = (m * k + k * n + 2 * m * n) * itemsize
        return self.kernel_time(flops, bytes_moved, kind="dense", itemsize=itemsize)

    # -- sparse byte formulas (shared with the traffic meter) ------------
    # Each *_bytes staticmethod is the exact memory-traffic expression its
    # *_time counterpart prices, exposed so kernels can meter
    # ``Device.spmv_traffic_bytes`` with the same numbers the roofline
    # charges — the byte-traffic regression gate compares these, not
    # seconds, because launch overhead would mask the storage-width win
    # on small graphs.

    @staticmethod
    def spmv_bytes(n_rows: int, nnz: int, itemsize: int = 8) -> float:
        """CSR SpMV traffic: nnz·(itemsize+4) matrix bytes + vector legs."""
        return nnz * (itemsize + 4) + 2.0 * n_rows * itemsize + nnz * itemsize

    @staticmethod
    def spmv_halo_bytes(n_rows: int, nnz: int, itemsize: int = 8) -> float:
        """Halo-segment SpMV traffic (y accumulate touches only halo rows)."""
        touched = float(min(n_rows, nnz))
        return nnz * (itemsize + 4) + nnz * itemsize + 2.0 * touched * itemsize

    @staticmethod
    def spmm_bytes(n_rows: int, nnz: int, p: int, itemsize: int = 8) -> float:
        """CSR SpMM traffic: matrix structure once, B gathers + C per column."""
        return (
            nnz * (itemsize + 4)          # matrix values + column indices, once
            + (n_rows + 1.0) * 8.0        # row pointers, once
            + nnz * p * itemsize          # gathered B rows, per column
            + 2.0 * n_rows * p * itemsize  # C read+write, per column
        )

    @staticmethod
    def ellmv_bytes(n_rows: int, nnz: int, width: int, itemsize: int = 8) -> float:
        """ELL SpMV traffic: padded streaming legs + irregular x gathers."""
        padded = float(n_rows) * width
        return padded * (itemsize + 4) + 2.0 * n_rows * itemsize + float(nnz) * itemsize

    @staticmethod
    def ellmm_bytes(
        n_rows: int, nnz: int, width: int, p: int, itemsize: int = 8
    ) -> float:
        """ELL SpMM traffic: padded matrix once, B gathers + C per column."""
        padded = float(n_rows) * width
        return (
            padded * (itemsize + 4)
            + 2.0 * n_rows * p * itemsize
            + float(nnz) * p * itemsize
        )

    def spmv_time(self, n_rows: int, nnz: int, itemsize: int = 8) -> float:
        """CSR SpMV: 2·nnz flops; nnz·(itemsize+4) matrix bytes + vector traffic."""
        flops = 2.0 * nnz
        bytes_moved = self.spmv_bytes(n_rows, nnz, itemsize)
        return self.kernel_time(flops, bytes_moved, kind="gather", itemsize=itemsize)

    def spmv_halo_time(self, n_rows: int, nnz: int, itemsize: int = 8) -> float:
        """Halo segment of a row-partitioned SpMV (``y += A_halo @ x_halo``).

        The halo kernel is enqueued on the same stream immediately behind
        the local kernel, so its host-side dispatch latency overlaps the
        local kernel's execution — no launch overhead is charged, only the
        roofline body.  The accumulate touches at most ``min(n_rows, nnz)``
        rows of y (rows with no off-device neighbours are untouched).
        """
        flops = 2.0 * nnz
        bytes_moved = self.spmv_halo_bytes(n_rows, nnz, itemsize)
        f_rate, b_rate = self._rates("gather", itemsize)
        return roofline_time(flops, bytes_moved, f_rate, b_rate)

    @staticmethod
    def spmm_halo_bytes(n_rows: int, nnz: int, p: int, itemsize: int = 8) -> float:
        """Halo-segment SpMM traffic (C accumulate touches only halo rows)."""
        touched = float(min(n_rows, nnz))
        return (
            nnz * (itemsize + 4)
            + nnz * p * itemsize
            + 2.0 * touched * p * itemsize
        )

    def spmm_halo_time(
        self, n_rows: int, nnz: int, p: int, itemsize: int = 8
    ) -> float:
        """Halo segment of a row-partitioned SpMM (``C += A_halo @ B_halo``).

        Block analogue of :meth:`spmv_halo_time`: enqueued back-to-back
        behind the local block kernel on the same stream, so no launch
        overhead is charged — only the roofline body over the halo
        nonzeros, amortized across the ``p`` columns.
        """
        flops = 2.0 * nnz * p
        bytes_moved = self.spmm_halo_bytes(n_rows, nnz, p, itemsize)
        f_rate, b_rate = self._rates("gather", itemsize)
        return roofline_time(flops, bytes_moved, f_rate, b_rate)

    def spmm_time(
        self, n_rows: int, nnz: int, p: int, itemsize: int = 8
    ) -> float:
        """CSR SpMM (``cusparseDcsrmm``): one launch computing ``p`` output
        columns.

        Unlike ``p`` independent csrmv sweeps, the matrix structure
        (row pointers, column indices, values) streams through the SM once
        and is reused across all columns of B held in registers/shared
        memory, so only the gathered B rows (``nnz·p`` elements) and the C
        output (``2·n_rows·p``) scale with ``p``.  That amortization is why
        the membership-matrix centroid update beats per-column sweeps.
        """
        flops = 2.0 * nnz * p
        bytes_moved = self.spmm_bytes(n_rows, nnz, p, itemsize)
        return self.kernel_time(flops, bytes_moved, kind="gather", itemsize=itemsize)

    def sort_time(self, n_keys: int) -> float:
        """Radix sort of ``n_keys`` key/value pairs (Thrust)."""
        if n_keys <= 0:
            return self.gpu.kernel_launch_overhead_s
        return self.gpu.kernel_launch_overhead_s + n_keys / self.gpu.sort_keys_per_s

    # -- sparse format kernels (the CSR/ELL autotuning family) ------
    def ellmv_time(
        self, n_rows: int, nnz: int, width: int, itemsize: int = 8
    ) -> float:
        """ELLPACK SpMV: the matrix is padded to ``n_rows x width`` and laid
        out column-major, so one thread per row reads it fully coalesced.

        The padded matrix (values + column indices) and the y vector stream
        at ``stream_efficiency``; only the x gathers stay irregular.  Padding
        costs real flops and bytes, which is exactly the CSR/ELL trade-off
        the heuristic weighs.
        """
        padded = float(n_rows) * width
        flops = 2.0 * padded
        stream_bytes = padded * (itemsize + 4) + 2.0 * n_rows * itemsize
        gather_bytes = float(nnz) * itemsize
        f_rate, stream_b = self._rates("stream", itemsize)
        _, gather_b = self._rates("gather", itemsize)
        t_memory = stream_bytes / stream_b + gather_bytes / gather_b
        t_compute = flops / f_rate
        return self.gpu.kernel_launch_overhead_s + max(t_compute, t_memory)

    def ellmm_time(
        self, n_rows: int, nnz: int, width: int, p: int, itemsize: int = 8
    ) -> float:
        """ELLPACK SpMM: one launch computing ``p`` output columns.

        Same layout trade-off as :meth:`ellmv_time` — the padded matrix
        (values + column indices) streams coalesced and is read *once*,
        reused across all ``p`` columns of B, while the gathered B rows
        (``nnz·p`` elements) and the C read+write scale with ``p``.
        """
        padded = float(n_rows) * width
        flops = 2.0 * padded * p
        stream_bytes = padded * (itemsize + 4) + 2.0 * n_rows * p * itemsize
        gather_bytes = float(nnz) * p * itemsize
        f_rate, stream_b = self._rates("stream", itemsize)
        _, gather_b = self._rates("gather", itemsize)
        t_memory = stream_bytes / stream_b + gather_bytes / gather_b
        t_compute = flops / f_rate
        return self.gpu.kernel_launch_overhead_s + max(t_compute, t_memory)

    def format_conversion_time(
        self, nnz: int, padded: int, itemsize: int = 8
    ) -> float:
        """CSR -> ELL conversion (cusparseDcsr2ell): one
        streaming pass reading the CSR arrays and writing the padded
        layout."""
        bytes_moved = nnz * (itemsize + 4) + padded * (itemsize + 4)
        return self.kernel_time(0.0, bytes_moved, kind="stream", itemsize=itemsize)


@dataclass(frozen=True)
class CPUCostModel(CostModel):
    """Cost model for host-side phases.

    Distinguishes tuned multithreaded BLAS (OpenBLAS/MKL — the ARPACK
    ``TakeStep`` path), single-threaded BLAS (the Python 2.7 scipy builds the
    paper benchmarked against used unthreaded reference BLAS for several
    ops), memory-bound sweeps, and *interpreted scalar loops* (the paper's
    serial Matlab/Python similarity construction)."""

    cpu: CPUSpec

    def blas3_time(self, flops: float, threads: int | None = None) -> float:
        """Dense BLAS-3 time with ``threads`` cores (default: all)."""
        t = self.cpu.cores if threads is None else max(1, min(threads, self.cpu.cores))
        rate = (
            t * self.cpu.peak_flops_single_thread * self.cpu.blas3_efficiency
        )
        return flops / rate

    def blas1_time(self, bytes_moved: float, threads: int | None = None) -> float:
        """Memory-bound BLAS-1/2 time; bandwidth saturates past ~4 threads."""
        t = self.cpu.cores if threads is None else max(1, min(threads, self.cpu.cores))
        frac = min(1.0, t / 4.0)
        rate = self.cpu.mem_bandwidth_bytes_s * self.cpu.blas1_efficiency * frac
        return bytes_moved / rate

    def spmv_time(self, n_rows: int, nnz: int, threads: int = 1, itemsize: int = 8) -> float:
        """CPU CSR SpMV — memory bound with poor locality on the x gathers."""
        bytes_moved = nnz * (itemsize + 4) + 2.0 * n_rows * itemsize + nnz * itemsize
        # Irregular gathers reach ~35% of stream bandwidth on Sandy Bridge.
        frac = min(1.0, threads / 4.0)
        rate = self.cpu.mem_bandwidth_bytes_s * 0.35 * frac
        return bytes_moved / rate

    def interp_loop_time(self, iterations: int, work_per_iter_flops: float = 0.0) -> float:
        """An interpreted (Matlab/Python) scalar ``for`` loop.

        Each trip pays the interpreter dispatch overhead; any vectorized body
        work is added at single-thread BLAS rate.
        """
        body = 0.0
        if work_per_iter_flops > 0:
            body = iterations * work_per_iter_flops / (
                self.cpu.peak_flops_single_thread * 0.25
            )
        return iterations * self.cpu.interp_loop_overhead_s + body


@dataclass(frozen=True)
class TransferCostModel(CostModel):
    """Host<->device transfer cost over a :class:`~repro.hw.spec.PCIeSpec`.

    With a :class:`~repro.hw.topology.PCIeTopology` attached, peer copies
    are priced per (src, dst) pair — same-switch pairs follow the direct
    link law, cross-bridge pairs the slower host-bridged law.  Without one
    (or when a call site does not know the pair) every peer copy falls
    back to the single-link law, which is the pre-topology behavior.
    """

    pcie: PCIeSpec
    topology: "PCIeTopology | None" = None

    def h2d_time(self, nbytes: int) -> float:
        return self.pcie.transfer_time(nbytes)

    def d2h_time(self, nbytes: int) -> float:
        return self.pcie.transfer_time(nbytes)

    def p2p_time(
        self, nbytes: int, src: int | None = None, dst: int | None = None
    ) -> float:
        """Device-to-device peer copy (``cudaMemcpyPeerAsync``).

        Peers behind the same PCIe switch follow the identical
        latency + bandwidth law as a host transfer — the DMA just never
        touches host memory.  Pairs split across host bridges stage
        through the bridge and pay the topology's ``bridged`` law.
        """
        if self.topology is not None and src is not None and dst is not None:
            return self.topology.p2p_time(nbytes, src, dst)
        return self.pcie.transfer_time(nbytes)
