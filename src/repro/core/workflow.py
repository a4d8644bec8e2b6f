"""Hybrid stage runners: the CPU/GPU split of Algorithm 3 with full time
accounting.

:func:`hybrid_eigensolver` is the heart of the paper: ARPACK-style reverse
communication runs on the (modeled) CPU and asks for ``y = A x`` without
knowing where the product runs.  That question is answered by one
:class:`PlacedOperator` per solve, with four placements:

* :class:`HostPlacement` — the paper's Algorithm 3: the iteration vector
  crosses the PCIe bus twice per product and every CPU phase is charged
  from the Xeon cost model (the ``TakeStep`` reorthogonalization sweep,
  ``O(n·j)``; per restart the ``O(m³)`` tridiagonal eigendecomposition +
  shift sweeps and the ``O(n·m·k)`` basis update; at exit
  ``FindEigenvectors``, matching the complexity expression (10) of §IV.B);
* :class:`DevicePlacement` — the vector and basis stay GPU-resident and
  only ARPACK's small tridiagonal state crosses the bus;
* :class:`PartitionedPlacement` — the operator and basis are row-sharded
  over a device group;
* :class:`CPUPlacement` — the host finishes the solve with the same
  arithmetic as the device kernels when the device stays unusable.

The drivers — the IRLM loop, the block power iteration, the compressive
probe + Chebyshev filter (:mod:`repro.compressive.engine`) and the fp64
refinement pass — are written once against that type, and
:func:`run_placed` is the one resume-then-fallback loop around them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from repro.chaos.retry import DISABLED, ResiliencePolicy, TRANSIENT_ERRORS, with_retry
from repro.chaos.runtime import chaos_check
from repro.cuda.boundaries import mark_boundary
from repro.cuda.device import Device
from repro.cuda.memory import BufferGroup
from repro.cuda.stream import Stream
from repro.cusparse.formats import (
    SPMV_FORMATS,
    autotune_format,
    autotune_spmm_format,
    convert_for_spmv,
)
from repro.cusparse.matrices import DeviceCSR, cast_csr
from repro.cusparse.partition import (
    PartitionedCSR,
    device_group,
    partition_bounds_nnz,
    partition_csr,
    spmm_partitioned,
    spmv_partitioned,
)
from repro.cusparse.spmm import csrmm, spmm_any
from repro.cusparse.spmv import spmv_any
from repro.errors import CudaError, DeviceMemoryError
from repro.hw.costmodel import CPUCostModel
from repro.hw.spec import CPUSpec, XEON_E5_2690
from repro.linalg.eigsolver import SymEigProblem
from repro.linalg.power import default_power_iterations, power_embedding
from repro.linalg.rci import LanczosCheckpoint, TransferLedger
from repro.linalg.refine import refine_eigenpairs
from repro.precision import (
    TOL_FLOORS,
    kernel_letter,
    quantize,
    quantize_roundtrip,
    resolve_precision,
)

#: iteration-vector placements for :func:`hybrid_eigensolver`
RESIDENCY_MODES = ("device", "host")
#: SpMV format requests (``"auto"`` = cost-model autotune over row stats)
SPMV_FORMAT_CHOICES = ("auto",) + SPMV_FORMATS
#: embedding algorithms: full IRLM or the block power iteration of
#: Boutsidis et al. (q = O(log n) SpMMs, no restarts)
EMBEDDING_MODES = ("lanczos", "power")
#: fp64 refinement steps applied by default after a reduced-precision solve
DEFAULT_REFINE_STEPS = 2


@dataclass(kw_only=True)
class SolveStats:
    """Counters every placed solve reports.

    ``n_resumes``/``spmv_retries``/``fallback`` report resilience activity:
    checkpoint restarts after a device failure, recovered per-product
    faults, and whether the solve finished on the host (``"cpu"``) instead
    of the device (``None``).  ``residency``/``spmv_format`` record the
    placement and format the solve actually ran with; the transfer counters
    (bytes moved, transfers elided, overlap) quantify what the GPU-resident
    placements saved over the ship-the-vector-twice-per-step baseline.
    """

    n_op: int
    converged: bool
    k: int
    wall_seconds: float
    pcie_round_trips: int = 0
    n_resumes: int = 0
    spmv_retries: int = 0
    fallback: str | None = None
    residency: str = "device"
    spmv_format: str = "csr"
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    bytes_p2p: int = 0
    n_p2p: int = 0
    transfers_elided: int = 0
    bytes_elided: int = 0
    transfer_overlap_s: float = 0.0
    format_decision: dict | None = None
    n_devices: int = 1
    #: row-partitioning evidence when ``n_devices > 1`` (bounds, halo
    #: counts, one-time shard distribution bytes, products issued)
    partition: dict | None = None
    #: storage precision of the operator values and iteration vectors
    precision: str = "fp64"
    #: embedding algorithm the solve ran
    embedding: str = "lanczos"
    #: modeled SpMV/SpMM device-memory bytes this solve moved (the
    #: roofline byte expressions, summed — the precision ablation's gate)
    spmv_bytes: float = 0.0
    #: summed simulated seconds of the SpMV/SpMM kernels themselves
    spmv_kernel_s: float = 0.0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(kw_only=True)
class EigStats(SolveStats):
    """Counters from one hybrid eigensolver run (Lanczos or power)."""

    n_restarts: int
    n_reorth: int
    m: int
    #: fp64 operator applications the refinement pass performed
    #: (``len(refine_history) - 1``: one for the measurement + in-span
    #: polish, one per subspace advance; 0 = the pass never ran)
    refine_steps: int = 0
    #: max relative eigen-residual after refinement (None = not measured;
    #: the exact fp64 path doesn't run the refinement pass)
    refine_residual: float | None = None
    #: per-step residual history of the refinement loop (monotone)
    refine_history: list | None = None


def check_placement(
    residency: str, spmv_format: str, n_devices: int
) -> None:
    """Reject placement requests no :class:`PlacedOperator` can serve."""
    if residency not in RESIDENCY_MODES:
        raise ValueError(
            f"residency must be one of {RESIDENCY_MODES}, got {residency!r}"
        )
    if spmv_format not in SPMV_FORMAT_CHOICES:
        raise ValueError(
            f"spmv_format must be one of {SPMV_FORMAT_CHOICES}, "
            f"got {spmv_format!r}"
        )
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    if n_devices > 1:
        if residency != "device":
            raise ValueError(
                "n_devices > 1 requires residency='device' (the row-"
                "partitioned operator and basis live on the GPUs)"
            )
        if spmv_format not in ("auto", "csr"):
            raise ValueError(
                "n_devices > 1 stores row blocks as split local/halo CSR; "
                f"spmv_format={spmv_format!r} is not supported"
            )


class Solve:
    """Per-solve state every placement of one solve shares.

    Holds the operator at its storage precision, the cost models, the
    resilience policy and the counters the stats report; snapshots the
    transfer/traffic meters and the timeline length on construction so
    :meth:`stats_fields` can report this solve's deltas.
    """

    def __init__(
        self,
        device: Device,
        A: DeviceCSR,
        k: int,
        precision: str = "fp64",
        policy: ResiliencePolicy = DISABLED,
        cpu_spec: CPUSpec = XEON_E5_2690,
    ) -> None:
        self.t0 = time.perf_counter()
        self.device = device
        self.A = A
        self.k = k
        self.precision = precision
        self.dtype = resolve_precision(precision)
        self.vs = self.dtype.itemsize
        self.policy = policy
        self.cpu = CPUCostModel(cpu_spec)
        self.n = A.shape[0]
        # reduced-precision solve operand: a device-side streaming cast of
        # the values (identity for fp64 — A_solve IS A and nothing is
        # charged); the fp64 operator stays alive for the refinement pass
        self.A_solve = cast_csr(device, A, self.dtype)
        # peer devices start with zeroed counters, so summing over the
        # group after the solve still yields correct deltas against the
        # primary-only snapshot taken here
        self.transfers_before = device.transfer_stats()
        self.traffic_before = device.spmv_traffic_bytes
        self.events_before = len(device.timeline)
        #: the devices the solve's meters sum over (a partitioned
        #: placement replaces this with its device group)
        self.devices = [device]
        self.spmv_retries = 0
        self.round_trips = 0
        self.n_resumes = 0
        self.fallback: str | None = None
        #: analytic SpMM traffic plan: bytes per application summed over
        #: every completed device block product
        self.ledger_bytes = 0.0

    def count_retry(self, _attempt: int) -> None:
        self.spmv_retries += 1

    def retry(self, fn, site: str, errors: tuple = TRANSIENT_ERRORS):
        return with_retry(
            fn, self.device, self.policy, site=site, errors=errors,
            on_retry=self.count_retry,
        )

    def stats_fields(self, pl: PlacedOperator, embedding: str) -> dict:
        """Free the storage operand and return the :class:`SolveStats`
        fields of this solve."""
        wall = time.perf_counter() - self.t0
        if self.A_solve is not self.A:
            self.A_solve.free()
        after = _sum_transfer_stats(self.devices)
        delta = {
            key: after[key] - val for key, val in self.transfers_before.items()
        }
        format_decision = None
        if pl.decision is not None:
            format_decision = {
                **pl.decision.as_dict(),
                "precision": self.precision, "value_itemsize": self.vs,
            }
        return dict(
            wall_seconds=wall,
            pcie_round_trips=self.round_trips,
            n_resumes=self.n_resumes,
            spmv_retries=self.spmv_retries,
            fallback=self.fallback,
            residency=pl.residency,
            spmv_format=pl.fmt,
            bytes_h2d=delta["bytes_h2d"],
            bytes_d2h=delta["bytes_d2h"],
            bytes_p2p=delta["bytes_p2p"],
            n_p2p=delta["n_p2p"],
            transfers_elided=delta["transfers_elided"],
            bytes_elided=delta["bytes_elided"],
            transfer_overlap_s=delta["overlap_s"],
            format_decision=format_decision,
            n_devices=len(self.devices),
            partition=pl.partition_info(),
            precision=self.precision,
            embedding=embedding,
            spmv_bytes=(
                sum(d.spmv_traffic_bytes for d in self.devices)
                - self.traffic_before
            ),
            spmv_kernel_s=_sum_spmv_kernel_seconds(
                self.device, self.events_before
            ),
        )


def _sum_transfer_stats(devices: list[Device]) -> dict:
    """Aggregate :meth:`Device.transfer_stats` over a device group."""
    out: dict = {}
    for dev in devices:
        for key, val in dev.transfer_stats().items():
            out[key] = out.get(key, 0) + val
    return out


def _charge_tridiag(
    device: Device, cpu: CPUCostModel, m: int, kp: int
) -> None:
    """The host half of every implicit restart: the m×m tridiagonal eig
    (LAPACK, 1 thread) and ``p = m - kp`` implicit QR sweeps, O(m)
    rotations each over Q (m×m)."""
    device.charge_cpu("dsteqr[T]", cpu.blas3_time(15.0 * m**3, threads=1))
    device.charge_cpu(
        "qr_sweeps", cpu.blas3_time(6.0 * (m - kp) * m * m, threads=1)
    )


class PlacedOperator:
    """``y = A x`` for the drivers, wherever it runs.

    Algorithm 3's reverse-communication contract: a driver asks for
    operator applications and never knows where they ran.  Each subclass
    owns everything placement-specific — workspace allocation (under
    ``with_retry``), the seed upload, :meth:`apply`, the per-step and
    per-restart charges, the dense per-application update, the Ritz
    rotation and download, and the analytic bytes of one product.

    One instance lives for a whole solve (copy streams and counters persist
    across resumes); :meth:`workspace` and :meth:`prepare` set up one
    attempt and :meth:`release` tears it down.
    """

    #: the ``residency`` the stats report for this placement
    residency: str

    def __init__(self, s: Solve, fmt: str = "csr", decision=None) -> None:
        self.s = s
        self.fmt = fmt
        self.decision = decision
        self.op = s.A_solve
        self.bufs = BufferGroup()
        self.pair: tuple = ()

    # ---- one attempt -------------------------------------------------
    def workspace(self, cols: int | None, basis: int = 0) -> None:
        """Allocate the ping-pong operand pair (vectors when ``cols`` is
        None, else ``cols``-wide blocks) plus a ``basis``-row block, per
        device; a transient or OOM hiccup is retryable.  The basis block is
        reserved, not backed: the driver's host workspace holds its
        values."""
        s = self.s

        def alloc():
            group = BufferGroup()
            pairs = []
            try:
                for dev, rows in self._slabs():
                    shape = rows if cols is None else (rows, cols)
                    pairs.append(group.add(dev.empty(shape, dtype=s.dtype)))
                    pairs.append(group.add(dev.empty(shape, dtype=s.dtype)))
                    if basis:
                        group.add(dev.reserve((basis, rows), dtype=s.dtype))
            except BaseException:
                group.free_all()
                raise
            return group, tuple(pairs[:2])

        self.bufs, self.pair = s.retry(
            alloc, "eig.alloc", errors=TRANSIENT_ERRORS + (DeviceMemoryError,)
        )

    def prepare(self) -> None:
        """Materialize the operator in the solve's format (the conversion
        kernel is charged once, amortized over the attempt)."""
        if self.fmt != "csr" and self.op is self.s.A_solve:
            self.op = convert_for_spmv(self.s.A_solve, self.fmt)

    def upload(self, nbytes: int) -> None:
        """Ship the seed (or a resumed factorization) to the device."""

    def free_workspace(self) -> None:
        self.bufs.free_all()

    def release(self) -> None:
        """Tear down one attempt: workspace, then the converted operator."""
        self.bufs.free_all()
        if self.op is not self.s.A_solve:
            self.op.free()
            self.op = self.s.A_solve

    def _slabs(self):
        """``(device, rows)`` for every device holding operator rows."""
        return [(self.s.device, self.s.n)]

    # ---- products ----------------------------------------------------
    def apply(self, x: np.ndarray, site: str | None = None) -> np.ndarray:
        """One operator application to a vector (SpMV) or block (SpMM);
        ``site`` is an extra chaos site guarding each attempt."""
        raise NotImplementedError

    def _product(self, dx, dy) -> None:
        """``dy = op @ dx`` on the device: SpMV for vector operands, SpMM
        for blocks, through the format-dispatching kernels."""
        if dx.data.ndim == 1:
            spmv_any(self.op, dx, dy)
        else:
            spmm_any(self.op, dx, dy)

    def _count(self, x: np.ndarray) -> None:
        """Meter one completed device product."""
        if x.ndim == 2:
            self.s.ledger_bytes += self.bytes_per_application(x.shape[1])

    def bytes_per_application(self, width: int) -> float:
        """Analytic device-memory bytes of one ``width``-column block
        product through the materialized operator — the exact expressions
        ``csrmm``/``ellmm`` charge to the traffic meter."""
        cost, op, n, vs = self.s.device.cost, self.op, self.s.n, self.s.vs
        if self.fmt == "ell":
            return cost.ellmm_bytes(n, op.nnz, op.width, width, vs)
        return cost.spmm_bytes(n, op.nnz, width, vs)

    # ---- charges -----------------------------------------------------
    def charge_step(self, j_avg: float) -> None:
        """Charge one reverse-communication ``TakeStep`` (the full
        reorthogonalization sweep against a ``j_avg``-column basis)."""
        raise NotImplementedError

    def charge_restart(self, m: int, kp: int) -> None:
        """Charge one implicit restart compacting ``m`` columns to ``kp``."""
        raise NotImplementedError

    def on_restart(self, m: int, kp: int) -> None:
        """Restart hook the IRLM loop calls at each restart boundary."""
        self.charge_restart(m, kp)

    def finish_irlm(self, m: int, n_restarts: int) -> None:
        """Charge the IRLM exit after ``n_restarts`` restarts of an
        ``m``-column basis."""
        raise NotImplementedError

    def dense(self, op: str, tag: str, width: int) -> None:
        """Charge the dense per-application block update: ``"qr"`` (the
        panel factorization) or ``"axpy"`` (the three-term recurrence)."""
        raise NotImplementedError

    def ritz(self, width: int) -> None:
        """Charge rotating a ``width``-column basis to the ``k`` Ritz
        vectors and delivering them to the host."""
        raise NotImplementedError

    def download(self, cols: int) -> None:
        """Ship an ``n × cols`` result block down to the host."""

    def partition_info(self) -> dict | None:
        return None


class DevicePlacement(PlacedOperator):
    """GPU-resident: the operand pair (and the Lanczos basis) live in
    persistent device buffers across reverse-communication steps, so only
    ARPACK's small tridiagonal state crosses the bus — at restart
    boundaries, with the Q upload hidden on the copy engine.

    The basis buffer is accounting-only (:meth:`Device.reserve`): it holds
    the allocator request and the bytes the gemv/gemm charges price, while
    the values live once, in the IRLM driver's host workspace."""

    residency = "device"

    def __init__(self, s: Solve, fmt: str = "csr", decision=None) -> None:
        super().__init__(s, fmt, decision)
        self.copy_streams = [Stream(s.device, name="copyEngine")]

    def upload(self, nbytes: int) -> None:
        self.s.device._record_h2d(nbytes)

    def apply(self, x: np.ndarray, site: str | None = None) -> np.ndarray:
        s = self.s
        dx, dy = self.pair
        dx.data[...] = x  # quantizes to the storage dtype

        def product() -> None:
            if site is not None:
                chaos_check(site, s.device)
            self._product(dx, dy)

        s.retry(product, "eig.spmv")
        self._count(x)
        return np.asarray(dy.data, dtype=np.float64).copy()

    def _count(self, x: np.ndarray) -> None:
        # the operands are already device-resident: no PCIe crossing in
        # either direction
        width = x.shape[1] if x.ndim == 2 else 1
        self.s.device.note_elided_transfer(2, 2 * self.s.n * width * self.s.vs)
        super()._count(x)

    def charge_step(self, j_avg: float) -> None:
        # two gemv launches over the on-device basis (project, update): the
        # host sweep's O(j·n) traffic at GPU stream bandwidth, at the basis
        # storage width
        L, vs = kernel_letter(self.s.vs), float(self.s.vs)

        def flops(r):
            return 2.0 * j_avg * r

        def nbytes(r):
            return (j_avg * r + 2.0 * r) * vs

        self._launch(
            (f"cublas{L}gemv", "proj", flops, nbytes, "stream"),
            (f"cublas{L}gemv", "update", flops, nbytes, "stream"),
        )

    def charge_restart(self, m: int, kp: int) -> None:
        # the 2m tridiagonal coefficients come down before the host runs
        # dsteqr + the shift sweeps; the m×kp rotation streams back up on
        # each copy engine *while* the host grinds, and V <- V Q runs as a
        # device gemm.  The staging buffers are priced at the basis
        # storage width (what crosses the bus is the device-side
        # representation, the TransferLedger convention) and cycle through
        # the caching allocator, so after the first restart they are hits.
        s = self.s
        primary, vs = s.device, s.vs
        stage_dt = np.dtype(f"f{vs}")
        coef = primary.empty(2 * m, dtype=stage_dt)
        qbuf = primary.empty((m, kp), dtype=stage_dt)
        try:
            primary._record_d2h(coef.nbytes)
            t_host = primary.timeline.clock.now
            _charge_tridiag(primary, s.cpu, m, kp)
            t_cpu_done = primary.timeline.clock.now
            ready = [
                cs.enqueue_h2d(qbuf.nbytes, ready_at=t_host)[1]
                for cs in self.copy_streams
            ]
            self._launch(
                (
                    f"cublas{kernel_letter(vs)}gemm", "VQ",
                    lambda r: 2.0 * r * m * kp,
                    lambda r: (r * m + m * kp + 2.0 * r * kp) * float(vs),
                    "dense",
                ),
                start=[max(t_cpu_done, t) for t in ready],
            )
        finally:
            coef.free()
            qbuf.free()

    def finish_irlm(self, m: int, n_restarts: int) -> None:
        # restarts were charged inline; the Ritz basis assembles on-device
        # and U comes down once
        self.s.retry(lambda: self.ritz(m), "eig.result")

    def dense(self, op: str, tag: str, width: int) -> None:
        L, vs = kernel_letter(self.s.vs), self.s.vs
        if op == "qr":
            self._launch((
                f"cusolver{L}geqrf", tag,
                lambda r: 2.0 * r * width * width,
                lambda r: 2.0 * r * width * vs, "dense",
            ))
        else:
            self._launch((
                f"cublas{L}axpy", tag,
                lambda r: 3.0 * r * width,
                lambda r: 5.0 * r * width * vs, "stream",
            ))

    def ritz(self, width: int) -> None:
        self._launch(self._ritz_gemm(width))
        self.download(self.s.k)

    def _ritz_gemm(self, width: int) -> tuple:
        k, vs = self.s.k, float(self.s.vs)
        return (
            f"cublas{kernel_letter(self.s.vs)}gemm", "ritz",
            lambda r: 2.0 * r * width * k,
            lambda r: (r * width + width * k + 2.0 * r * k) * vs, "dense",
        )

    def download(self, cols: int) -> None:
        self.s.device._record_d2h(self.s.n * cols * self.s.vs)

    def _launch(self, *kernels, start=None) -> None:
        # one device, one stream: each kernel starts at the clock, when the
        # previous work ends (``start`` only matters across devices)
        n = self.s.n
        for family, tag, flops, nbytes, kind in kernels:
            self.s.device.charge_kernel(
                f"{family}[{tag}]", flops=flops(n), bytes_moved=nbytes(n),
                kind=kind,
            )


class PartitionedPlacement(DevicePlacement):
    """Row-sharded over a device group: the operator is split into
    nnz-balanced row blocks (stored as split local/halo CSR), each product
    runs the local kernels immediately while halo segments travel
    device-to-device, and the basis lives in per-device row blocks.  Every
    per-device charge is laid at a common start, so a step costs the
    makespan over devices.
    """

    def __init__(self, s: Solve, n_devices: int) -> None:
        PlacedOperator.__init__(self, s)
        s.devices = device_group(s.device, n_devices)
        # the blocks partition_csr will cut, known before it runs so the
        # workspace and the scatter/gather byte splits follow them
        self.bounds = partition_bounds_nnz(s.A.indptr.data, n_devices)
        self.row_counts = tuple(int(r) for r in np.diff(self.bounds))
        self.copy_streams = [
            Stream(dev, name=f"dev{d}/copyEngine")
            for d, dev in enumerate(s.devices)
        ]
        # scatter/gather byte splits follow the real row layout
        self.ledger = TransferLedger(
            n=s.n, m=0, k=s.k, itemsize=s.vs, n_devices=n_devices,
            row_counts=self.row_counts,
        )
        self.part: PartitionedCSR | None = None
        self.halo: tuple | None = None
        self.shard_upload_bytes = 0
        self.n_matvec = 0

    def _slabs(self):
        return list(zip(self.s.devices, self.row_counts))

    def prepare(self) -> None:
        # distribute the operator: row blocks to each device, split into
        # local/halo parts (P2P + split kernels charged as a makespan)
        s = self.s
        if self.part is None:
            self.part = partition_csr(s.A_solve, s.devices)
            self.shard_upload_bytes += self.part.shard_upload_bytes
            self.halo = (self.part.halo_counts, self.part.halo_pairs)

    def release(self) -> None:
        if self.part is not None:
            self.part.free()
        self.part = None
        super().release()

    def upload(self, nbytes: int) -> None:
        # each device uploads its row slice concurrently
        t = self.s.device.timeline.clock.now
        for dev, part in zip(self.s.devices, self.ledger.shard_split(nbytes)):
            if part:
                dev._record_h2d_at(part, t)

    def apply(self, x: np.ndarray, site: str | None = None) -> np.ndarray:
        # the storage round trip mirrors what landing in the storage-dtype
        # shards does to the values; the canonical substrate keeps the
        # product bit-identical to the single-device kernels
        s = self.s
        xq = quantize_roundtrip(x, s.dtype)
        product = spmv_partitioned if x.ndim == 1 else spmm_partitioned

        def partitioned() -> np.ndarray:
            if site is not None:
                chaos_check(site, s.device)
            return product(self.part, xq)

        y = quantize_roundtrip(s.retry(partitioned, "eig.spmv"), s.dtype)
        # block products count as column-matvec equivalents, so the p2p
        # plan n_matvec * step_halo_bytes stays exact
        self.n_matvec += x.shape[1] if x.ndim == 2 else 1
        self._count(x)
        return y

    def bytes_per_application(self, width: int) -> float:
        # each shard's local product plus its halo-segment product
        cost, vs = self.s.device.cost, self.s.vs
        total = 0.0
        for shard in self.part.shards:
            total += cost.spmm_bytes(shard.n_rows, shard.nnz_local, width, vs)
            if shard.nnz_halo > 0:
                total += cost.spmm_halo_bytes(
                    shard.n_rows, shard.nnz_halo, width, vs
                )
        return total

    def download(self, cols: int) -> None:
        # slices sum to exactly n*cols*itemsize
        self._launch(then=self._down(cols))

    def ritz(self, width: int) -> None:
        # each device rotates its own basis block, then ships its slice
        self._launch(self._ritz_gemm(width), then=self._down(self.s.k))

    def _down(self, cols: int):
        vs = self.s.vs

        def down(dev: Device, rows: int, t: float) -> None:
            dev._record_d2h_at(rows * cols * vs, t)

        return down

    def _launch(self, *kernels, start=None, then=None) -> None:
        # one chain of kernels per device from a common start (or the
        # per-device ``start`` list); ``then(dev, rows, end)`` follows each
        # device's chain
        tl = self.s.device.timeline
        t0 = tl.clock.now
        for d, (dev, rows) in enumerate(self._slabs()):
            t = t0 if start is None else start[d]
            for family, tag, flops, nbytes, kind in kernels:
                dt = dev.cost.kernel_time(flops(rows), nbytes(rows), kind=kind)
                tl.record_at(f"{family}[{tag},dev{d}]", "kernel", t, dt)
                dev.kernel_launches += 1
                t += dt
            if then is not None:
                then(dev, rows, t)

    def partition_info(self) -> dict | None:
        if self.halo is None:
            return None
        halo_counts, halo_pairs = self.halo
        return {
            "row_counts": list(self.row_counts),
            "bounds": [int(b) for b in self.bounds],
            "halo_counts": list(halo_counts),
            "halo_pairs": halo_pairs,
            "step_halo_bytes": sum(halo_counts) * self.s.vs,
            "shard_upload_bytes": self.shard_upload_bytes,
            "n_matvec": self.n_matvec,
        }


class HostPlacement(PlacedOperator):
    """The paper's Algorithm 3: every product ships its operand host →
    device and the result back, and all dense work (reorthogonalization,
    restarts, block updates) is host CPU time."""

    residency = "host"

    def workspace(self, cols: int | None, basis: int = 0) -> None:
        # the basis stays on the host: only the operand pair is on-device
        super().workspace(cols)

    def apply(self, x: np.ndarray, site: str | None = None) -> np.ndarray:
        s = self.s
        dx, dy = self.pair

        def roundtrip() -> np.ndarray:
            # idempotent end to end (dx/dy fully rewritten), so a fault at
            # any site retries; the legs move the storage-width
            # representation (quantize is an identity for fp64)
            if site is not None:
                chaos_check(site, s.device)
            dx.copy_from_host(quantize(x, s.dtype))
            self._product(dx, dy)
            return dy.copy_to_host()

        y = s.retry(roundtrip, "eig.spmv")
        s.round_trips += 1
        self._count(x)
        return np.asarray(y, dtype=np.float64)

    def charge_step(self, j_avg: float) -> None:
        # two host passes of V_j @ w / w -= V_jᵀ h: a memory-bound read of
        # 2·j·n doubles
        s = self.s
        s.device.charge_cpu(
            "TakeStep[reorth]", s.cpu.blas1_time(2.0 * j_avg * s.n * 8.0)
        )

    def on_restart(self, m: int, kp: int) -> None:
        """Host restarts are charged at exit, by :meth:`finish_irlm`."""

    def charge_restart(self, m: int, kp: int) -> None:
        s = self.s
        _charge_tridiag(s.device, s.cpu, m, kp)
        # V <- V Q[:, :kp]: (n × m) @ (m × kp) BLAS-3, multithreaded OpenBLAS
        s.device.charge_cpu(
            "basis_update[VQ]", s.cpu.blas3_time(2.0 * s.n * m * kp)
        )

    def finish_irlm(self, m: int, n_restarts: int) -> None:
        s = self.s
        for _ in range(n_restarts):
            self.charge_restart(m, s.k)
        # FindEigenvectors post-processing (the dseupd analogue)
        s.device.charge_cpu(
            "FindEigenvectors", s.cpu.blas3_time(2.0 * s.n * m * s.k)
        )

    def dense(self, op: str, tag: str, width: int) -> None:
        s = self.s
        if op == "qr":
            s.device.charge_cpu(
                f"qr[{tag}]", s.cpu.blas3_time(2.0 * s.n * width * width)
            )
        else:
            s.device.charge_cpu(
                f"axpy[{tag}]", s.cpu.blas1_time(5.0 * s.n * width * 8.0)
            )

    def ritz(self, width: int) -> None:
        """``U`` is assembled host-side: nothing to charge."""


class CPUPlacement(HostPlacement):
    """The device stayed unusable: the host finishes the solve through the
    operator's substrate — the product ``csrmv``/``csrmm`` compute, over
    the same storage-width values — with the quantize round trip the
    device buffers apply, so the Ritz pairs match the all-GPU run bit for
    bit.  Each product is charged as host SpMV time instead of kernels +
    PCIe transfers.

    ``op``/``dtype`` default to the solve's storage operand; the fp64
    refinement pass runs over the full-precision operator instead.
    """

    def __init__(
        self,
        s: Solve,
        op: DeviceCSR | None = None,
        dtype=None,
        label: str = "host-fallback",
    ) -> None:
        super().__init__(s)
        A = op if op is not None else s.A_solve
        self.dtype = np.dtype(dtype) if dtype is not None else s.dtype
        self.label = label
        self.nnz = A.nnz
        self.sub = A.substrate

    def workspace(self, cols: int | None, basis: int = 0) -> None:
        """Host products need no device workspace."""

    def apply(self, x: np.ndarray, site: str | None = None) -> np.ndarray:
        s = self.s
        n = s.n
        xq = quantize_roundtrip(x, self.dtype)
        if x.ndim == 1:
            y = self.sub.spmv(xq)
            s.device.charge_cpu(
                f"spmv[{self.label}]", s.cpu.spmv_time(n, self.nnz)
            )
        else:
            y = self.sub.spmm(xq)
            s.device.charge_cpu(
                f"spmm[{self.label}]",
                s.cpu.spmv_time(n, self.nnz) * x.shape[1],
            )
        return quantize_roundtrip(y, self.dtype)


def place_operator(
    s: Solve,
    residency: str = "device",
    n_devices: int = 1,
    fmt: str = "csr",
    decision=None,
) -> PlacedOperator:
    """The placement a validated request selects."""
    if n_devices > 1:
        return PartitionedPlacement(s, n_devices)
    if residency == "device":
        return DevicePlacement(s, fmt, decision)
    return HostPlacement(s, fmt, decision)


def run_placed(s: Solve, pl: PlacedOperator, drive):
    """Run ``drive(placement)`` with the solve's fault response.

    A device failure tears the attempt down and re-drives on ``pl``
    (``policy.max_resumes`` times — the drivers resume from their latest
    checkpoint or replay a seeded start); when the device stays unusable
    the solve finishes on a :class:`CPUPlacement`.  Returns
    ``(placement that finished, drive's result)``.
    """
    policy = s.policy
    while True:
        try:
            return pl, drive(pl)
        except CudaError:
            pl.release()
            if not policy.enabled:
                raise
            if s.n_resumes < policy.max_resumes:
                s.n_resumes += 1
                continue
            if not policy.cpu_fallback:
                raise
            s.fallback = "cpu"
            cpu = CPUPlacement(s)
            return cpu, drive(cpu)


def hybrid_eigensolver(
    device: Device,
    A: DeviceCSR,
    k: int,
    m: int | None = None,
    tol: float = 0.0,
    maxiter: int | None = None,
    seed: int | None = 0,
    which: str = "LA",
    cpu_spec: CPUSpec = XEON_E5_2690,
    v0: np.ndarray | None = None,
    policy: ResiliencePolicy = DISABLED,
    residency: str = "device",
    spmv_format: str = "auto",
    n_devices: int = 1,
    precision: str = "fp64",
    embedding: str = "lanczos",
    refine_steps: int | None = None,
    power_q: int | None = None,
) -> tuple[np.ndarray, np.ndarray, EigStats]:
    """Algorithm 3: the reverse-communication loop over a placed operator.

    The IRLM (or power) driver runs host-side and asks a
    :class:`PlacedOperator` for every product; the placement — host round
    trip, GPU-resident, row-partitioned over several GPUs, or the CPU
    fallback — decides where it runs and what it costs.  All placements
    drive the exact same arithmetic, so eigenpairs are bit-identical.

    Parameters
    ----------
    device:
        The simulated GPU (owns the shared timeline).
    A:
        The device-resident operator in CSR (``D^{-1/2} W D^{-1/2}`` or
        ``D⁻¹W`` from Algorithm 2).
    k, m, tol, maxiter, seed, which, v0:
        Passed to :class:`~repro.linalg.eigsolver.SymEigProblem`.
    policy:
        Fault response (default: let device errors propagate).  With an
        enabled policy each product retries transient faults with backoff,
        a mid-solve device failure resumes from the latest restart-boundary
        :class:`~repro.linalg.rci.LanczosCheckpoint` (``policy.max_resumes``
        attempts; the seeded power solve simply replays), and when the
        device stays unusable the solve finishes on the
        :class:`CPUPlacement` (see :func:`run_placed`).
    residency:
        ``"device"`` (default) selects :class:`DevicePlacement`: the
        iteration vector and Lanczos basis persist on the device and only
        ARPACK's small tridiagonal state crosses the bus, at restart
        boundaries, with the Q upload hidden on the copy engine.
        ``"host"`` selects :class:`HostPlacement`, the paper's original
        Algorithm 3: the vector ships over PCIe twice per Lanczos step.
    spmv_format:
        ``"auto"`` (default) picks CSR or ELL per matrix from row-length
        statistics via the cost-model autotuner; or force one format.
        All formats share one reference substrate arithmetic, so this only
        changes charged time.
    n_devices:
        Shard the solve across this many GPUs (default 1) with
        :class:`PartitionedPlacement`, grouped by
        :func:`~repro.cusparse.partition.device_group` on the paper's
        PCIe topology: nnz-balanced row blocks, halo exchange on dedicated
        copy streams, per-device basis blocks and restart rotations; the
        ``2m`` restart coefficients allgather to the host as before, and
        each device ships its rows of ``U`` back at the end.  Requires
        ``residency="device"`` and CSR.  Spectra are bit-identical to
        ``n_devices=1`` — only the charged makespan changes.
    precision:
        Storage precision of the operator values and iteration vectors:
        ``"fp64"`` (default, the exact path), ``"fp32"`` or ``"fp16"``.
        Reduced solves accumulate in fp64 (see :mod:`repro.precision`),
        clamp ``tol`` to the storage dtype's noise floor, and finish with
        ``refine_steps`` fp64 Rayleigh–Ritz corrections against the
        full-precision operator.
    embedding:
        ``"lanczos"`` (default) is the full IRLM loop; ``"power"`` is
        the block power-iteration embedding of Boutsidis et al. — pure
        repeated SpMM (``power_q + 1`` operator applications, no
        restarts) through the same placements.  Power spectra are
        approximate by design; gate them with the ARI/residual tolerance
        bands, not bit-identity.
    refine_steps:
        Maximum fp64 subspace advances in the refinement pass after the
        solve (the pass always starts with one operator application that
        measures the incoming residual and applies a free in-span
        Rayleigh–Ritz polish).  ``None`` (default) means 0 for
        ``precision="fp64"`` and an *adaptive* budget of
        ``DEFAULT_REFINE_STEPS`` for reduced precisions: advances stop
        early once the residual is at 10% of the precision's tolerance
        band, so an already-in-band solve pays a single application.  An
        explicit integer disables the early exit and runs exactly that
        many advances.
    power_q:
        Power-iteration count for ``embedding="power"``
        (default ``max(8, ceil(2·log2 n))``).

    Returns
    -------
    (theta, U, stats):
        Eigenvalues ascending, eigenvector columns ``(n, k)``, counters.
    """
    check_placement(residency, spmv_format, n_devices)
    if embedding not in EMBEDDING_MODES:
        raise ValueError(
            f"embedding must be one of {EMBEDDING_MODES}, got {embedding!r}"
        )
    vs = resolve_precision(precision).itemsize
    refine_eff = (
        refine_steps
        if refine_steps is not None
        else (0 if vs == 8 else DEFAULT_REFINE_STEPS)
    )
    if refine_eff < 0:
        raise ValueError(f"refine_steps must be >= 0, got {refine_steps}")
    # default (adaptive) refinement stops advancing once the residual is
    # comfortably inside the precision's tolerance band — a reduced solve
    # that converged under the band pays one measurement application, not
    # a fixed polish budget; an explicit refine_steps runs to its budget
    refine_target = (
        0.0 if refine_steps is not None else 0.1 * TOL_FLOORS[precision]
    )
    # reduced-storage iterations bottom out at the quantization noise
    # floor; asking for residuals below it only burns matvecs that the
    # fp64 refinement pass recovers more cheaply
    tol_eff = max(float(tol), TOL_FLOORS[precision])
    s = Solve(device, A, k, precision, policy, cpu_spec)
    n = s.n
    m_eff = int(m) if m is not None else min(n, max(2 * k + 1, 20))
    j_avg = (k + m_eff) / 2.0
    # power-iteration parameters (fixed before format selection so the
    # SpMM autotuner can amortize conversion over the q+1 applications)
    q_power = power_q if power_q is not None else default_power_iterations(n)
    p_power = min(n, k + 2)
    latest_cp: LanczosCheckpoint | None = None

    def note_cp(cp: LanczosCheckpoint) -> None:
        nonlocal latest_cp
        latest_cp = cp

    def irlm(pl: PlacedOperator) -> SymEigProblem:
        # per-attempt workspace: the operand pair plus the (m, n) Lanczos
        # basis, then the device state is seeded: v0 on a cold start, the
        # kept factorization after a resume (the device lost it)
        pl.workspace(None, basis=m_eff)
        pl.prepare()
        pl.upload(
            TransferLedger(n=n, m=m_eff, k=k, itemsize=vs).seed_h2d_bytes(
                latest_cp
            )
        )

        def on_restart_boundary(_r: int) -> None:
            # an implicit restart compacts the factorization to the same
            # checkpointable basis block the resilience layer saves — a
            # preemption-safe point for the serving scheduler
            mark_boundary(device)
            pl.on_restart(m_eff, k)

        # step 1: initialize the Prob object (resumes pick up the
        # factorization and RNG from the latest checkpoint instead)
        prob = SymEigProblem(
            n=n, k=k, which=which, m=m, tol=tol_eff, maxiter=maxiter,
            seed=seed, v0=v0, checkpoint=latest_cp, checkpoint_cb=note_cp,
            restart_cb=on_restart_boundary,
        )
        # step 2: while !Prob.converge()
        while not prob.converged():
            prob.take_step()
            pl.charge_step(j_avg)
            if prob.needs_matvec():
                prob.put_vector(pl.apply(prob.get_vector()))
        pl.release()
        return prob

    def power(pl: PlacedOperator):
        # pure repeated SpMM — q+1 operator applications, no restarts, no
        # reorthogonalization sweeps, no tridiagonal host state; the random
        # start block uploads once
        pl.workspace(p_power)
        pl.prepare()
        pl.upload(n * p_power * vs)

        def apply_block(B: np.ndarray) -> np.ndarray:
            Z = pl.apply(B)
            pl.dense("qr", "power", p_power)
            return Z

        out = power_embedding(
            apply_block, n, k, q=q_power, seed=seed, which=which
        )
        pl.ritz(p_power)
        pl.free_workspace()
        pl.release()
        return out

    with device.stage("eigensolver"):
        # ---- SpMV format selection (autotune over row-length stats) ------
        decision = None
        fmt = spmv_format
        if fmt == "auto":
            if n_devices > 1:
                # the partitioned placement stores row blocks as split CSR
                fmt = "csr"
            elif embedding == "power":
                # the power path is pure SpMM: rank candidates by the
                # block-product kernels, charging conversion against the
                # q+1 applications that amortize it
                decision = autotune_spmm_format(
                    A.indptr.data, device.cost, p_power,
                    conversion_uses=q_power + 1, itemsize=vs,
                )
                fmt = decision.format
            else:
                decision = autotune_format(
                    A.indptr.data, device.cost, itemsize=vs
                )
                fmt = decision.format
        pl = place_operator(s, residency, n_devices, fmt, decision)

        if embedding == "lanczos":
            done, prob = run_placed(s, pl, irlm)
            # step 3: compute the eigenvectors
            theta, U = prob.find_eigenvectors()
            res = prob.result
            done.finish_irlm(prob.m, res.n_restarts)
            n_op, n_restarts, n_reorth = res.n_op, res.n_restarts, res.n_reorth
            converged, m_used = res.converged, prob.m
        else:
            _, (theta, U, _residual, n_op) = run_placed(s, pl, power)
            n_restarts, n_reorth, converged, m_used = 0, q_power, True, p_power

        # ---- fp64 iterative refinement of the reduced-precision solve ----
        # every reduced solve at least *measures* its residual against the
        # full-precision operator; the exact fp64 path skips the pass
        # entirely unless refinement was explicitly requested
        refine_residual: float | None = None
        refine_history: list | None = None
        if vs != 8 or refine_eff > 0:
            theta, U, refine_residual, refine_history = refine_eigenpairs(
                _refine_apply(s), theta, U, steps=refine_eff, which=which,
                target=refine_target,
            )
    stats = EigStats(
        n_op=n_op,
        n_restarts=n_restarts,
        n_reorth=n_reorth,
        converged=converged,
        m=m_used,
        k=k,
        refine_steps=(
            len(refine_history) - 1 if refine_history is not None else 0
        ),
        refine_residual=refine_residual,
        refine_history=refine_history,
        **s.stats_fields(pl, embedding),
    )
    return theta, U, stats


def _refine_apply(s: Solve):
    """The refinement pass's fp64 block product: a staged ``csrmm`` on the
    full-precision operator (fresh staging buffers per attempt, so every
    fault retries idempotently), moving to a :class:`CPUPlacement` over
    the same operator once the device is unusable — or from the start when
    the solve itself fell back."""
    host = CPUPlacement(s, op=s.A, dtype=np.float64, label="refine-host")
    on_device = s.fallback is None
    policy = s.policy

    def staged_csrmm(B: np.ndarray) -> np.ndarray:
        dB = s.device.empty(B.shape, dtype=np.float64)
        try:
            dB.copy_from_host(B)
            dC = csrmm(s.A, dB)
            try:
                return dC.copy_to_host()
            finally:
                dC.free()
        finally:
            dB.free()

    def apply64(B: np.ndarray) -> np.ndarray:
        nonlocal on_device
        if on_device:
            try:
                return s.retry(lambda: staged_csrmm(B), "eig.refine")
            except CudaError:
                if not (policy.enabled and policy.cpu_fallback):
                    raise
                on_device = False
        return host.apply(B)

    return apply64


#: name fragments identifying SpMV/SpMM kernels on the timeline (any
#: precision letter, any device suffix) — the byte-traffic meter's twin
_SPMV_KERNEL_SUBSTRINGS = (
    "csrmv", "coomv", "ellmv", "csrmm", "ellmm",
)


def _sum_spmv_kernel_seconds(device: Device, events_before: int) -> float:
    """Sum the simulated seconds of every sparse-product kernel a solve
    charged (the timeline is shared across the device group, so one scan
    covers the partitioned multi-GPU paths too)."""
    total = 0.0
    for ev in device.timeline.events[events_before:]:
        if ev.category != "kernel":
            continue
        if any(s in ev.name for s in _SPMV_KERNEL_SUBSTRINGS):
            total += ev.duration
    return total
