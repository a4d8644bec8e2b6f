"""Hybrid stage runners: the CPU/GPU split of Algorithm 3 with full time
accounting.

:func:`hybrid_eigensolver` is the heart of the paper: ARPACK-style reverse
communication runs on the (modeled) CPU while every sparse matrix-vector
product runs on the (simulated) GPU, with the iteration vector crossing the
PCIe bus twice per Lanczos step.  CPU phases are charged to the shared
timeline from the Xeon cost model:

* per Lanczos step — the ``TakeStep`` orthogonalization sweep, a
  memory-bound BLAS-2 pass over the current basis (``O(n·j)``);
* per restart — the m×m tridiagonal eigendecomposition + shift sweeps
  (``O(m³)``, LAPACK single-threaded) and the BLAS-3 basis update
  ``V <- V Q`` (``O(n·m·k)``, multithreaded OpenBLAS);
* at exit — ``FindEigenvectors`` (``O(n·m·k)`` BLAS-3), matching the
  complexity expression (10) of §IV.B.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.chaos.retry import DISABLED, ResiliencePolicy, TRANSIENT_ERRORS, with_retry
from repro.cuda.boundaries import mark_boundary
from repro.cuda.device import Device
from repro.cuda.memory import BufferGroup
from repro.cuda.stream import Stream
from repro.cusparse.formats import (
    autotune_format,
    autotune_spmm_format,
    convert_for_spmv,
)
from repro.cusparse.matrices import DeviceCSR, cast_csr
from repro.cusparse.partition import (
    PartitionedCSR,
    device_group,
    partition_csr,
    partition_rows,
    spmm_partitioned,
    spmv_partitioned,
)
from repro.cusparse.spmm import csrmm, spmm_any
from repro.cusparse.spmv import csrmv, spmv_any
from repro.errors import CudaError, DeviceMemoryError
from repro.hw.costmodel import CPUCostModel
from repro.hw.spec import CPUSpec, XEON_E5_2690
from repro.linalg.eigsolver import SymEigProblem
from repro.linalg.power import default_power_iterations, power_embedding
from repro.linalg.rci import LanczosCheckpoint, TransferLedger
from repro.linalg.refine import refine_eigenpairs
from repro.precision import (
    TOL_FLOORS,
    as_f64,
    kernel_letter,
    precision_of,
    quantize,
    quantize_roundtrip,
    resolve_precision,
)

#: iteration-vector placements for :func:`hybrid_eigensolver`
RESIDENCY_MODES = ("device", "host")
#: SpMV format requests (``"auto"`` = cost-model autotune over row stats)
SPMV_FORMAT_CHOICES = ("auto", "csr", "ell", "hyb")
#: embedding algorithms: full IRLM or the block power iteration of
#: Boutsidis et al. (q = O(log n) SpMMs, no restarts)
EMBEDDING_MODES = ("lanczos", "power")
#: fp64 refinement steps applied by default after a reduced-precision solve
DEFAULT_REFINE_STEPS = 2


@dataclass
class EigStats:
    """Counters from one hybrid eigensolver run.

    ``n_resumes``/``spmv_retries``/``fallback`` report resilience activity:
    checkpoint restarts after a device failure, recovered per-round-trip
    faults, and whether the solve finished on the host (``"cpu"``) instead
    of the device (``None``).  ``residency``/``spmv_format`` record the
    placement and format the solve actually ran with; the transfer counters
    (bytes moved, transfers elided, overlap) quantify what the GPU-resident
    path saved over the ship-the-vector-twice-per-step baseline.
    """

    n_op: int
    n_restarts: int
    n_reorth: int
    converged: bool
    m: int
    k: int
    pcie_round_trips: int
    wall_seconds: float
    n_resumes: int = 0
    spmv_retries: int = 0
    fallback: str | None = None
    residency: str = "host"
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
    #: counts, per-step halo bytes, one-time shard distribution bytes)
    partition: dict | None = None
    #: storage precision of the operator values and iteration vectors
    precision: str = "fp64"
    #: embedding algorithm the solve ran ("lanczos" or "power")
    embedding: str = "lanczos"
    #: fp64 operator applications the refinement pass performed
    #: (``len(refine_history) - 1``: one for the measurement + in-span
    #: polish, one per subspace advance; 0 = the pass never ran)
    refine_steps: int = 0
    #: max relative eigen-residual after refinement (None = not measured;
    #: the exact fp64 path doesn't run the refinement pass)
    refine_residual: float | None = None
    #: per-step residual history of the refinement loop (monotone)
    refine_history: list | None = None
    #: modeled SpMV/SpMM device-memory bytes this solve moved (the
    #: roofline byte expressions, summed — the precision ablation's gate)
    spmv_bytes: float = 0.0
    #: summed simulated seconds of the SpMV/SpMM kernels themselves
    spmv_kernel_s: float = 0.0

    def as_dict(self) -> dict:
        return dict(
            n_op=self.n_op,
            n_restarts=self.n_restarts,
            n_reorth=self.n_reorth,
            converged=self.converged,
            m=self.m,
            k=self.k,
            pcie_round_trips=self.pcie_round_trips,
            wall_seconds=self.wall_seconds,
            n_resumes=self.n_resumes,
            spmv_retries=self.spmv_retries,
            fallback=self.fallback,
            residency=self.residency,
            spmv_format=self.spmv_format,
            bytes_h2d=self.bytes_h2d,
            bytes_d2h=self.bytes_d2h,
            bytes_p2p=self.bytes_p2p,
            n_p2p=self.n_p2p,
            transfers_elided=self.transfers_elided,
            bytes_elided=self.bytes_elided,
            transfer_overlap_s=self.transfer_overlap_s,
            format_decision=self.format_decision,
            n_devices=self.n_devices,
            partition=self.partition,
            precision=self.precision,
            embedding=self.embedding,
            refine_steps=self.refine_steps,
            refine_residual=self.refine_residual,
            refine_history=self.refine_history,
            spmv_bytes=self.spmv_bytes,
            spmv_kernel_s=self.spmv_kernel_s,
        )


def charge_takestep(
    device: Device, cpu: CPUCostModel, n: int, j_avg: float
) -> None:
    """Charge one reverse-communication ``TakeStep`` to the timeline.

    The step's dominant cost is the full-reorthogonalization sweep against
    the current basis: two passes of ``V_j @ w`` / ``w -= V_jᵀ h`` — a
    memory-bound read of ``2·j·n`` doubles on the host.
    """
    nbytes = 2.0 * j_avg * n * 8.0
    device.charge_cpu("TakeStep[reorth]", cpu.blas1_time(nbytes))


def charge_restart(
    device: Device, cpu: CPUCostModel, n: int, m: int, kp: int
) -> None:
    """Charge one implicit restart: T-eig + shift sweeps + basis update."""
    # dense tridiagonal eig of the m×m projected matrix (LAPACK, 1 thread)
    device.charge_cpu("dsteqr[T]", cpu.blas3_time(15.0 * m**3, threads=1))
    # p = m - kp implicit QR sweeps, O(m) rotations each over Q (m×m)
    device.charge_cpu(
        "qr_sweeps", cpu.blas3_time(6.0 * (m - kp) * m * m, threads=1)
    )
    # V <- V Q[:, :kp]: (n × m) @ (m × kp) BLAS-3, multithreaded OpenBLAS
    device.charge_cpu("basis_update[VQ]", cpu.blas3_time(2.0 * n * m * kp))


def charge_find_eigenvectors(
    device: Device, cpu: CPUCostModel, n: int, m: int, k: int
) -> None:
    """Charge the ``FindEigenvectors`` post-processing (dseupd analogue)."""
    device.charge_cpu("FindEigenvectors", cpu.blas3_time(2.0 * n * m * k))


def charge_takestep_device(
    device: Device, n: int, j_avg: float, itemsize: int = 8
) -> None:
    """Charge one ``TakeStep`` with the basis kept device-resident.

    The reorthogonalization sweep becomes two cuBLAS gemv launches over the
    on-device basis (project then update) instead of a host BLAS-2 pass —
    the same ``O(j·n)`` traffic, but at GPU stream bandwidth.  ``itemsize``
    is the basis storage width (reduced-precision solves keep the basis at
    fp32/fp16, so the sweep reads proportionally fewer bytes).
    """
    letter = kernel_letter(itemsize)
    flops = 2.0 * j_avg * n
    bytes_moved = (j_avg * n + 2.0 * n) * float(itemsize)
    device.charge_kernel(
        f"cublas{letter}gemv[proj]", flops, bytes_moved, kind="stream"
    )
    device.charge_kernel(
        f"cublas{letter}gemv[update]", flops, bytes_moved, kind="stream"
    )


def charge_restart_device(
    device: Device,
    cpu: CPUCostModel,
    copy_stream: Stream,
    n: int,
    m: int,
    kp: int,
    itemsize: int = 8,
) -> None:
    """Charge one implicit restart with a device-resident basis.

    Only ARPACK's small tridiagonal state crosses the bus: the ``2m``
    coefficients come down before the host runs ``dsteqr`` + the shift
    sweeps, and the ``m x kp`` rotation matrix streams back up on the copy
    engine *while* the host is still grinding — the H2D lands on the
    timeline overlapped with the CPU phases via the dedicated stream.  The
    basis update ``V <- V Q`` then runs as a cublas gemm on the device
    instead of host BLAS-3.  The two staging buffers cycle through the
    caching allocator every restart, so after the first restart they are
    free-list hits.

    ``itemsize`` is the basis storage width.  The staging buffers
    (``coef``/``qbuf``) are priced at the same width: ARPACK's host copy
    of the tridiagonal state stays fp64, but what crosses the bus is the
    device-side storage representation — the same convention
    :meth:`~repro.linalg.rci.TransferLedger.seed_h2d_bytes` uses, so the
    ledger's restart entries match the meters at every precision.
    """
    stage_dt = np.dtype(f"f{itemsize}")
    coef = device.empty(2 * m, dtype=stage_dt)
    qbuf = device.empty((m, kp), dtype=stage_dt)
    try:
        # pinned-host staging: the host needs alpha/beta before dsteqr
        device._record_d2h(coef.nbytes)
        t_host = device.timeline.clock.now
        device.charge_cpu("dsteqr[T]", cpu.blas3_time(15.0 * m**3, threads=1))
        device.charge_cpu(
            "qr_sweeps", cpu.blas3_time(6.0 * (m - kp) * m * m, threads=1)
        )
        # async H2D of Q, hidden behind the host-side restart math
        copy_stream.enqueue_h2d(qbuf.nbytes, ready_at=t_host)
        device.charge_kernel(
            f"cublas{kernel_letter(itemsize)}gemm[VQ]",
            flops=2.0 * n * m * kp,
            bytes_moved=(n * m + m * kp + 2.0 * n * kp) * float(itemsize),
            kind="dense",
        )
    finally:
        coef.free()
        qbuf.free()


def _sum_transfer_stats(devices: list[Device]) -> dict:
    """Aggregate :meth:`Device.transfer_stats` over a device group."""
    out: dict = {}
    for dev in devices:
        for key, val in dev.transfer_stats().items():
            out[key] = out.get(key, 0) + val
    return out


def charge_takestep_multi(
    devices: list[Device],
    row_counts: tuple[int, ...],
    j_avg: float,
    itemsize: int = 8,
) -> None:
    """Charge one ``TakeStep`` with the basis row-partitioned over devices.

    Each GPU runs the two reorthogonalization gemvs over its own basis
    block concurrently (laid at a common start on the shared timeline, so
    the step costs the makespan over devices).  The ``2j`` projection
    coefficients are per-step scalar state and stay elided, the same
    convention the single-device device-resident path uses for per-step
    coefficient traffic — only restart-boundary state crosses a bus.
    """
    timeline = devices[0].timeline
    t0 = timeline.clock.now
    letter = kernel_letter(itemsize)
    for d, dev in enumerate(devices):
        nd = int(row_counts[d])
        flops = 2.0 * j_avg * nd
        bytes_moved = (j_avg * nd + 2.0 * nd) * float(itemsize)
        dt_proj = dev.cost.kernel_time(flops, bytes_moved, kind="stream")
        timeline.record_at(
            f"cublas{letter}gemv[proj,dev{d}]", "kernel", t0, dt_proj
        )
        dt_upd = dev.cost.kernel_time(flops, bytes_moved, kind="stream")
        timeline.record_at(
            f"cublas{letter}gemv[update,dev{d}]", "kernel", t0 + dt_proj, dt_upd
        )
        dev.kernel_launches += 2


def charge_restart_multi(
    devices: list[Device],
    cpu: CPUCostModel,
    copy_streams: list[Stream],
    row_counts: tuple[int, ...],
    m: int,
    kp: int,
    itemsize: int = 8,
) -> None:
    """Charge one implicit restart with the basis sharded over devices.

    The ``2m`` tridiagonal coefficients allgather to the host from device
    0 (they are replicated scalar state), the host runs ``dsteqr`` + the
    shift sweeps once, and the ``m x kp`` rotation ``Q`` broadcasts to
    *every* device on its copy engine — each destination has its own bus
    link, so the copies land concurrently, hidden behind the host math.
    The basis update ``V <- V Q`` then runs as one gemm per device over
    its own row block, concurrent across devices.
    """
    primary = devices[0]
    timeline = primary.timeline
    stage_dt = np.dtype(f"f{itemsize}")
    coef = primary.empty(2 * m, dtype=stage_dt)
    qbuf = primary.empty((m, kp), dtype=stage_dt)
    try:
        primary._record_d2h(coef.nbytes)
        t_host = timeline.clock.now
        primary.charge_cpu("dsteqr[T]", cpu.blas3_time(15.0 * m**3, threads=1))
        primary.charge_cpu(
            "qr_sweeps", cpu.blas3_time(6.0 * (m - kp) * m * m, threads=1)
        )
        t_cpu_done = timeline.clock.now
        q_ready = []
        for cs in copy_streams:
            _, end = cs.enqueue_h2d(qbuf.nbytes, ready_at=t_host)
            q_ready.append(end)
        letter = kernel_letter(itemsize)
        for d, dev in enumerate(devices):
            nd = int(row_counts[d])
            dt = dev.cost.kernel_time(
                2.0 * nd * m * kp,
                (nd * m + m * kp + 2.0 * nd * kp) * float(itemsize),
                kind="dense",
            )
            timeline.record_at(
                f"cublas{letter}gemm[VQ,dev{d}]",
                "kernel",
                max(t_cpu_done, q_ready[d]),
                dt,
            )
            dev.kernel_launches += 1
    finally:
        coef.free()
        qbuf.free()


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
    plan: PartitionedCSR | None = None,
    elide_result_d2h: bool = False,
) -> tuple[np.ndarray, np.ndarray, EigStats]:
    """Algorithm 3: the reverse-communication loop with GPU SpMV.

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
        enabled policy each SpMV retries transient faults with backoff, a
        mid-solve device failure resumes from the latest restart-boundary
        :class:`~repro.linalg.rci.LanczosCheckpoint` (``policy.max_resumes``
        attempts), and when the device stays unusable the solve finishes
        with a host SpMV that performs the *same arithmetic* as
        ``cusparseDcsrmv``, so the Ritz pairs match the all-GPU run bit
        for bit.
    residency:
        ``"device"`` (default) keeps the iteration vector and Lanczos basis
        in persistent device buffers across reverse-communication steps —
        only ARPACK's small tridiagonal state crosses the bus, at restart
        boundaries, with the Q upload hidden on the copy engine.
        ``"host"`` is the paper's original Algorithm 3: the vector ships
        over PCIe twice per Lanczos step.  Both placements drive the exact
        same IRLM arithmetic, so eigenpairs are bit-identical.
    spmv_format:
        ``"auto"`` (default) picks CSR/ELL/HYB per matrix from row-length
        statistics via the cost-model autotuner; or force one format.
        All formats share one reference substrate arithmetic, so this only
        changes charged time.
    n_devices:
        Shard the solve across this many GPUs (default 1), grouped by
        :func:`~repro.cusparse.partition.device_group` on the paper's
        PCIe topology.  The operator is split into nnz-balanced row
        blocks (:mod:`repro.cusparse.partition`), each
        SpMV runs a local kernel immediately while halo segments of the
        iteration vector travel device-to-device on dedicated copy
        streams, the Lanczos basis lives in per-device blocks, and the
        restart rotation applies as one gemm per device; the ``2m``
        restart coefficients allgather to the host as before.  Requires
        ``residency="device"`` and CSR (the row blocks are stored as
        split local/halo CSR).  Numerics are computed through the
        canonical substrate on every path, so spectra are bit-identical
        to ``n_devices=1`` — only the charged makespan changes.
    precision:
        Storage precision of the operator values and iteration vectors:
        ``"fp64"`` (default, the exact path — bit-identical to a build
        without this axis), ``"fp32"`` or ``"fp16"``.  Reduced solves
        accumulate in fp64 (see :mod:`repro.precision`), clamp ``tol``
        to the storage dtype's noise floor, and finish with
        ``refine_steps`` fp64 Rayleigh–Ritz corrections against the
        full-precision operator.
    embedding:
        ``"lanczos"`` (default) is the full IRLM loop; ``"power"`` is
        the block power-iteration embedding of Boutsidis et al. — pure
        repeated SpMM (``power_q + 1`` operator applications, no
        restarts), which rides the partitioned multi-GPU SpMV, the
        format autotuner, and the caching allocator unchanged.  Power
        spectra are approximate by design; gate them with the ARI/
        residual tolerance bands, not bit-identity.
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
    plan:
        A prebuilt :class:`~repro.cusparse.partition.PartitionedCSR` to
        reuse (the composed multi-device fit partitions once and keeps
        the shards resident across stages).  The plan's shard devices
        become the device group — its first shard must live on
        ``device`` — and the plan is *not* freed on exit; the caller
        owns it.
    elide_result_d2h:
        Keep the Ritz block ``U`` on the devices instead of shipping it
        down (composed fits hand the shards straight to multi-device
        k-means; the elided bytes are metered like the device-resident
        loop's elided round trips).

    Returns
    -------
    (theta, U, stats):
        Eigenvalues ascending, eigenvector columns ``(n, k)``, counters.
    """
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
                "partitioned basis blocks live on the GPUs)"
            )
        if spmv_format not in ("auto", "csr"):
            raise ValueError(
                "n_devices > 1 stores row blocks as split local/halo CSR; "
                f"spmv_format={spmv_format!r} is not supported"
            )
        if plan is not None:
            if len(plan.shards) != n_devices:
                raise ValueError(
                    f"plan has {len(plan.shards)} shards for "
                    f"n_devices={n_devices}"
                )
            if plan.shards[0].device is not device:
                raise ValueError(
                    "plan's first shard must live on the primary device"
                )
    elif plan is not None:
        raise ValueError("plan requires n_devices > 1")
    if embedding not in EMBEDDING_MODES:
        raise ValueError(
            f"embedding must be one of {EMBEDDING_MODES}, got {embedding!r}"
        )
    store_dtype = resolve_precision(precision)
    vs = store_dtype.itemsize
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
    n = A.shape[0]
    cpu = CPUCostModel(cpu_spec)
    t0 = time.perf_counter()
    m_eff = int(m) if m is not None else min(n, max(2 * k + 1, 20))
    j_avg = (k + m_eff) / 2.0
    rows_cache = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr.data))
    # reduced-precision solve operand: a device-side streaming cast of the
    # values (identity for fp64 — A_solve IS A and nothing is charged);
    # the original fp64 operator stays alive for the refinement pass
    A_solve = cast_csr(device, A, store_dtype)

    latest_cp: LanczosCheckpoint | None = None
    n_resumes = 0
    spmv_retries = 0
    round_trips = 0
    fallback: str | None = None
    prob: SymEigProblem | None = None
    # peer devices start with zeroed counters, so summing over the group
    # after the solve still yields correct deltas against the primary-only
    # snapshot taken here
    transfers_before = device.transfer_stats()
    traffic_before = device.spmv_traffic_bytes

    # ---- multi-device context (shared timeline, own allocators/streams) --
    all_devices = [device]
    bounds: np.ndarray | None = None
    row_sets: list[np.ndarray] | None = None
    row_counts: tuple[int, ...] = ()
    if n_devices > 1:
        if plan is not None:
            # composed fit: the device group and row layout come from the
            # prebuilt plan; the shards stay resident across stages
            all_devices = plan.devices
            row_sets = plan.row_sets
            bounds = plan.bounds
        else:
            all_devices = device_group(device, n_devices)
            row_sets, _, bounds = partition_rows(A.indptr.data, n_devices)
        row_counts = tuple(int(r.size) for r in row_sets)
    copy_streams = [
        Stream(dev, name=f"dev{d}/copyEngine")
        for d, dev in enumerate(all_devices)
    ]
    shard_upload_total = 0
    n_matvec = 0
    ledger_multi: TransferLedger | None = None

    def note_cp(cp: LanczosCheckpoint) -> None:
        nonlocal latest_cp
        latest_cp = cp

    def count_retry(_attempt: int) -> None:
        nonlocal spmv_retries
        spmv_retries += 1

    def make_prob(restart_cb=None) -> SymEigProblem:
        # step 1: initialize the Prob object with parameters (resumes pick
        # up the factorization and RNG from the latest checkpoint instead)
        def on_restart_boundary(r: int) -> None:
            # an implicit restart compacts the factorization to the same
            # checkpointable basis block the resilience layer saves — a
            # preemption-safe point for the serving scheduler
            mark_boundary(device)
            if restart_cb is not None:
                restart_cb(r)

        return SymEigProblem(
            n=n, k=k, which=which, m=m, tol=tol_eff, maxiter=maxiter,
            seed=seed, v0=v0, checkpoint=latest_cp, checkpoint_cb=note_cp,
            restart_cb=on_restart_boundary,
        )

    # power-iteration parameters (fixed before format selection so the
    # SpMM autotuner can amortize conversion over the q+1 applications)
    q_power = power_q if power_q is not None else default_power_iterations(n)
    p_power = min(n, k + 2)

    events_before = len(device.timeline)
    with device.stage("eigensolver"):
        # ---- SpMV format selection (autotune over row-length stats) ------
        decision = None
        fmt = spmv_format
        if fmt == "auto":
            if n_devices > 1:
                # the partitioned path stores row blocks as split CSR
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
                # re-runs on the same device rank candidates by the kernel
                # times actually recorded on earlier solves of this
                # operator, falling back to the roofline prediction for
                # untimed formats; measured evidence is fp64-kernel only,
                # so reduced-precision solves rank purely by prediction
                decision = autotune_format(
                    A.indptr.data, device.cost,
                    measured=(
                        (device.measured_spmv_times(n, A.nnz) or None)
                        if vs == 8 else None
                    ),
                    itemsize=vs,
                )
                fmt = decision.format
        A_op = A_solve

        def materialize_op() -> None:
            # conversion kernel charged once, amortized over the solve
            nonlocal A_op
            if fmt != "csr" and A_op is A_solve:
                A_op = convert_for_spmv(
                    A_solve, fmt,
                    hyb_width=decision.hyb_width if decision is not None else None,
                )

        def drop_op() -> None:
            nonlocal A_op
            if A_op is not A_solve:
                A_op.free()
                A_op = A_solve

        if residency == "device":
            copy_stream = Stream(device, name="copyEngine")
        while embedding == "lanczos":
            bufs = BufferGroup()
            dx = dy = None
            part: PartitionedCSR | None = None
            try:
                if residency == "device" and n_devices > 1:
                    # ---- row-partitioned multi-GPU loop ------------------
                    # per-device workspace: x/y shard pair plus this
                    # device's (m, n_d) block of the Lanczos basis
                    def alloc_workspace_multi():
                        group = BufferGroup()
                        xs_, ys_ = [], []
                        try:
                            for d, dev in enumerate(all_devices):
                                nd = row_counts[d]
                                xs_.append(
                                    group.add(dev.empty(nd, dtype=store_dtype))
                                )
                                ys_.append(
                                    group.add(dev.empty(nd, dtype=store_dtype))
                                )
                                group.add(
                                    dev.empty((m_eff, nd), dtype=store_dtype)
                                )  # basis block V_d
                        except BaseException:
                            group.free_all()
                            raise
                        return group, xs_, ys_

                    bufs, xs, ys = with_retry(
                        alloc_workspace_multi, device, policy,
                        site="eig.alloc",
                        errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                        on_retry=count_retry,
                    )
                    # distribute the operator: row blocks to each device,
                    # split into local/halo parts (P2P + split kernels
                    # charged as a makespan over devices)
                    if plan is not None:
                        part = plan
                    else:
                        part = partition_csr(
                            A_solve, all_devices, rows_cache=rows_cache,
                            row_sets=row_sets,
                        )
                    shard_upload_total += part.shard_upload_bytes
                    ledger_multi = TransferLedger(
                        n=n, m=m_eff, k=k, itemsize=vs, n_devices=n_devices,
                        halo_counts=part.halo_counts,
                        halo_pairs=part.halo_pairs,
                        row_counts=row_counts,
                    )
                    ledger = ledger_multi
                    # scatter the seed (or the resumed factorization) —
                    # each device uploads its row slice concurrently
                    t_seed = device.timeline.clock.now
                    seed_parts = ledger.shard_split(
                        ledger.seed_h2d_bytes(latest_cp)
                    )
                    for dev, nbytes in zip(all_devices, seed_parts):
                        if nbytes:
                            dev._record_h2d_at(nbytes, t_seed)

                    def on_restart_multi(_r: int) -> None:
                        charge_restart_multi(
                            all_devices, cpu, copy_streams, row_counts,
                            m_eff, k, itemsize=vs,
                        )

                    prob = make_prob(restart_cb=on_restart_multi)
                    P = part
                    while not prob.converged():
                        prob.take_step()
                        charge_takestep_multi(
                            all_devices, row_counts, j_avg, itemsize=vs
                        )
                        if prob.needs_matvec():
                            xh = prob.get_vector()
                            # the storage round trip mirrors what landing in
                            # the store_dtype shard buffers does to the
                            # values (identity for fp64 — bit-identical)
                            xq = quantize_roundtrip(xh, store_dtype)
                            for d, xd in enumerate(xs):
                                xd.data[...] = xq[row_sets[d]]
                            yh = with_retry(
                                lambda: spmv_partitioned(P, xq),
                                device, policy,
                                site="eig.spmv", on_retry=count_retry,
                            )
                            yq = quantize_roundtrip(yh, store_dtype)
                            for d, yd in enumerate(ys):
                                yd.data[...] = yq[row_sets[d]]
                            prob.put_vector(yq)
                            n_matvec += 1
                            device.note_elided_transfer(
                                2, ledger.step_roundtrip_bytes()
                            )
                    if part is not plan:
                        part.free()
                    part = None
                elif residency == "device":
                    # persistent workspace: the ping-pong pair plus the
                    # (m, n) Lanczos basis live on the device for the whole
                    # solve; a transient alloc hiccup is retryable
                    def alloc_workspace():
                        group = BufferGroup()
                        try:
                            wx = group.add(device.empty(n, dtype=store_dtype))
                            wy = group.add(device.empty(n, dtype=store_dtype))
                            group.add(
                                device.empty((m_eff, n), dtype=store_dtype)
                            )  # basis V
                        except BaseException:
                            group.free_all()
                            raise
                        return group, wx, wy

                    bufs, dx, dy = with_retry(
                        alloc_workspace, device, policy,
                        site="eig.alloc",
                        errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                        on_retry=count_retry,
                    )
                    materialize_op()
                    # seed the device state: v0 on a cold start, the kept
                    # factorization after a resume (the device lost it)
                    ledger = TransferLedger(n=n, m=m_eff, k=k, itemsize=vs)
                    device._record_h2d(ledger.seed_h2d_bytes(latest_cp))

                    def on_restart(_r: int) -> None:
                        charge_restart_device(
                            device, cpu, copy_stream, n, m_eff, k, itemsize=vs
                        )

                    prob = make_prob(restart_cb=on_restart)
                    while not prob.converged():
                        prob.take_step()
                        charge_takestep_device(device, n, j_avg, itemsize=vs)
                        if prob.needs_matvec():
                            # the vector is already device-resident: no
                            # PCIe crossing in either direction
                            dx.data[...] = prob.get_vector()
                            with_retry(
                                lambda: spmv_any(
                                    A_op, dx, dy, rows_cache=rows_cache
                                ),
                                device, policy,
                                site="eig.spmv", on_retry=count_retry,
                            )
                            prob.put_vector(dy.data.copy())
                            device.note_elided_transfer(
                                2, ledger.step_roundtrip_bytes()
                            )
                else:
                    # the ping-pong pair is tiny (2n doubles) — no degrade
                    # ladder, but a transient alloc hiccup is retryable
                    dx = with_retry(
                        lambda: device.empty(n, dtype=store_dtype), device,
                        policy, site="eig.alloc",
                        errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                        on_retry=count_retry,
                    )
                    bufs.add(dx)
                    dy = with_retry(
                        lambda: device.empty(n, dtype=store_dtype), device,
                        policy, site="eig.alloc",
                        errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                        on_retry=count_retry,
                    )
                    bufs.add(dy)
                    materialize_op()
                    prob = make_prob()

                    # step 2: while !Prob.converge()
                    while not prob.converged():
                        prob.take_step()
                        charge_takestep(device, cpu, n, j_avg)
                        if prob.needs_matvec():
                            x = prob.get_vector()

                            def roundtrip() -> np.ndarray:
                                # transfer Prob.GetVector() host→device, run
                                # the SpMV, transfer the result back —
                                # idempotent end to end (dx/dy fully
                                # rewritten), so a fault at any site retries.
                                # the H2D/D2H legs move the storage-width
                                # representation (quantize is an identity
                                # passthrough for fp64)
                                dx.copy_from_host(quantize(x, store_dtype))
                                spmv_any(A_op, dx, dy, rows_cache=rows_cache)
                                return dy.copy_to_host()

                            y = with_retry(
                                roundtrip, device, policy,
                                site="eig.spmv", on_retry=count_retry,
                            )
                            prob.put_vector(y)
                            round_trips += 1
                bufs.free_all()
                break
            except CudaError:
                if part is not None and part is not plan:
                    part.free()
                bufs.free_all()
                drop_op()
                if not policy.enabled:
                    raise
                if n_resumes < policy.max_resumes:
                    # resume from the latest restart-boundary checkpoint
                    n_resumes += 1
                    continue
                if not policy.cpu_fallback:
                    raise
                prob = None
                break

        if embedding == "lanczos" and prob is None:
            # ---- CPU fallback: finish the solve host-side ----------------
            # Same bincount arithmetic as csrmv over the same storage-width
            # values (with the quantize round trip the device buffers apply
            # — an identity for fp64), so the resumed iteration produces
            # bit-identical Ritz pairs; each product is charged as host
            # SpMV time instead of kernel + 2 PCIe transfers.
            fallback = "cpu"
            indices = A_solve.indices.data.copy()
            val = A_solve.val.data.copy()
            nnz = A_solve.nnz
            prob = make_prob()
            while not prob.converged():
                prob.take_step()
                charge_takestep(device, cpu, n, j_avg)
                if prob.needs_matvec():
                    x = prob.get_vector()
                    xq = quantize_roundtrip(x, store_dtype)
                    y = np.bincount(
                        rows_cache,
                        weights=as_f64(val) * xq[indices],
                        minlength=n,
                    )
                    device.charge_cpu(
                        "spmv[host-fallback]", cpu.spmv_time(n, nnz)
                    )
                    prob.put_vector(quantize_roundtrip(y, store_dtype))

        power_applications = 0
        power_residual: float | None = None
        if embedding == "power":
            # ---- block power-iteration embedding (Boutsidis et al.) ------
            # pure repeated SpMM — q+1 operator applications, no restarts,
            # no reorthogonalization sweeps, no tridiagonal host state.  A
            # hard mid-solve fault restarts the whole solve: the seeded
            # start block makes the replay deterministic, so there is no
            # factorization worth checkpointing.
            letter = kernel_letter(vs)
            while True:
                bufs = BufferGroup()
                part = None
                dB = dC = None
                try:
                    if n_devices > 1:
                        for d, dev in enumerate(all_devices):
                            nd = row_counts[d]
                            # per-device B/Z slabs of the iteration block
                            bufs.add(
                                dev.empty((nd, p_power), dtype=store_dtype)
                            )
                            bufs.add(
                                dev.empty((nd, p_power), dtype=store_dtype)
                            )
                        if plan is not None:
                            part = plan
                        else:
                            part = partition_csr(
                                A_solve, all_devices, rows_cache=rows_cache,
                                row_sets=row_sets,
                            )
                        shard_upload_total += part.shard_upload_bytes
                        ledger_multi = TransferLedger(
                            n=n, m=p_power, k=k, itemsize=vs,
                            n_devices=n_devices,
                            halo_counts=part.halo_counts,
                            halo_pairs=part.halo_pairs,
                            row_counts=row_counts,
                        )
                        # scatter the random start block, one row slab per
                        # device, concurrently
                        t_seed = device.timeline.clock.now
                        for dev, nbytes in zip(
                            all_devices,
                            ledger_multi.shard_split(n * p_power * vs),
                        ):
                            if nbytes:
                                dev._record_h2d_at(nbytes, t_seed)
                        P = part

                        def apply_block(Bh: np.ndarray) -> np.ndarray:
                            nonlocal n_matvec
                            # one row-partitioned SpMM per application —
                            # the reduceat substrate keeps the block
                            # product bit-identical to the single-device
                            # csrmm at every storage precision
                            Bq = quantize_roundtrip(Bh, store_dtype)
                            Zh = with_retry(
                                lambda: spmm_partitioned(P, Bq),
                                device, policy,
                                site="eig.spmv", on_retry=count_retry,
                            )
                            Z = quantize_roundtrip(Zh, store_dtype)
                            # column-matvec equivalents, so the p2p plan
                            # n_matvec * step_halo_bytes stays exact
                            n_matvec += p_power
                            device.note_elided_transfer(
                                2, 2 * n * p_power * vs
                            )
                            # TSQR-style panel factorization: one geqrf per
                            # device over its row slab, concurrent
                            tq = device.timeline.clock.now
                            for d, dev in enumerate(all_devices):
                                nd = row_counts[d]
                                dtq = dev.cost.kernel_time(
                                    2.0 * nd * p_power * p_power,
                                    2.0 * nd * p_power * vs,
                                    kind="dense",
                                )
                                device.timeline.record_at(
                                    f"cusolver{letter}geqrf[power,dev{d}]",
                                    "kernel", tq, dtq,
                                )
                                dev.kernel_launches += 1
                            return Z
                    elif residency == "device":
                        def alloc_power():
                            group = BufferGroup()
                            try:
                                b = group.add(device.empty(
                                    (n, p_power), dtype=store_dtype
                                ))
                                c = group.add(device.empty(
                                    (n, p_power), dtype=store_dtype
                                ))
                            except BaseException:
                                group.free_all()
                                raise
                            return group, b, c

                        bufs, dB, dC = with_retry(
                            alloc_power, device, policy, site="eig.alloc",
                            errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                            on_retry=count_retry,
                        )
                        materialize_op()
                        # the random start block uploads once; every later
                        # application stays device-resident
                        device._record_h2d(n * p_power * vs)

                        def apply_block(Bh: np.ndarray) -> np.ndarray:
                            dB.data[...] = Bh  # quantizes to storage dtype
                            with_retry(
                                lambda: spmm_any(A_op, dB, dC),
                                device, policy,
                                site="eig.spmv", on_retry=count_retry,
                            )
                            device.note_elided_transfer(
                                2, 2 * n * p_power * vs
                            )
                            device.charge_kernel(
                                f"cusolver{letter}geqrf[power]",
                                flops=2.0 * n * p_power * p_power,
                                bytes_moved=2.0 * n * p_power * vs,
                                kind="dense",
                            )
                            return np.asarray(
                                dC.data, dtype=np.float64
                            ).copy()
                    else:
                        dB = with_retry(
                            lambda: device.empty(
                                (n, p_power), dtype=store_dtype
                            ),
                            device, policy, site="eig.alloc",
                            errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                            on_retry=count_retry,
                        )
                        bufs.add(dB)
                        dC = with_retry(
                            lambda: device.empty(
                                (n, p_power), dtype=store_dtype
                            ),
                            device, policy, site="eig.alloc",
                            errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                            on_retry=count_retry,
                        )
                        bufs.add(dC)
                        materialize_op()

                        def apply_block(Bh: np.ndarray) -> np.ndarray:
                            nonlocal round_trips

                            def block_roundtrip() -> np.ndarray:
                                # idempotent: dB/dC fully rewritten per call
                                dB.copy_from_host(quantize(Bh, store_dtype))
                                spmm_any(A_op, dB, dC)
                                return dC.copy_to_host()

                            Ch = with_retry(
                                block_roundtrip, device, policy,
                                site="eig.spmv", on_retry=count_retry,
                            )
                            round_trips += 1
                            # the QR panel factorization runs host-side
                            device.charge_cpu(
                                "qr[power]",
                                cpu.blas3_time(2.0 * n * p_power * p_power),
                            )
                            return np.asarray(Ch, dtype=np.float64)

                    theta, U, power_residual, power_applications = (
                        power_embedding(
                            apply_block, n, k, q=q_power, seed=seed,
                            which=which,
                        )
                    )
                    if residency == "device":
                        # Ritz rotation on-device, then U comes down once
                        if n_devices > 1:
                            t_r = device.timeline.clock.now
                            for d, dev in enumerate(all_devices):
                                nd = row_counts[d]
                                dt_r = dev.cost.kernel_time(
                                    2.0 * nd * p_power * k,
                                    (
                                        nd * p_power + p_power * k
                                        + 2.0 * nd * k
                                    ) * float(vs),
                                    kind="dense",
                                )
                                device.timeline.record_at(
                                    f"cublas{letter}gemm[ritz,dev{d}]",
                                    "kernel", t_r, dt_r,
                                )
                                dev.kernel_launches += 1
                                if elide_result_d2h:
                                    dev.note_elided_transfer(1, nd * k * vs)
                                else:
                                    dev._record_d2h_at(nd * k * vs, t_r + dt_r)
                        else:
                            device.charge_kernel(
                                f"cublas{letter}gemm[ritz]",
                                flops=2.0 * n * p_power * k,
                                bytes_moved=(
                                    n * p_power + p_power * k + 2.0 * n * k
                                ) * float(vs),
                                kind="dense",
                            )
                            device._record_d2h(n * k * vs)
                    bufs.free_all()
                    if part is not None:
                        if part is not plan:
                            part.free()
                        part = None
                    break
                except CudaError:
                    if part is not None and part is not plan:
                        part.free()
                    bufs.free_all()
                    drop_op()
                    if not policy.enabled:
                        raise
                    if n_resumes < policy.max_resumes:
                        n_resumes += 1
                        continue
                    if not policy.cpu_fallback:
                        raise
                    # ---- CPU fallback: the whole power solve host-side ---
                    fallback = "cpu"
                    indices = A_solve.indices.data.copy()
                    val = A_solve.val.data.copy()
                    indptr = A_solve.indptr.data.copy()
                    nnz = A_solve.nnz

                    def apply_host(Bh: np.ndarray) -> np.ndarray:
                        # same gathered/reduceat arithmetic as csrmm, with
                        # the storage round trip on both operands, so the
                        # host solve matches the all-GPU one bit for bit
                        Bq = quantize_roundtrip(Bh, store_dtype)
                        gathered = as_f64(val)[:, None] * Bq[indices]
                        row_nnz = np.diff(indptr)
                        nonempty = np.flatnonzero(row_nnz > 0)
                        prod = np.zeros((n, Bh.shape[1]))
                        if nonempty.size:
                            prod[nonempty] = np.add.reduceat(
                                gathered, indptr[nonempty], axis=0
                            )
                        device.charge_cpu(
                            "spmm[host-fallback]",
                            cpu.spmv_time(n, nnz) * Bh.shape[1],
                        )
                        device.charge_cpu(
                            "qr[power]",
                            cpu.blas3_time(2.0 * n * p_power * p_power),
                        )
                        return quantize_roundtrip(prod, store_dtype)

                    theta, U, power_residual, power_applications = (
                        power_embedding(
                            apply_host, n, k, q=q_power, seed=seed,
                            which=which,
                        )
                    )
                    break

        drop_op()
        if embedding == "lanczos":
            # step 3: compute the eigenvectors
            theta, U = prob.find_eigenvectors()
            res = prob.result
            if residency == "device" and fallback is None:
                # restarts were charged inline (charge_restart_device /
                # charge_restart_multi); the Ritz basis assembles
                # on-device, then U comes down once
                letter = kernel_letter(vs)
                if n_devices > 1:
                    # each device rotates its own basis block and ships its
                    # row slice down concurrently; slices sum to exactly
                    # n*k*itemsize
                    def assemble_ritz() -> None:
                        tl = device.timeline
                        t_r = tl.clock.now
                        for d, dev in enumerate(all_devices):
                            nd = row_counts[d]
                            dt = dev.cost.kernel_time(
                                2.0 * nd * prob.m * k,
                                (nd * prob.m + prob.m * k + 2.0 * nd * k)
                                * float(vs),
                                kind="dense",
                            )
                            tl.record_at(
                                f"cublas{letter}gemm[ritz,dev{d}]",
                                "kernel", t_r, dt,
                            )
                            dev.kernel_launches += 1
                            if elide_result_d2h:
                                dev.note_elided_transfer(1, nd * k * vs)
                            else:
                                dev._record_d2h_at(nd * k * vs, t_r + dt)
                else:
                    def assemble_ritz() -> None:
                        device.charge_kernel(
                            f"cublas{letter}gemm[ritz]",
                            flops=2.0 * n * prob.m * k,
                            bytes_moved=(
                                n * prob.m + prob.m * k + 2.0 * n * k
                            ) * float(vs),
                            kind="dense",
                        )
                        device._record_d2h(
                            TransferLedger(
                                n=n, m=prob.m, k=k, itemsize=vs
                            ).result_d2h_bytes()
                        )

                with_retry(
                    assemble_ritz, device, policy,
                    site="eig.result", on_retry=count_retry,
                )
            else:
                for _ in range(res.n_restarts):
                    charge_restart(device, cpu, n, prob.m, k)
                charge_find_eigenvectors(device, cpu, n, prob.m, k)
            n_op_total = res.n_op
            n_restarts_total = res.n_restarts
            n_reorth_total = res.n_reorth
            converged_flag = res.converged
            m_used = prob.m
        else:
            n_op_total = power_applications
            n_restarts_total = 0
            n_reorth_total = q_power
            converged_flag = True
            m_used = p_power

        # ---- fp64 iterative refinement of the reduced-precision solve ----
        # every reduced solve at least *measures* its residual against the
        # full-precision operator; the exact fp64 path skips the pass
        # entirely unless refinement was explicitly requested, preserving
        # bit-identity with pre-precision-axis builds
        refine_residual: float | None = None
        refine_history: list | None = None
        if vs != 8 or refine_eff > 0:
            host_refine = fallback == "cpu"

            def host_apply64(Bh: np.ndarray) -> np.ndarray:
                # same gathered/reduceat arithmetic as csrmm on fp64 A
                gathered = A.val.data[:, None] * Bh[A.indices.data]
                row_nnz = np.diff(A.indptr.data)
                nonempty = np.flatnonzero(row_nnz > 0)
                prod = np.zeros((n, Bh.shape[1]))
                if nonempty.size:
                    prod[nonempty] = np.add.reduceat(
                        gathered, A.indptr.data[nonempty], axis=0
                    )
                device.charge_cpu(
                    "spmm[refine-host]",
                    cpu.spmv_time(n, A.nnz) * Bh.shape[1],
                )
                return prod

            def apply64(Bh: np.ndarray) -> np.ndarray:
                nonlocal host_refine
                if not host_refine:
                    def refine_mm() -> np.ndarray:
                        # idempotent: fresh staging buffers per attempt
                        dBr = device.empty(Bh.shape, dtype=np.float64)
                        try:
                            dBr.copy_from_host(Bh)
                            dCr = csrmm(A, dBr)
                            try:
                                return dCr.copy_to_host()
                            finally:
                                dCr.free()
                        finally:
                            dBr.free()

                    try:
                        return with_retry(
                            refine_mm, device, policy,
                            site="eig.refine", on_retry=count_retry,
                        )
                    except CudaError:
                        if not (policy.enabled and policy.cpu_fallback):
                            raise
                        host_refine = True
                return host_apply64(Bh)

            theta, U, refine_residual, refine_history = refine_eigenpairs(
                apply64, theta, U, steps=refine_eff, which=which,
                target=refine_target,
            )
    wall = time.perf_counter() - t0
    if A_solve is not A:
        A_solve.free()
    transfers_after = _sum_transfer_stats(all_devices)
    observed = _harvest_spmv_times(device, n, A.nnz, events_before)
    format_decision = decision.as_dict() if decision is not None else None
    if format_decision is not None:
        format_decision["observed_spmv_s"] = {
            f: t for f, (t, _c) in observed.items()
        }
        format_decision["n_spmv_timed"] = sum(
            c for (_t, c) in observed.values()
        )
        format_decision["precision"] = precision
        format_decision["value_itemsize"] = vs
    stats = EigStats(
        n_op=n_op_total,
        n_restarts=n_restarts_total,
        n_reorth=n_reorth_total,
        converged=converged_flag,
        m=m_used,
        k=k,
        pcie_round_trips=round_trips,
        wall_seconds=wall,
        n_resumes=n_resumes,
        spmv_retries=spmv_retries,
        fallback=fallback,
        residency=residency,
        spmv_format=fmt,
        bytes_h2d=transfers_after["bytes_h2d"] - transfers_before["bytes_h2d"],
        bytes_d2h=transfers_after["bytes_d2h"] - transfers_before["bytes_d2h"],
        transfers_elided=(
            transfers_after["transfers_elided"]
            - transfers_before["transfers_elided"]
        ),
        bytes_elided=(
            transfers_after["bytes_elided"] - transfers_before["bytes_elided"]
        ),
        transfer_overlap_s=(
            transfers_after["overlap_s"] - transfers_before["overlap_s"]
        ),
        format_decision=format_decision,
        bytes_p2p=transfers_after["bytes_p2p"] - transfers_before["bytes_p2p"],
        n_p2p=transfers_after["n_p2p"] - transfers_before["n_p2p"],
        n_devices=n_devices,
        partition=(
            {
                "row_counts": list(row_counts),
                **(
                    {"bounds": [int(b) for b in bounds]}
                    if bounds is not None
                    else {}
                ),
                "halo_counts": list(ledger_multi.halo_counts),
                "halo_pairs": ledger_multi.halo_pairs,
                "step_halo_bytes": ledger_multi.step_halo_bytes(),
                "shard_upload_bytes": shard_upload_total,
                "n_matvec": n_matvec,
            }
            if n_devices > 1 and ledger_multi is not None
            else None
        ),
        precision=precision,
        embedding=embedding,
        refine_steps=(
            len(refine_history) - 1 if refine_history is not None else 0
        ),
        refine_residual=refine_residual,
        refine_history=refine_history,
        spmv_bytes=(
            sum(d.spmv_traffic_bytes for d in all_devices) - traffic_before
        ),
        spmv_kernel_s=_sum_spmv_kernel_seconds(device, events_before),
    )
    return theta, U, stats


#: name fragments identifying SpMV/SpMM kernels on the timeline (any
#: precision letter, any device suffix) — the byte-traffic meter's twin
_SPMV_KERNEL_SUBSTRINGS = (
    "csrmv", "coomv", "ellmv", "hybmv", "csrmm", "ellmm", "hybmm",
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


#: SpMV kernel event names -> format key.  ``hybmv`` charges two events per
#: product (ELL slab + COO tail); only the ``[ell]`` event counts a product.
_SPMV_EVENT_FORMATS = {
    "cusparseDcsrmv": ("csr", True),
    "cusparseDellmv": ("ell", True),
    "cusparseDhybmv[ell]": ("hyb", True),
    "cusparseDhybmv[coo]": ("hyb", False),
}


def _harvest_spmv_times(
    device: Device, n: int, nnz: int, events_before: int
) -> dict[str, tuple[float, int]]:
    """Record the SpMV kernel times charged during this solve.

    Scans the timeline window the eigensolver stage appended, aggregates
    per-format mean seconds per product, and feeds them back to the
    device's measurement table so the *next* ``autotune_format`` on the
    same operator ranks by observed kernel time instead of the roofline
    prediction.  Returns ``{fmt: (mean_seconds, n_products)}``.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for ev in device.timeline.events[events_before:]:
        hit = _SPMV_EVENT_FORMATS.get(ev.name)
        if hit is None:
            continue
        fmt_name, is_product = hit
        sums[fmt_name] = sums.get(fmt_name, 0.0) + ev.duration
        if is_product:
            counts[fmt_name] = counts.get(fmt_name, 0) + 1
    out: dict[str, tuple[float, int]] = {}
    for fmt_name, total in sums.items():
        n_products = counts.get(fmt_name, 0)
        if n_products == 0:
            continue
        per = total / n_products
        device.note_spmv_time(fmt_name, n, nnz, per)
        out[fmt_name] = (per, n_products)
    return out
