"""Device driver for the compressive embedding tier.

:func:`compressive_embedding` owns everything the placement-agnostic
math in :mod:`repro.compressive.filters` and
:mod:`repro.linalg.spectrum` deliberately doesn't: device buffers and
residency, reduced-precision storage, SpMM format autotuning, the
row-partitioned multi-GPU path, chaos fault handling, and byte-accurate
roofline accounting.  The plumbing mirrors the ``embedding="power"``
branch of :func:`repro.core.workflow.hybrid_eigensolver` — the solve is
pure repeated SpMM, a hard mid-solve fault restarts the whole solve
(the seeded signals make the replay deterministic, so there is nothing
worth checkpointing), and when the device stays unusable the run
finishes host-side with the *same* gathered/reduceat arithmetic, so the
feature sketch matches the all-GPU run bit for bit.

The solve has two phases, both pure block products through one shared
``apply_block`` plumbing:

1. **Spectrum probe** — ``estimate_spectral_interval`` at block width
   ``k + 2`` locates λmax and the mid-gap band edge.
2. **Chebyshev filter** — the order-``p`` step-response polynomial is
   applied to ``d = O(log k)`` seeded random signals; the filtered
   block *is* the spectral feature sketch.

Byte accounting: every SpMM prices through the same roofline byte
expressions the kernels charge to the traffic meter, and the engine
re-derives the analytic plan (``applications × bytes-per-application``
for the materialized format) into ``CompressiveStats.ledger_bytes`` —
tests pin ``ledger == meter`` on clean runs at fp64 and fp32.  Faulted
runs legitimately exceed the ledger: retried and resumed work is real
traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.chaos.retry import (
    DISABLED,
    ResiliencePolicy,
    TRANSIENT_ERRORS,
    with_retry,
)
from repro.chaos.runtime import chaos_check
from repro.compressive.filters import (
    DEFAULT_FILTER_ORDER,
    apply_chebyshev_filter,
    chebyshev_filter_coefficients,
    default_n_signals,
    random_signals,
)
from repro.cuda.device import Device
from repro.cuda.memory import BufferGroup
from repro.cusparse.formats import autotune_spmm_format, convert_for_spmv
from repro.cusparse.matrices import DeviceCSR, cast_csr
from repro.cusparse.partition import (
    device_group,
    partition_csr,
    partition_rows,
    spmm_partitioned,
)
from repro.cusparse.spmm import spmm_any
from repro.errors import CudaError, DeviceMemoryError, EigensolverError
from repro.hw.costmodel import CPUCostModel, GPUCostModel
from repro.hw.spec import CPUSpec, XEON_E5_2690
from repro.linalg.rci import TransferLedger
from repro.linalg.spectrum import (
    SpectrumEstimate,
    default_probe_iterations,
    estimate_spectral_interval,
)
from repro.precision import (
    as_f64,
    kernel_letter,
    quantize,
    quantize_roundtrip,
    resolve_precision,
)

#: relative safety margin widening the Chebyshev domain past the
#: analytic spectral bound — reduced-precision operator storage perturbs
#: eigenvalues by O(unit roundoff · ||A||), and the recurrence must not
#: see points outside [lmin, lmax] (Chebyshev polynomials grow
#: exponentially off-domain)
_DOMAIN_MARGIN = 5e-3

#: operator applications per probe orthonormalization step — the probe
#: iterates on (A + rI)^accel so the shift (needed to keep bipartite
#: negative eigenvalues from poisoning the |λ|-driven block power) does
#: not also flatten the convergence-driving relative gaps near the top
_PROBE_ACCEL = 8


@dataclass
class CompressiveStats:
    """Counters from one compressive embedding solve.

    The resilience / placement / transfer fields carry the same
    contracts as :class:`repro.core.workflow.EigStats` (the pipeline's
    recovery ledger reads them uniformly); the compressive-specific
    fields record the filter configuration and the spectrum-edge
    evidence the probe produced.  ``ledger_bytes`` is the analytic SpMM
    traffic plan; ``spmv_bytes`` is the metered traffic — equal on
    clean runs, meter ≥ ledger when faults forced retries or resumes,
    and ledger 0 when the solve fell back to the host (host products
    move no device memory).
    """

    n_op: int
    converged: bool
    k: int
    filter_order: int
    n_signals: int
    probe_applications: int
    filter_applications: int
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
    #: row-partitioning evidence when ``n_devices > 1``
    partition: dict | None = None
    precision: str = "fp64"
    embedding: str = "compressive"
    #: spectrum-edge evidence from the probe (λmax, λk, band edge, ...)
    spectrum: dict | None = None
    #: modeled SpMV/SpMM device-memory bytes this solve moved (meter)
    spmv_bytes: float = 0.0
    #: analytic traffic plan: Σ applications × bytes-per-application
    ledger_bytes: float = 0.0
    #: summed simulated seconds of the SpMM kernels themselves
    spmv_kernel_s: float = 0.0

    def as_dict(self) -> dict:
        return dict(
            n_op=self.n_op,
            converged=self.converged,
            k=self.k,
            filter_order=self.filter_order,
            n_signals=self.n_signals,
            probe_applications=self.probe_applications,
            filter_applications=self.filter_applications,
            wall_seconds=self.wall_seconds,
            pcie_round_trips=self.pcie_round_trips,
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
            spectrum=self.spectrum,
            spmv_bytes=self.spmv_bytes,
            ledger_bytes=self.ledger_bytes,
            spmv_kernel_s=self.spmv_kernel_s,
        )


def _bytes_per_application(
    cost: GPUCostModel, A_op, fmt: str, n: int, width: int, vs: int
) -> float:
    """Analytic device-memory bytes of one block product at ``width``
    columns through the materialized operator — the exact expressions
    ``csrmm``/``ellmm``/``hybmm`` charge to the traffic meter."""
    if fmt == "ell":
        return cost.ellmm_bytes(n, A_op.nnz, A_op.width, width, vs)
    if fmt == "hyb":
        total = cost.ellmm_bytes(n, A_op.nnz_ell, A_op.width, width, vs)
        if A_op.nnz_coo > 0:
            total += cost.spmm_bytes(n, A_op.nnz_coo, width, vs)
        return total
    return cost.spmm_bytes(n, A_op.nnz, width, vs)


def _bytes_per_application_partitioned(
    cost: GPUCostModel, part, width: int, vs: int
) -> float:
    """Per-application traffic of the row-partitioned SpMM: each shard's
    local product plus its halo-segment product when the shard has one."""
    total = 0.0
    for shard in part.shards:
        total += cost.spmm_bytes(shard.n_rows, shard.nnz_local, width, vs)
        if shard.nnz_halo > 0:
            total += cost.spmm_halo_bytes(
                shard.n_rows, shard.nnz_halo, width, vs
            )
    return total


def compressive_embedding(
    device: Device,
    A: DeviceCSR,
    k: int,
    *,
    filter_order: int | None = None,
    n_signals: int | None = None,
    probe_q: int | None = None,
    seed: int | None = 0,
    which: str = "LA",
    policy: ResiliencePolicy = DISABLED,
    residency: str = "device",
    spmv_format: str = "auto",
    n_devices: int = 1,
    precision: str = "fp64",
    spectral_radius: float = 1.0,
    cpu_spec: CPUSpec = XEON_E5_2690,
) -> tuple[np.ndarray, CompressiveStats]:
    """Compute the compressive spectral feature sketch ``F`` (``n × d``).

    Runs the two-phase solve (spectrum probe, then Chebyshev filtering
    of seeded random signals) on the simulated device, inheriting the
    residency / format / precision / multi-device machinery of the
    hybrid eigensolver.  Unlike the eigensolver drivers this returns no
    eigenvalues: the filtered signals themselves are the embedding —
    row ``i`` of ``F`` is (approximately) the i-th row of ``U_k`` times
    a random rotation/sketch, which preserves the inter-point distances
    k-means consumes (Tremblay et al., Prop. 2).

    Parameters mirror :func:`repro.core.workflow.hybrid_eigensolver`
    where shared; the compressive-specific knobs:

    filter_order:
        Chebyshev polynomial degree ``p`` (default
        ``DEFAULT_FILTER_ORDER``).  Higher = sharper band edge = better
        ARI, at one SpMM per degree.
    n_signals:
        Sketch width ``d`` (default ``max(16, 2k + ceil(2·log2(k+1)))``,
        see :func:`repro.compressive.filters.default_n_signals`).
    probe_q:
        Orthonormalization steps of the spectrum-edge probe (default
        ``max(4, ceil(log2 n))``); each step applies the shifted
        operator ``_PROBE_ACCEL`` times.
    spectral_radius:
        Analytic bound on ``|λ|`` of the operator (the pipeline's
        normalized operators live in ``[-1, 1]``, so 1.0).  The filter
        domain is this bound (or the probed λmax if larger) widened by
        a small safety margin.

    Returns
    -------
    (F, stats):
        The ``(n, d)`` feature sketch (fp64) and the counters.
    """
    if residency not in ("device", "host"):
        raise ValueError(
            f"residency must be one of ('device', 'host'), got {residency!r}"
        )
    if spmv_format not in ("auto", "csr", "ell", "hyb"):
        raise ValueError(
            f"spmv_format must be one of ('auto', 'csr', 'ell', 'hyb'), "
            f"got {spmv_format!r}"
        )
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    if n_devices > 1:
        if residency != "device":
            raise ValueError(
                "n_devices > 1 requires residency='device' (the row-"
                "partitioned shards live on the GPUs)"
            )
        if spmv_format not in ("auto", "csr"):
            raise ValueError(
                "n_devices > 1 stores row blocks as split local/halo CSR; "
                f"spmv_format={spmv_format!r} is not supported"
            )
    n = A.shape[0]
    if k < 1:
        raise EigensolverError(f"compressive embedding needs k >= 1, got {k}")
    if n < k + 2:
        raise EigensolverError(
            f"compressive embedding needs n >= k + 2, got n={n}, k={k}"
        )
    order = int(filter_order) if filter_order is not None else DEFAULT_FILTER_ORDER
    if order < 1:
        raise ValueError(f"filter_order must be >= 1, got {filter_order}")
    d = int(n_signals) if n_signals is not None else default_n_signals(k)
    if d < 1:
        raise ValueError(f"n_signals must be >= 1, got {n_signals}")
    q_probe = int(probe_q) if probe_q is not None else default_probe_iterations(n)
    p_probe = min(n, k + 2)

    store_dtype = resolve_precision(precision)
    vs = store_dtype.itemsize
    letter = kernel_letter(vs)
    cpu = CPUCostModel(cpu_spec)
    t0 = time.perf_counter()
    rows_cache = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr.data))
    A_solve = cast_csr(device, A, store_dtype)

    n_resumes = 0
    spmv_retries = 0
    round_trips = 0
    fallback: str | None = None
    from repro.core.workflow import (
        _sum_spmv_kernel_seconds,
        _sum_transfer_stats,
    )

    transfers_before = device.transfer_stats()
    traffic_before = device.spmv_traffic_bytes

    all_devices = [device]
    bounds: np.ndarray | None = None
    row_sets: list[np.ndarray] | None = None
    row_counts: tuple[int, ...] = ()
    if n_devices > 1:
        all_devices = device_group(device, n_devices)
        row_sets, _, bounds = partition_rows(A.indptr.data, n_devices)
        row_counts = tuple(int(r.size) for r in row_sets)
    shard_upload_total = 0
    n_block_products = 0
    ledger_multi: TransferLedger | None = None

    def count_retry(_attempt: int) -> None:
        nonlocal spmv_retries
        spmv_retries += 1

    events_before = len(device.timeline)
    est: SpectrumEstimate | None = None
    filter_applications = 0
    ledger_bytes = 0.0
    partition_info: dict | None = None

    with device.stage("eigensolver"):
        # ---- SpMM format selection ---------------------------------------
        # both phases are pure block products; rank candidates by the
        # filter-width kernels (the dominant phase) and amortize the
        # conversion over every application the solve will perform
        decision = None
        fmt = spmv_format
        if fmt == "auto":
            if n_devices > 1:
                fmt = "csr"
            else:
                decision = autotune_spmm_format(
                    A.indptr.data, device.cost, d,
                    conversion_uses=(q_probe + 1) * _PROBE_ACCEL + order,
                    itemsize=vs,
                )
                fmt = decision.format
        A_op = A_solve

        def materialize_op() -> None:
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

        def charge_probe_panel(width: int) -> None:
            # per-application QR panel factorization of the probe block
            device.charge_kernel(
                f"cusolver{letter}geqrf[probe]",
                flops=2.0 * n * width * width,
                bytes_moved=2.0 * n * width * vs,
                kind="dense",
            )

        def charge_filter_axpy(width: int) -> None:
            # per-application three-term recurrence update: one fused
            # scale-subtract-accumulate sweep over the block
            device.charge_kernel(
                f"cublas{letter}axpy[cheb]",
                flops=3.0 * n * width,
                bytes_moved=5.0 * n * width * vs,
                kind="stream",
            )

        def charge_probe_panel_multi(width: int) -> None:
            # TSQR-style panel factorization, one geqrf per device
            tq = device.timeline.clock.now
            for dd, dev in enumerate(all_devices):
                nd = row_counts[dd]
                dtq = dev.cost.kernel_time(
                    2.0 * nd * width * width,
                    2.0 * nd * width * vs,
                    kind="dense",
                )
                device.timeline.record_at(
                    f"cusolver{letter}geqrf[probe,dev{dd}]",
                    "kernel", tq, dtq,
                )
                dev.kernel_launches += 1

        def charge_filter_axpy_multi(width: int) -> None:
            ta = device.timeline.clock.now
            for dd, dev in enumerate(all_devices):
                nd = row_counts[dd]
                dta = dev.cost.kernel_time(
                    3.0 * nd * width,
                    5.0 * nd * width * vs,
                    kind="stream",
                )
                device.timeline.record_at(
                    f"cublas{letter}axpy[cheb,dev{dd}]",
                    "kernel", ta, dta,
                )
                dev.kernel_launches += 1

        def run_phases(apply_factory) -> np.ndarray:
            """Run probe + filter through per-phase apply closures.

            ``apply_factory(width, extra, site)`` yields an
            ``apply_block`` for a block of ``width`` columns; ``extra``
            is the per-application dense-update charge and ``site`` the
            chaos fault site guarding each application (None = only the
            kernels' own cusparse sites).
            """
            nonlocal est, filter_applications
            # ---- phase A: spectrum-edge probe ----------------------------
            # Probe the shifted operator A + rI (spectrum in [0, 2r]):
            # block power converges on the largest-|λ| subspace, and the
            # near-bipartite eigenvalues these normalized operators carry
            # close to -1 would otherwise poison the band-edge estimate.
            # The power acceleration restores the relative gaps the
            # shift compresses (see estimate_spectral_interval).
            with apply_factory(p_probe, "probe", None) as apply_probe:
                est = estimate_spectral_interval(
                    apply_probe, n, k, q=q_probe, seed=seed, which=which,
                    shift=float(spectral_radius), accel=_PROBE_ACCEL,
                )
            # the filter domain: the analytic bound (or probed λmax if
            # the quantized operator crept past it), widened by a margin
            dom = max(float(spectral_radius), est.lambda_max)
            dom *= 1.0 + _DOMAIN_MARGIN
            coeffs = chebyshev_filter_coefficients(
                order, est.band_edge, lmin=-dom, lmax=dom,
            )
            R = random_signals(n, d, seed)
            # ---- phase B: Chebyshev filtering of the random signals ------
            with apply_factory(d, "filter", "compressive.filter") as apply_f:
                Y, filter_applications = apply_chebyshev_filter(
                    apply_f, R, coeffs, lmin=-dom, lmax=dom,
                )
            return Y

        while True:
            part = None
            phase_bufs = BufferGroup()
            try:
                if n_devices > 1:
                    part = partition_csr(
                        A_solve, all_devices, rows_cache=rows_cache,
                        row_sets=row_sets,
                    )
                    shard_upload_total += part.shard_upload_bytes
                    P = part

                    class _MultiPhase:
                        def __init__(self, width, kind, site):
                            self.width = width
                            self.kind = kind
                            self.site = site

                        def __enter__(self):
                            nonlocal ledger_multi
                            width, site = self.width, self.site
                            extra = (
                                charge_probe_panel_multi
                                if self.kind == "probe"
                                else charge_filter_axpy_multi
                            )
                            for dd, dev in enumerate(all_devices):
                                nd = row_counts[dd]
                                phase_bufs.add(
                                    dev.empty((nd, width), dtype=store_dtype)
                                )
                                phase_bufs.add(
                                    dev.empty((nd, width), dtype=store_dtype)
                                )
                            ledger_multi = TransferLedger(
                                n=n, m=width, k=k, itemsize=vs,
                                n_devices=n_devices,
                                halo_counts=part.halo_counts,
                                halo_pairs=part.halo_pairs,
                                row_counts=row_counts,
                            )
                            # scatter the seed block, one row slab per
                            # device, concurrently
                            t_seed = device.timeline.clock.now
                            for dev, nbytes in zip(
                                all_devices,
                                ledger_multi.shard_split(n * width * vs),
                            ):
                                if nbytes:
                                    dev._record_h2d_at(nbytes, t_seed)

                            def apply_block(Bh: np.ndarray) -> np.ndarray:
                                nonlocal n_block_products

                                def partitioned_mm() -> np.ndarray:
                                    if site is not None:
                                        chaos_check(site, device)
                                    Bq = quantize_roundtrip(Bh, store_dtype)
                                    return spmm_partitioned(P, Bq)

                                Zh = with_retry(
                                    partitioned_mm, device, policy,
                                    site="eig.spmv", on_retry=count_retry,
                                )
                                Z = quantize_roundtrip(Zh, store_dtype)
                                n_block_products += width
                                device.note_elided_transfer(
                                    2, 2 * n * width * vs
                                )
                                extra(width)
                                return Z

                            return apply_block

                        def __exit__(self, *exc):
                            phase_bufs.free_all()
                            return False

                    Y = run_phases(_MultiPhase)
                    # each device ships its row slice of the sketch down
                    # concurrently; slices sum to exactly n*d*itemsize
                    t_r = device.timeline.clock.now
                    for dd, dev in enumerate(all_devices):
                        nd = row_counts[dd]
                        dev._record_d2h_at(nd * d * vs, t_r)
                    bpa_probe = _bytes_per_application_partitioned(
                        device.cost, part, p_probe, vs
                    )
                    bpa_filter = _bytes_per_application_partitioned(
                        device.cost, part, d, vs
                    )
                    ledger_bytes = (
                        est.n_applications * bpa_probe
                        + filter_applications * bpa_filter
                    )
                    partition_info = {
                        "row_counts": list(row_counts),
                        **(
                            {"bounds": [int(b) for b in bounds]}
                            if bounds is not None
                            else {}
                        ),
                        "halo_counts": list(part.halo_counts),
                        "halo_pairs": part.halo_pairs,
                        "shard_upload_bytes": shard_upload_total,
                        "n_matvec": n_block_products,
                    }
                    part.free()
                    part = None
                elif residency == "device":
                    materialize_op()

                    class _DevicePhase:
                        def __init__(self, width, kind, site):
                            self.width = width
                            self.kind = kind
                            self.site = site

                        def __enter__(self):
                            width, site = self.width, self.site
                            extra = (
                                charge_probe_panel
                                if self.kind == "probe"
                                else charge_filter_axpy
                            )

                            def alloc_pair():
                                group = BufferGroup()
                                try:
                                    b = group.add(device.empty(
                                        (n, width), dtype=store_dtype
                                    ))
                                    c = group.add(device.empty(
                                        (n, width), dtype=store_dtype
                                    ))
                                except BaseException:
                                    group.free_all()
                                    raise
                                return group, b, c

                            self.group, dB, dC = with_retry(
                                alloc_pair, device, policy, site="eig.alloc",
                                errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                                on_retry=count_retry,
                            )
                            # the seed block uploads once; every later
                            # application stays device-resident
                            device._record_h2d(n * width * vs)

                            def apply_block(Bh: np.ndarray) -> np.ndarray:
                                dB.data[...] = Bh  # quantizes to storage

                                def resident_mm() -> None:
                                    if site is not None:
                                        chaos_check(site, device)
                                    spmm_any(A_op, dB, dC)

                                with_retry(
                                    resident_mm, device, policy,
                                    site="eig.spmv", on_retry=count_retry,
                                )
                                device.note_elided_transfer(
                                    2, 2 * n * width * vs
                                )
                                extra(width)
                                return np.asarray(
                                    dC.data, dtype=np.float64
                                ).copy()

                            return apply_block

                        def __exit__(self, *exc):
                            self.group.free_all()
                            return False

                    Y = run_phases(_DevicePhase)
                    # the feature sketch comes down once
                    device._record_d2h(n * d * vs)
                    bpa = lambda w: _bytes_per_application(
                        device.cost, A_op, fmt, n, w, vs
                    )
                    ledger_bytes = (
                        est.n_applications * bpa(p_probe)
                        + filter_applications * bpa(d)
                    )
                else:
                    materialize_op()

                    class _HostPhase:
                        def __init__(self, width, kind, site):
                            self.width = width
                            self.kind = kind
                            self.site = site

                        def __enter__(self):
                            width, site = self.width, self.site
                            kind = self.kind
                            self.group = BufferGroup()
                            dB = with_retry(
                                lambda: device.empty(
                                    (n, width), dtype=store_dtype
                                ),
                                device, policy, site="eig.alloc",
                                errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                                on_retry=count_retry,
                            )
                            self.group.add(dB)
                            dC = with_retry(
                                lambda: device.empty(
                                    (n, width), dtype=store_dtype
                                ),
                                device, policy, site="eig.alloc",
                                errors=TRANSIENT_ERRORS + (DeviceMemoryError,),
                                on_retry=count_retry,
                            )
                            self.group.add(dC)

                            def apply_block(Bh: np.ndarray) -> np.ndarray:
                                nonlocal round_trips

                                def block_roundtrip() -> np.ndarray:
                                    # idempotent: dB/dC fully rewritten
                                    if site is not None:
                                        chaos_check(site, device)
                                    dB.copy_from_host(
                                        quantize(Bh, store_dtype)
                                    )
                                    spmm_any(A_op, dB, dC)
                                    return dC.copy_to_host()

                                Ch = with_retry(
                                    block_roundtrip, device, policy,
                                    site="eig.spmv", on_retry=count_retry,
                                )
                                round_trips += 1
                                # the dense block update runs host-side
                                if kind == "probe":
                                    device.charge_cpu(
                                        "qr[probe]",
                                        cpu.blas3_time(
                                            2.0 * n * width * width
                                        ),
                                    )
                                else:
                                    device.charge_cpu(
                                        "axpy[cheb]",
                                        cpu.blas1_time(5.0 * n * width * 8.0),
                                    )
                                return np.asarray(Ch, dtype=np.float64)

                            return apply_block

                        def __exit__(self, *exc):
                            self.group.free_all()
                            return False

                    Y = run_phases(_HostPhase)
                    bpa = lambda w: _bytes_per_application(
                        device.cost, A_op, fmt, n, w, vs
                    )
                    ledger_bytes = (
                        est.n_applications * bpa(p_probe)
                        + filter_applications * bpa(d)
                    )
                break
            except CudaError:
                if part is not None:
                    part.free()
                phase_bufs.free_all()
                drop_op()
                if not policy.enabled:
                    raise
                if n_resumes < policy.max_resumes:
                    # the whole solve restarts: the seeded probe block
                    # and random signals make the replay deterministic
                    n_resumes += 1
                    continue
                if not policy.cpu_fallback:
                    raise
                # ---- CPU fallback: the whole solve host-side -------------
                fallback = "cpu"
                indices = A_solve.indices.data.copy()
                val = A_solve.val.data.copy()
                indptr = A_solve.indptr.data.copy()
                nnz = A_solve.nnz

                class _FallbackPhase:
                    def __init__(self, width, kind, site):
                        self.width = width
                        self.kind = kind

                    def __enter__(self):
                        width, kind = self.width, self.kind

                        def apply_host(Bh: np.ndarray) -> np.ndarray:
                            # same gathered/reduceat arithmetic as csrmm,
                            # with the storage round trip on both
                            # operands, so the host sketch matches the
                            # all-GPU one bit for bit
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
                            if kind == "probe":
                                device.charge_cpu(
                                    "qr[probe]",
                                    cpu.blas3_time(2.0 * n * width * width),
                                )
                            else:
                                device.charge_cpu(
                                    "axpy[cheb]",
                                    cpu.blas1_time(5.0 * n * width * 8.0),
                                )
                            return quantize_roundtrip(prod, store_dtype)

                        return apply_host

                    def __exit__(self, *exc):
                        return False

                Y = run_phases(_FallbackPhase)
                ledger_bytes = 0.0
                break

        drop_op()
    wall = time.perf_counter() - t0
    if A_solve is not A:
        A_solve.free()
    transfers_after = _sum_transfer_stats(all_devices)
    format_decision = decision.as_dict() if decision is not None else None
    if format_decision is not None:
        format_decision["precision"] = precision
        format_decision["value_itemsize"] = vs
    stats = CompressiveStats(
        n_op=est.n_applications + filter_applications,
        converged=True,
        k=k,
        filter_order=order,
        n_signals=d,
        probe_applications=est.n_applications,
        filter_applications=filter_applications,
        wall_seconds=wall,
        pcie_round_trips=round_trips,
        n_resumes=n_resumes,
        spmv_retries=spmv_retries,
        fallback=fallback,
        residency=residency,
        spmv_format=fmt,
        bytes_h2d=transfers_after["bytes_h2d"] - transfers_before["bytes_h2d"],
        bytes_d2h=transfers_after["bytes_d2h"] - transfers_before["bytes_d2h"],
        bytes_p2p=transfers_after["bytes_p2p"] - transfers_before["bytes_p2p"],
        n_p2p=transfers_after["n_p2p"] - transfers_before["n_p2p"],
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
        n_devices=n_devices,
        partition=partition_info,
        precision=precision,
        spectrum=est.as_dict(),
        spmv_bytes=(
            sum(dv.spmv_traffic_bytes for dv in all_devices) - traffic_before
        ),
        ledger_bytes=ledger_bytes,
        spmv_kernel_s=_sum_spmv_kernel_seconds(device, events_before),
    )
    return np.asarray(Y, dtype=np.float64), stats
