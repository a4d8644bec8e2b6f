"""Device driver for the compressive embedding tier.

:func:`compressive_embedding` owns everything the placement-agnostic
math in :mod:`repro.compressive.filters` and
:mod:`repro.linalg.spectrum` deliberately doesn't, by driving them over
the same :class:`~repro.core.workflow.PlacedOperator` the hybrid
eigensolver uses: device buffers and residency, reduced-precision
storage, SpMM format autotuning, the row-partitioned multi-GPU path,
chaos fault handling, and byte-accurate roofline accounting all come
from the placement.  The solve is pure repeated SpMM, so a hard
mid-solve fault restarts the whole solve (the seeded signals make the
replay deterministic, so there is nothing worth checkpointing), and when
the device stays unusable the run finishes on the CPU placement with
the *same* gathered/reduceat arithmetic, so the feature sketch matches
the all-GPU run bit for bit.

The solve has two phases, both pure block products:

1. **Spectrum probe** — ``estimate_spectral_interval`` at block width
   ``k + 2`` locates λmax and the mid-gap band edge.
2. **Chebyshev filter** — the order-``p`` step-response polynomial is
   applied to ``d = O(log k)`` seeded random signals; the filtered
   block *is* the spectral feature sketch.

Byte accounting: every SpMM prices through the same roofline byte
expressions the kernels charge to the traffic meter, and the placement
adds its analytic bytes per application for every completed device
product into ``CompressiveStats.ledger_bytes`` — so the ledger equals
the meter on every run, faulted ones included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chaos.retry import DISABLED, ResiliencePolicy
from repro.compressive.filters import (
    DEFAULT_FILTER_ORDER,
    apply_chebyshev_filter,
    chebyshev_filter_coefficients,
    default_n_signals,
    random_signals,
)
from repro.core.workflow import (
    PlacedOperator,
    Solve,
    SolveStats,
    check_placement,
    place_operator,
    run_placed,
)
from repro.cuda.device import Device
# convert_for_spmv/spmm_any stay importable here because
# perfbench/tracer.py wraps them here; the placements call them through
# repro.core.workflow
from repro.cusparse.formats import (  # noqa: F401
    autotune_spmm_format,
    convert_for_spmv,
)
from repro.cusparse.matrices import DeviceCSR
from repro.cusparse.spmm import spmm_any  # noqa: F401
from repro.errors import EigensolverError
from repro.hw.spec import CPUSpec, XEON_E5_2690
from repro.linalg.spectrum import (
    SpectrumEstimate,
    default_probe_iterations,
    estimate_spectral_interval,
)
from repro.precision import resolve_precision

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


@dataclass(kw_only=True)
class CompressiveStats(SolveStats):
    """Counters from one compressive embedding solve.

    The shared :class:`~repro.core.workflow.SolveStats` fields carry the
    same contracts as the eigensolver's (the pipeline's recovery ledger
    reads them uniformly); the compressive-specific fields record the
    filter configuration and the spectrum-edge evidence the probe
    produced.  ``ledger_bytes`` is the analytic SpMM traffic plan — bytes
    per application summed over every completed device product, in
    failed attempts too — and equals the metered ``spmv_bytes``.
    """

    embedding: str = "compressive"
    filter_order: int
    n_signals: int
    probe_applications: int
    filter_applications: int
    #: spectrum-edge evidence from the probe (λmax, λk, band edge, ...)
    spectrum: dict | None = None
    #: analytic traffic plan: Σ applications × bytes-per-application
    ledger_bytes: float = 0.0


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
    of seeded random signals) as one driver over the
    :class:`~repro.core.workflow.PlacedOperator` that ``residency`` /
    ``n_devices`` select — host round trip, GPU-resident, row-partitioned
    or, after the device stays unusable, the CPU fallback — so residency,
    format, precision, multi-device and fault handling are exactly the
    hybrid eigensolver's.  Unlike the eigensolver drivers this returns no
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
    check_placement(residency, spmv_format, n_devices)
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
    vs = resolve_precision(precision).itemsize
    s = Solve(device, A, k, precision, policy, cpu_spec)

    def phase(pl: PlacedOperator, width: int, op: str, tag: str, site, run):
        """Run one phase of block products at ``width`` columns: ``op`` is
        the dense per-application update, ``site`` the chaos site
        guarding each product (None = only the kernels' own sites)."""
        pl.workspace(width)
        try:
            # the seed block uploads once; every later application stays
            # wherever the placement keeps its operands
            pl.upload(n * width * vs)

            def apply_block(B: np.ndarray) -> np.ndarray:
                Z = pl.apply(B, site)
                pl.dense(op, tag, width)
                return Z

            return run(apply_block)
        finally:
            pl.free_workspace()

    def sketch(pl: PlacedOperator):
        pl.prepare()
        # ---- phase A: spectrum-edge probe --------------------------------
        # Probe the shifted operator A + rI (spectrum in [0, 2r]): block
        # power converges on the largest-|λ| subspace, and the
        # near-bipartite eigenvalues these normalized operators carry close
        # to -1 would otherwise poison the band-edge estimate.  The power
        # acceleration restores the relative gaps the shift compresses
        # (see estimate_spectral_interval).
        est: SpectrumEstimate = phase(
            pl, p_probe, "qr", "probe", None,
            lambda apply: estimate_spectral_interval(
                apply, n, k, q=q_probe, seed=seed, which=which,
                shift=float(spectral_radius), accel=_PROBE_ACCEL,
            ),
        )
        # the filter domain: the analytic bound (or probed λmax if the
        # quantized operator crept past it), widened by a margin
        dom = max(float(spectral_radius), est.lambda_max)
        dom *= 1.0 + _DOMAIN_MARGIN
        coeffs = chebyshev_filter_coefficients(
            order, est.band_edge, lmin=-dom, lmax=dom,
        )
        R = random_signals(n, d, seed)
        # ---- phase B: Chebyshev filtering of the random signals ----------
        Y, filter_applications = phase(
            pl, d, "axpy", "cheb", "compressive.filter",
            lambda apply: apply_chebyshev_filter(
                apply, R, coeffs, lmin=-dom, lmax=dom,
            ),
        )
        # the feature sketch comes down once
        pl.download(d)
        pl.release()
        return est, Y, filter_applications

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
        pl = place_operator(s, residency, n_devices, fmt, decision)
        _, (est, Y, filter_applications) = run_placed(s, pl, sketch)
    shared = s.stats_fields(pl, "compressive", {})
    partition = shared.pop("partition")
    if partition is not None and s.fallback is None:
        # the tier reports the partition that produced the sketch, without
        # the eigensolver's per-step halo plan
        partition.pop("step_halo_bytes")
    else:
        partition = None
    stats = CompressiveStats(
        n_op=est.n_applications + filter_applications,
        converged=True,
        k=k,
        filter_order=order,
        n_signals=d,
        probe_applications=est.n_applications,
        filter_applications=filter_applications,
        spectrum=est.as_dict(),
        ledger_bytes=s.ledger_bytes,
        partition=partition,
        **shared,
    )
    return np.asarray(Y, dtype=np.float64), stats
