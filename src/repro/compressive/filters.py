"""Chebyshev graph-filter engine (Tremblay et al., *Compressive Spectral
Clustering*).

The compressive tier never forms eigenvectors.  It approximates the
action of the ideal low-pass filter ``H = U_k U_kᵀ`` (the projector onto
the clustering-relevant end of the operator's spectrum) by a degree-``p``
Chebyshev polynomial in the operator, applied to a block of ``d =
O(log k)`` random signals:

    ``H R  ≈  Σ_j c_j T_j(Ã) R``

where ``Ã`` is the operator affinely mapped onto ``[-1, 1]`` and the
``c_j`` are the Chebyshev expansion coefficients of the ideal step
response, tapered by Jackson damping to suppress the Gibbs overshoot at
the band edge.  Evaluating the three-term recurrence costs exactly one
SpMM per degree — pure repeated block products, the substrate PRs 3–6
already optimized.

Everything here is placement-agnostic (the operator is only touched
through ``apply_block``), deterministic, and precision-oblivious: the
driver in :mod:`repro.compressive.engine` owns devices, faults, byte
accounting and storage width, exactly as :mod:`repro.linalg.power` does
for the power embedding.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import EigensolverError

#: default Chebyshev polynomial degree; order 48 keeps the transition
#: band a few percent of the spectral interval, sharp enough that a
#: mid-gap cutoff on clusterable graphs passes the k-band essentially
#: untouched while the stop band is attenuated below the sampling noise
DEFAULT_FILTER_ORDER = 48

#: RNG stream tag separating the filter's random signals from the
#: spectrum probe's start block (both derive from the request seed)
_SIGNAL_STREAM = 0xC5C


def default_n_signals(k: int) -> int:
    """Default sketch width ``d = 2k + O(log k)``, floored at 16.

    Tremblay et al.'s asymptotic ``d = O(log k)`` is optimistic at bench
    scales: the sketch must preserve the *geometry* of a k-dimensional
    subspace through a random projection, and at ``d ≈ log k`` the
    Johnson–Lindenstrauss distortion (``~1/sqrt(d)``) eats the inter-
    cluster margins k-means needs once k grows past a handful.  A width
    of ``2k`` plus a logarithmic cushion restores the margins (measured:
    k=20 SBM recovers the exact path's ARI at d=48 but loses ~12% at
    d=27) while keeping the filter cost far below the ``k`` full
    eigenvectors the exact path computes."""
    return max(16, 2 * k + int(math.ceil(2.0 * math.log2(k + 1))))


def random_signals(n: int, d: int, seed: int | None = 0) -> np.ndarray:
    """The seeded ``(n, d)`` random signal block, scaled by ``1/sqrt(d)``.

    Derivation is *request-seeded but stream-separated*: the generator is
    spawned from ``(seed, _SIGNAL_STREAM)`` so the signals are decoupled
    from the spectrum probe's ``default_rng(seed)`` start block while
    still being a pure function of the request-level ``random_state`` —
    same seed, same signals, same labels, cache-safe.
    """
    if seed is None:
        rng = np.random.default_rng()
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=int(seed), spawn_key=(_SIGNAL_STREAM,)
            )
        )
    return rng.standard_normal((n, d)) / math.sqrt(d)


def jackson_damping(order: int) -> np.ndarray:
    """Jackson kernel coefficients ``g_0..g_order``.

    The optimal positive damping for Chebyshev expansions of
    discontinuous responses: multiplying ``c_j`` by ``g_j`` turns the
    oscillating Gibbs overshoot into a monotone transition of width
    ``O(1/order)`` around the cutoff.
    """
    N = order + 1
    j = np.arange(N, dtype=np.float64)
    a = math.pi / (N + 1)
    return (
        (N - j + 1) * np.cos(a * j) + np.sin(a * j) / math.tan(a)
    ) / (N + 1)


def chebyshev_filter_coefficients(
    order: int,
    band_edge: float,
    lmin: float = -1.0,
    lmax: float = 1.0,
    damping: str = "jackson",
) -> np.ndarray:
    """Chebyshev expansion of the ideal step response on ``[lmin, lmax]``.

    The target is ``h(λ) = 1`` for ``λ >= band_edge`` and ``0`` below —
    the pass band is the *top* of the spectrum because the pipeline's
    operators (``D^{-1/2}WD^{-1/2}`` / ``D⁻¹W``) put the clustering
    subspace at the largest eigenvalues; on the Laplacian this is exactly
    Tremblay's ideal *low-pass* ``λ(L) <= λ_k``.

    Coefficients come from the exact Chebyshev–Gauss quadrature at
    ``order + 1`` nodes (exact for integrands of this degree), optionally
    tapered by :func:`jackson_damping`.
    """
    if order < 1:
        raise EigensolverError(f"filter order must be >= 1, got {order}")
    if not lmin < band_edge < lmax:
        raise EigensolverError(
            f"band edge {band_edge} outside the spectral interval "
            f"({lmin}, {lmax})"
        )
    if damping not in ("jackson", "none"):
        raise EigensolverError(
            f"damping must be 'jackson' or 'none', got {damping!r}"
        )
    N = order + 1
    theta = math.pi * (np.arange(N, dtype=np.float64) + 0.5) / N
    nodes = np.cos(theta)  # Chebyshev–Gauss nodes on [-1, 1]
    lam = 0.5 * (lmax + lmin) + 0.5 * (lmax - lmin) * nodes
    h = (lam >= band_edge).astype(np.float64)
    j = np.arange(N, dtype=np.float64)
    c = (2.0 / N) * (np.cos(np.outer(j, theta)) @ h)
    c[0] *= 0.5
    if damping == "jackson":
        c *= jackson_damping(order)
    return c


def filter_response(
    coeffs: np.ndarray,
    lam: np.ndarray,
    lmin: float = -1.0,
    lmax: float = 1.0,
) -> np.ndarray:
    """Evaluate the filter polynomial at eigenvalues ``lam`` (evidence/
    tests): the scalar twin of :func:`apply_chebyshev_filter`."""
    lam = np.asarray(lam, dtype=np.float64)
    x = (2.0 * lam - (lmax + lmin)) / (lmax - lmin)
    t_prev = np.ones_like(x)
    out = coeffs[0] * t_prev
    if len(coeffs) > 1:
        t_cur = x.copy()
        out = out + coeffs[1] * t_cur
        for cj in coeffs[2:]:
            t_next = 2.0 * x * t_cur - t_prev
            out = out + cj * t_next
            t_prev, t_cur = t_cur, t_next
    return out


def apply_chebyshev_filter(
    apply_block: Callable[[np.ndarray], np.ndarray],
    R: np.ndarray,
    coeffs: np.ndarray,
    lmin: float = -1.0,
    lmax: float = 1.0,
) -> tuple[np.ndarray, int]:
    """``Y = Σ_j c_j T_j(Ã) R`` by the three-term recurrence.

    ``Ã = (2A - (lmax+lmin)I) / (lmax - lmin)`` maps the operator's
    spectrum into ``[-1, 1]``; each recurrence step costs exactly one
    ``apply_block`` (an SpMM on the device paths), so a degree-``p``
    filter is ``p`` operator applications — no orthogonalization, no
    restarts, no extra memory beyond the three-term window.

    The recurrence updates the fresh product block, ``Y`` and one scratch
    block in place, applying the out-of-place expressions' operations in
    their order, so every bit of ``Y`` is theirs.

    Returns ``(Y, n_applications)``.
    """
    scale = lmax - lmin
    if scale <= 0:
        raise EigensolverError(
            f"degenerate spectral interval [{lmin}, {lmax}]"
        )
    alpha = 0.5 * (lmax + lmin)
    beta = 0.5 * scale
    R = np.asarray(R, dtype=np.float64)
    n_applications = 0
    t_prev = R
    Y = coeffs[0] * R
    if len(coeffs) == 1:
        return Y, n_applications
    scratch = np.empty_like(Y)
    # t_cur = (A R - alpha R) / beta
    t_cur = _own(apply_block(R), R, Y)
    n_applications += 1
    np.subtract(t_cur, np.multiply(alpha, R, out=scratch), out=t_cur)
    np.divide(t_cur, beta, out=t_cur)
    # Y = Y + c_1 t_cur
    np.add(Y, np.multiply(coeffs[1], t_cur, out=scratch), out=Y)
    for cj in coeffs[2:]:
        # t_next = 2 (A t_cur - alpha t_cur) / beta - t_prev
        t_next = _own(apply_block(t_cur), t_prev, t_cur, Y)
        n_applications += 1
        np.subtract(t_next, np.multiply(alpha, t_cur, out=scratch), out=t_next)
        np.multiply(2.0, t_next, out=t_next)
        np.divide(t_next, beta, out=t_next)
        np.subtract(t_next, t_prev, out=t_next)
        # Y = Y + c_j t_next
        np.add(Y, np.multiply(cj, t_next, out=scratch), out=Y)
        t_prev, t_cur = t_cur, t_next
    return Y, n_applications


def _own(Z, *live: np.ndarray) -> np.ndarray:
    """An ``apply_block`` product as an fp64 block the recurrence may
    overwrite: ``Z`` itself when it is a writable fp64 array sharing no
    memory with a ``live`` block, else an fp64 copy (the upcast the
    out-of-place expression would have made)."""
    Z = np.asarray(Z)
    if (
        Z.dtype != np.float64 or not Z.flags.writeable
        or any(np.may_share_memory(Z, a) for a in live)
    ):
        Z = np.array(Z, dtype=np.float64)
    return Z
