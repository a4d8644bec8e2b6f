"""Givens rotations and the implicit shifted QR sweep.

These are the building blocks of ARPACK's restart machinery: the IRLM
applies its exact shifts with :func:`implicit_qr_sweep`, a bulge chase of
:func:`givens` rotations on the projected tridiagonal matrix.
"""

from __future__ import annotations

import numpy as np


def givens(a: float, b: float) -> tuple[float, float, float]:
    """Compute a Givens rotation ``(c, s, r)`` with::

        [ c  s] [a]   [r]
        [-s  c] [b] = [0]

    Uses the hypot-stable formulation.
    """
    if b == 0.0:
        return 1.0, 0.0, a
    if a == 0.0:
        return 0.0, 1.0, b
    # scale by the larger magnitude so subnormal/overflowing inputs stay
    # well-conditioned (LAPACK dlartg-style)
    scale = max(abs(a), abs(b))
    a1 = a / scale
    b1 = b / scale
    r1 = float(np.hypot(a1, b1))
    return a1 / r1, b1 / r1, scale * r1


def implicit_qr_sweep(T: np.ndarray, mu: float, Q: np.ndarray) -> None:
    """One *implicit* shifted QR sweep on a symmetric tridiagonal matrix.

    Performs, in place, the transformation ``T <- Pᵀ T P`` where ``P`` is
    the orthogonal factor of the QR factorization of ``T - mu I``, without
    ever forming the (possibly singular) shifted matrix: a Givens rotation
    determined by the first column starts a bulge that subsequent rotations
    chase off the band (Golub & Van Loan Alg. 8.3.2).  ``Q <- Q P`` is
    accumulated in place.  Numerically stable for exact shifts, which is
    what the IRAM polynomial filter applies.

    Parameters
    ----------
    T:
        Dense symmetric tridiagonal ``(m, m)`` array, modified in place.
        Only the tridiagonal band is referenced and written (plus the
        transient bulge).
    mu:
        The shift.
    Q:
        ``(m, m)`` accumulation matrix, updated in place.
    """
    m = T.shape[0]
    if m < 2:
        return
    x = T[0, 0] - mu
    z = T[1, 0]
    for i in range(m - 1):
        c, s, _ = givens(x, z)
        # rows/cols touched by the plane rotation in (i, i+1)
        lo = max(0, i - 1)
        hi = min(m, i + 3)
        G = np.array([[c, s], [-s, c]])
        T[i : i + 2, lo:hi] = G @ T[i : i + 2, lo:hi]
        T[lo:hi, i : i + 2] = T[lo:hi, i : i + 2] @ G.T
        # accumulate Q <- Q @ Gᵀ (columns i, i+1)
        qi = Q[:, i].copy()
        qj = Q[:, i + 1]
        Q[:, i] = c * qi + s * qj
        Q[:, i + 1] = -s * qi + c * qj
        if i < m - 2:
            x = T[i + 1, i]
            z = T[i + 2, i]
    # scrub the transient bulge entries left by rounding
    if m > 2:
        idx = np.arange(m - 2)
        T[idx + 2, idx] = 0.0
        T[idx, idx + 2] = 0.0
