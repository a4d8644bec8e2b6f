"""Givens rotations and the implicit shifted QR sweep.

These are the building blocks of ARPACK's restart machinery: the IRLM
applies its exact shifts with :func:`implicit_qr_sweep`, a pipelined bulge
chase of Givens rotations on the projected tridiagonal matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import EigensolverError

#: Steps between two consecutive shifts' chases: rotation ``i`` of shift
#: ``s`` runs at step ``i + LAG * s``.  Rotation ``i`` reads and writes only
#: rows and columns ``i, i+1`` of the window ``[i-1, i+2]²`` of ``T`` (and
#: columns ``i, i+1`` of ``Q``).  Those crosses are disjoint three planes
#: apart (the windows share a corner neither rotation touches), so the
#: rotations of one step touch disjoint elements, and every element sees
#: its rotations in the order of a shift-by-shift sweep.
LAG = 3


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


def _rotate_edge(T: np.ndarray, i: int, c: float, s: float) -> np.ndarray:
    """Apply rotation ``i`` to ``T`` where its window is cut by the border;
    return its ``G``."""
    m = T.shape[0]
    lo = max(0, i - 1)
    hi = min(m, i + 3)
    G = np.array([[c, s], [-s, c]])
    T[i : i + 2, lo:hi] = G @ T[i : i + 2, lo:hi]
    T[lo:hi, i : i + 2] = T[lo:hi, i : i + 2] @ G.T
    return G


def implicit_qr_sweep(T: np.ndarray, shifts, Q: np.ndarray) -> None:
    """Implicit shifted QR sweeps on a symmetric tridiagonal matrix, one
    per shift, applied in order.

    Each sweep performs, in place, the transformation ``T <- Pᵀ T P`` where
    ``P`` is the orthogonal factor of the QR factorization of
    ``T - mu I``, without ever forming the (possibly singular) shifted
    matrix: a Givens rotation determined by the first column starts a bulge
    that subsequent rotations chase off the band (Golub & Van Loan Alg.
    8.3.2).  ``Q <- Q P`` is accumulated in place.  Numerically stable for
    exact shifts, which is what the IRAM polynomial filter applies.

    The chases are pipelined: shift ``s`` starts :data:`LAG` planes behind
    shift ``s - 1``, and each step applies one rotation per active shift.
    The interior rotations of a step (4×4 windows) are one batched
    ``matmul`` of the same ``(2,2)@(2,4)`` and ``(4,2)@(2,2)ᵀ`` products a
    single rotation computes, and every element of ``T`` and ``Q`` sees
    the same operations in the same order as in a shift-by-shift sweep, so
    the result is bit-identical to it.

    Parameters
    ----------
    T:
        Dense symmetric tridiagonal ``(m, m)`` array, modified in place.
        Only the tridiagonal band is referenced and written (plus the
        transient bulge, scrubbed to zero once its shift has passed it).
    shifts:
        1-D sequence of shifts, in the order they are applied.  A scalar
        raises :class:`~repro.errors.EigensolverError`.
    Q:
        ``(·, m)`` accumulation matrix, updated in place.
    """
    m = T.shape[0]
    shifts = np.asarray(shifts, dtype=np.float64)
    if shifts.ndim != 1:
        raise EigensolverError(
            f"shifts must be a 1-D sequence, got an array of shape "
            f"{shifts.shape}"
        )
    n_shifts = shifts.size
    if m < 2 or n_shifts == 0:
        return
    # win[i-1] is the window T[i-1:i+3, i-1:i+3] of interior rotation i
    # (1 <= i <= m-3); the windows of one step are every LAG-th of them
    r0, r1 = T.strides
    win = as_strided(T, shape=(max(m - 3, 0), 4, 4), strides=(r0 + r1, r0, r1))
    # pairs[i] is columns (i, i+1) of Q, transposed: the pair rotation i mixes
    q0, q1 = Q.strides
    pairs = as_strided(Q, shape=(m - 1, 2, Q.shape[0]), strides=(q1, q1, q0))
    # Every step writes its results into slices of these two buffers, so
    # the chase allocates no array per step: per-step temporaries and a
    # working copy of Q fragmented the heap and moved fit-dti's peak RSS
    # from ~100 to ~115 MiB in most checkouts.
    n_max = min(n_shifts, (m + LAG - 2) // LAG)
    prod = np.empty((n_max, 2, 2, Q.shape[0]))  # the Q update's products
    work = np.empty((n_max, 24))
    G_all = work[:, 0:4].reshape(n_max, 2, 2)
    rows = work[:, 4:12].reshape(n_max, 2, 4)
    cols = work[:, 12:20].reshape(n_max, 4, 2)
    scratch = work[:, 20:24]
    for t in range(m - 1 + LAG * (n_shifts - 1)):
        # active shifts s_lo..s_hi run planes i_hi down to i_lo
        s_hi = min(n_shifts - 1, t // LAG)
        s_lo = max(0, -((m - 2 - t) // LAG))
        if s_lo > s_hi:  # m - 1 < LAG planes leave steps idle
            continue
        i_lo = t - LAG * s_hi
        i_hi = t - LAG * s_lo
        # G[j] = [[c, s], [-s, c]] of plane i_lo + LAG*j
        G = G_all[: s_hi - s_lo + 1]
        # interior rotations a, a+LAG, ..., b (ascending plane)
        a = i_lo if i_lo > 0 else i_lo + LAG
        b = i_hi if i_hi < m - 2 else i_hi - LAG
        if a <= b:
            w = win[a - 1 : b : LAG]
            k = len(w)
            Gw = G[(a - i_lo) // LAG :][:k]
            _givens_into(w[:, 1:3, 0], Gw, scratch[:k])
            np.matmul(Gw, w[:, 1:3, :], out=rows[:k])
            w[:, 1:3, :] = rows[:k]
            np.matmul(w[:, :, 1:3], Gw.transpose(0, 2, 1), out=cols[:k])
            w[:, :, 1:3] = cols[:k]
            # bulge entries (i+1, i-1) and (i-1, i+1): no later rotation
            # of this shift touches them
            w[:, 2, 0] = 0.0
            w[:, 0, 2] = 0.0
        if i_lo == 0:
            c, s, _ = givens(T[0, 0] - shifts[s_hi], T[1, 0])
            G[0] = _rotate_edge(T, 0, c, s)
        if i_hi == m - 2 and i_hi > 0:
            c, s, _ = givens(T[m - 2, m - 3], T[m - 1, m - 3])
            G[-1] = _rotate_edge(T, m - 2, c, s)
            T[m - 1, m - 3] = 0.0
            T[m - 3, m - 1] = 0.0
        # Q <- Q Gᵀ on columns (i, i+1), elementwise: c*qi + s*qj and
        # -s*qi + c*qj
        P = pairs[i_lo : i_hi + 1 : LAG]
        pr = prod[: len(G)]
        np.multiply(G[:, :, :, None], P[:, None, :, :], out=pr)
        np.add(pr[:, :, 0], pr[:, :, 1], out=P)


def _givens_into(ab: np.ndarray, G: np.ndarray, scratch: np.ndarray) -> None:
    """Write :func:`givens`' ``[[c, s], [-s, c]]`` for each row ``(a, b)``
    of ``ab`` into ``G``, with the same floating-point operations
    elementwise, so the same bits (``scratch``: ``(len(ab), 4)``)."""
    if np.count_nonzero(ab) < ab.size:
        for j, (a, b) in enumerate(ab):
            c, s, _ = givens(a, b)
            G[j] = ((c, s), (-s, c))
        return
    mag, scale, r1 = scratch[:, 0:2], scratch[:, 2], scratch[:, 3]
    np.abs(ab, out=mag)
    # max(|a|, |b|): givens' max() differs only on NaN, where both give NaN
    np.maximum(mag[:, 0], mag[:, 1], out=scale)
    cs = G[:, 0]
    np.divide(ab, scale[:, None], out=cs)
    np.hypot(cs[:, 0], cs[:, 1], out=r1)
    np.divide(cs, r1[:, None], out=cs)
    np.negative(cs[:, 1], out=G[:, 1, 0])
    G[:, 1, 1] = cs[:, 0]
