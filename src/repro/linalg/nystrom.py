"""Nyström out-of-sample extension: numerics and drift bounds.

A fitted spectral model (:class:`repro.core.model.FittedSpectralModel`)
labels new points without re-running the pipeline: a sparse similarity
row against the anchor (training) vertices, one SpMM against the stored
eigenvector basis, a degree/Ritz rescale, and a nearest-centroid
assignment.  The algebra: for the normalized operator ``A`` (either
``D^{-1}W`` or ``D^{-1/2}WD^{-1/2}``) with eigenpairs ``A u = θ u``, the
Nyström row of a new point with similarity vector ``s`` and degree
``d = Σ s`` is

    e_new = (1/θ) · (1/d) · (s · U)

where ``U`` is the back-mapped basis the pipeline already computes (for
'sym' that back-mapping is exactly the ``D^{-1/2}`` row scaling, which
makes the formula identical for both operators) — Boutsidis et al.
justify the embedding-space nearest-centroid assignment.

This module holds the *pure* numerics shared by the device path and the
host fallback (bit-identity by construction: both call the same
functions; the device path only adds charged kernels and transfers
around them), plus the Weyl-style Ritz drift bound that gates lazy
refits after an incremental graph delta.
"""

from __future__ import annotations

import numpy as np

from repro.cusparse.substrate import Substrate
from repro.precision import as_f64, ritz_tolerance

#: ritz values closer to zero than this are clamped before the 1/θ
#: rescale — a numerically-zero ritz value carries no embedding signal
_THETA_FLOOR = 1e-12


def csr_row_reduce(indptr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Segment-sum the 1-D per-nonzero ``vals`` by the CSR row pointer
    (the Nyström degrees); empty rows are zero."""
    return Substrate(indptr.shape[0] - 1, None, None, indptr=indptr).reduce_rows(
        vals
    )


def nystrom_product(
    indptr: np.ndarray,
    indices: np.ndarray,
    vals: np.ndarray,
    basis: np.ndarray,
) -> np.ndarray:
    """``S @ basis`` through the device ``cusparseDcsrmm`` substrate
    (fp64 accumulation)."""
    return Substrate(indptr.shape[0] - 1, indices, vals, indptr=indptr).spmm(
        basis
    )


def nystrom_degrees(indptr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Row sums of the new-point similarity rows (the Nyström degrees)."""
    return csr_row_reduce(indptr, as_f64(vals))


def nystrom_scale(
    prod: np.ndarray, deg: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """The ``(1/θ)·(1/d)`` rescale; zero-degree rows and numerically-zero
    ritz values are clamped to 1 (their rows/columns carry no signal)."""
    safe_d = np.where(deg > 0, deg, 1.0)
    safe_t = np.where(np.abs(theta) > _THETA_FLOOR, theta, 1.0)
    return prod / safe_d[:, None] / safe_t[None, :]


# ---------------------------------------------------------------------------
# drift bound (Weyl)
# ---------------------------------------------------------------------------


def ritz_drift_bound(
    rows: np.ndarray,
    cols: np.ndarray,
    dvals: np.ndarray,
    deg_old: np.ndarray,
    deg_new: np.ndarray,
) -> float:
    """Weyl-style bound on the movement of the normalized operator's
    eigenvalues under an edge delta.

    Write ``A = D^{-1/2} W D^{-1/2}`` and split the perturbed operator::

        A' - A = D'^{-1/2} ΔW D'^{-1/2}
               + (D'^{-1/2} - D^{-1/2}) W D^{-1/2}
               + D'^{-1/2} W (D'^{-1/2} - D^{-1/2})

    The first term is bounded by its Frobenius norm (computed exactly
    from the delta entries); the other two by ``max_i |√(d_i/d'_i) - 1|``
    since ``‖D^{-1/2}WD^{-1/2}‖₂ ≤ 1``.  Weyl's inequality then gives
    ``|θ'_j - θ_j| ≤ ‖A' - A‖₂ ≤`` this bound for every j.  The same
    bound is conservative for ``D^{-1}W`` (similar matrix, identical
    spectrum).

    A vertex whose new degree drops to zero contributes the worst-case
    scale factor 1.0 (it leaves the operator entirely).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    dvals = as_f64(np.asarray(dvals))
    deg_old = as_f64(np.asarray(deg_old))
    deg_new = as_f64(np.asarray(deg_new))
    if dvals.size == 0:
        return 0.0
    safe_new = np.where(deg_new > 0, deg_new, 1.0)
    fro = float(
        np.sqrt(np.sum(dvals * dvals / (safe_new[rows] * safe_new[cols])))
    )
    touched = np.flatnonzero(deg_new != deg_old)
    if touched.size:
        ratio = np.where(
            deg_new[touched] > 0,
            np.sqrt(deg_old[touched] / safe_new[touched]),
            # degree collapsed to zero: the vertex leaves the operator
            2.0,
        )
        scale = float(np.max(np.abs(ratio - 1.0)))
    else:
        scale = 0.0
    return fro + 2.0 * scale


def drift_threshold(
    theta: np.ndarray, n: int, scale: float = 1.0
) -> float:
    """Refit threshold for :func:`ritz_drift_bound`.

    Half the smallest gap between adjacent kept Ritz values — the point
    beyond which Weyl permits adjacent eigenvalues to cross, i.e. the
    cached eigenvectors may rotate out of the invariant subspace — with
    the fp64 :func:`~repro.precision.ritz_tolerance` floor so a
    numerically-degenerate spectrum never pins the threshold at zero.
    ``scale`` multiplies the threshold (the model's ``drift_scale`` knob:
    <1 refits eagerly, >1 tolerates more drift).
    """
    theta = np.sort(as_f64(np.asarray(theta)))
    floor = ritz_tolerance(np.float64, max(int(n), 1))
    if theta.size < 2:
        return float(scale) * max(floor, 0.05)
    min_gap = float(np.min(np.diff(theta)))
    return float(scale) * max(floor, 0.5 * min_gap)
