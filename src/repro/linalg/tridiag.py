"""Symmetric tridiagonal eigensolver.

:func:`eigh_tridiagonal` is the Ritz solve of the IRLM restart machinery:
it hands the small m×m projected problem to LAPACK (``numpy.linalg.eigh``
on the assembled dense matrix), mirroring how ARPACK itself calls LAPACK.
"""

from __future__ import annotations

import numpy as np


def eigh_tridiagonal(
    alpha: np.ndarray,
    beta: np.ndarray,
    compute_vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of the symmetric tridiagonal ``T(alpha, beta)``.

    Assembles the dense matrix and calls LAPACK (``numpy.linalg.eigh``):
    the projected matrices inside IRLM are small.

    Returns
    -------
    (w, Z):
        Eigenvalues ascending and (optionally) the orthonormal eigenvector
        matrix with ``T @ Z[:, i] = w[i] * Z[:, i]``.
    """
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    beta = np.asarray(beta, dtype=np.float64).ravel()
    n = alpha.size
    if beta.size != max(0, n - 1):
        raise ValueError(f"beta must have length {n - 1}, got {beta.size}")
    T = tridiag_to_dense(alpha, beta)
    if compute_vectors:
        w, Z = np.linalg.eigh(T)
        return w, Z
    return np.linalg.eigvalsh(T), None


def tridiag_to_dense(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Assemble the dense symmetric tridiagonal matrix ``T(alpha, beta)``."""
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    beta = np.asarray(beta, dtype=np.float64).ravel()
    n = alpha.size
    T = np.diag(alpha)
    if n > 1:
        idx = np.arange(n - 1)
        T[idx, idx + 1] = beta
        T[idx + 1, idx] = beta
    return T
