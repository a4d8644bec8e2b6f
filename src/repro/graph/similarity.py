"""The similarity measure between data points: cross-correlation (Eq. 7).

The host reference implementation, vectorized over an edge list: given
``X (n, d)`` and pairs ``(i, j)``, it returns the per-pair similarity.
The device path (Algorithm 1) lives in :mod:`repro.graph.build` and must
agree with it to rounding error — a property test enforces it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError


def _check(X: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    if X.ndim != 2:
        raise GraphConstructionError(f"X must be 2-D (n, d), got {X.shape}")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphConstructionError(f"pairs must be (nnz, 2), got {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= X.shape[0]):
        raise GraphConstructionError(
            f"pair index out of range [0, {X.shape[0]})"
        )
    return X, pairs


def cross_correlation(X: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Eq. 7: the Pearson correlation of the mean-centered rows.

    This is the measure the DTI experiment uses.  Pairs touching a
    constant row (zero variance) get similarity 0.
    """
    X, pairs = _check(X, pairs)
    Xc = X - X.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(Xc, axis=1)
    i, j = pairs[:, 0], pairs[:, 1]
    dots = np.einsum("ed,ed->e", Xc[i], Xc[j])
    denom = norms[i] * norms[j]
    out = np.zeros(pairs.shape[0])
    ok = denom > 0
    out[ok] = dots[ok] / denom[ok]
    return out
