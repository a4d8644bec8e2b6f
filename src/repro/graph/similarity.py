"""The similarity measure between data points: cross-correlation (Eq. 7).

:func:`edge_similarity` is Eq. 7's per-edge step — gather the two
centered rows, dot them, divide by the product of their norms — written
once for the device kernel body (:mod:`repro.graph.build`, Algorithm 1)
and the host reference :func:`cross_correlation`.  It runs over edge
blocks of about ``_BLOCK_ELEMS`` gathered values (edges × d), so its
working set is two cache-sized scratch blocks instead of two
``(nnz, d)`` copies.  Each edge's value is a dot product over ``d``
alone, summed in the same order whatever block holds it, so the block
size changes no bit of the result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError

#: gathered elements (edges × d) per similarity block: 48 Ki fp64 values,
#: 384 KiB per endpoint, the SpMM substrate's block budget.  On DTI at
#: scale 0.1 (d=90, 546 edges a block) the device build took 0.06-0.08 s,
#: against 0.09 s at 8 Ki edges, 0.15 s at 64 Ki and 0.18 s gathering
#: the whole launch
_BLOCK_ELEMS = 48 * 1024


def edge_similarity(
    Xc: np.ndarray, norms: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Eq. 7 for the edges ``(i[e], j[e])`` of mean-centered rows ``Xc``
    with row norms ``norms``: ``<Xc[i], Xc[j]> / (norms[i] * norms[j])``,
    and 0 where either norm is 0 (a constant row)."""
    nnz = i.size
    d = Xc.shape[1]
    per = max(1, _BLOCK_ELEMS // max(d, 1))
    out = np.zeros(nnz)
    a = np.empty((min(per, nnz), d))
    b = np.empty_like(a)
    for lo in range(0, nnz, per):
        hi = min(nnz, lo + per)
        bi, bj = i[lo:hi], j[lo:hi]
        # indices were range-checked by the caller, so "clip" never
        # clips; it only skips the copy "raise" makes of the output
        xi = np.take(Xc, bi, axis=0, out=a[: hi - lo], mode="clip")
        xj = np.take(Xc, bj, axis=0, out=b[: hi - lo], mode="clip")
        dots = np.einsum("ed,ed->e", xi, xj)
        denom = norms[bi] * norms[bj]
        ok = denom > 0
        out[lo:hi][ok] = dots[ok] / denom[ok]
    return out


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
    return edge_similarity(Xc, norms, pairs[:, 0], pairs[:, 1])
