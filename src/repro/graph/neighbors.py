"""Neighborhood enumeration: ε-distance edge lists (Algorithm 1's input).

The DTI experiment's edge list ("all pairs of voxels within 4 mm") comes
from positions on a regular 3-D grid, for which a uniform-grid spatial index
enumerates candidate pairs in O(n · c) rather than O(n²)
(:func:`epsilon_neighbors_grid`).  The blockwise brute-force sweep
(:func:`epsilon_neighbors`) serves general dimension and is the grid's
reference; both return deduplicated ``i < j`` pairs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError


def _as_points(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise GraphConstructionError(f"points must be 2-D (n, d), got {P.shape}")
    return P


def epsilon_neighbors(
    P: np.ndarray, eps: float, block: int = 1024, include_equal: bool = True
) -> np.ndarray:
    """All pairs ``i < j`` with ``||P_i - P_j|| <= eps`` (brute force, blocked).

    Parameters
    ----------
    P:
        ``(n, d)`` spatial positions.
    eps:
        Distance threshold (inclusive when ``include_equal``).
    block:
        Row-block size bounding the temporary distance tile to
        ``block × n`` — the cache-friendly sweep the optimization guide
        prescribes instead of an ``n × n`` allocation.
    """
    P = _as_points(P)
    if eps < 0:
        raise GraphConstructionError(f"eps must be non-negative, got {eps}")
    n = P.shape[0]
    sq_norms = np.einsum("nd,nd->n", P, P)
    eps2 = eps * eps
    out: list[np.ndarray] = []
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        # squared distances of rows [lo, hi) against all later points
        d2 = (
            sq_norms[lo:hi, None]
            + sq_norms[None, :]
            - 2.0 * (P[lo:hi] @ P.T)
        )
        if include_equal:
            mask = d2 <= eps2 + 1e-12
        else:
            mask = d2 < eps2 - 1e-12
        ii, jj = np.nonzero(mask)
        ii = ii + lo
        keep = ii < jj  # dedupe + drop self pairs
        if np.any(keep):
            out.append(np.column_stack([ii[keep], jj[keep]]))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out).astype(np.int64)


def epsilon_neighbors_grid(P: np.ndarray, eps: float) -> np.ndarray:
    """ε-pairs via a uniform grid of cell size ε (low-dimensional points).

    Bins points into cells, then tests only pairs from each cell against
    its 3^d neighborhood — linear in n for bounded density.  Intended for
    the 3-D voxel grids of the DTI workload; raises for d > 4 where the
    3^d blowup loses to brute force.
    """
    P = _as_points(P)
    n, d = P.shape
    if eps <= 0:
        raise GraphConstructionError(f"grid search needs eps > 0, got {eps}")
    if d > 4:
        raise GraphConstructionError(
            f"grid index is for low dimension (d <= 4), got d={d}; "
            "use epsilon_neighbors"
        )
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    cells = np.floor((P - P.min(axis=0)) / eps).astype(np.int64)
    dims = cells.max(axis=0) + 1
    # linearized cell ids
    strides = np.cumprod(np.concatenate(([1], dims[:-1])))
    cell_id = cells @ strides
    order = np.argsort(cell_id, kind="stable")
    sorted_ids = cell_id[order]
    uniq, starts = np.unique(sorted_ids, return_index=True)
    ends = np.concatenate([starts[1:], [n]])
    cell_members = {int(c): order[s:e] for c, s, e in zip(uniq, starts, ends)}

    # neighbor cell offsets with positive linear displacement (dedupe cells)
    offsets = np.stack(
        np.meshgrid(*([np.arange(-1, 2)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    off_lin = offsets @ strides
    offsets = offsets[off_lin >= 0]
    off_lin = off_lin[off_lin >= 0]

    eps2 = eps * eps
    pairs: list[np.ndarray] = []
    for c, members in cell_members.items():
        for dl in off_lin:
            other = members if dl == 0 else cell_members.get(c + int(dl))
            if other is None:
                continue
            ii = np.repeat(members, other.size)
            jj = np.tile(other, members.size)
            if dl == 0:
                keep = ii < jj
                ii, jj = ii[keep], jj[keep]
            if ii.size == 0:
                continue
            diff = P[ii] - P[jj]
            d2 = np.einsum("ed,ed->e", diff, diff)
            ok = d2 <= eps2 + 1e-12
            if np.any(ok):
                lo = np.minimum(ii[ok], jj[ok])
                hi = np.maximum(ii[ok], jj[ok])
                pairs.append(np.column_stack([lo, hi]))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    allp = np.concatenate(pairs)
    # neighbor-cell enumeration can emit a pair once per shared offset; dedupe
    key = allp[:, 0] * n + allp[:, 1]
    _, first = np.unique(key, return_index=True)
    return allp[np.sort(first)].astype(np.int64)
