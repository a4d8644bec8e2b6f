"""Neighborhood enumeration: ε-distance edge lists (Algorithm 1's input).

The DTI experiment's edge list ("all pairs of voxels within 4 mm") comes
from positions on a regular 3-D grid, for which a uniform-grid spatial index
enumerates candidate pairs in O(n · c) rather than O(n²)
(:func:`epsilon_neighbors_grid`).  The grid bins points into cells of side
ε and pairs each cell with the ``3^d`` neighbour offsets of non-negative
linear displacement.  It enumerates those (cell, offset) cross products
with array arithmetic over blocks of consecutive cells, so its Python work
grows with the number of blocks rather than with the number of cells.

The blockwise brute-force sweep (:func:`epsilon_neighbors`) serves general
dimension and is the grid's reference; both return deduplicated ``i < j``
pairs.  Both raise :class:`~repro.errors.GraphConstructionError` for
non-finite points or ε; the grid also raises when its linear cell ids
would overflow int64.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GraphConstructionError

#: candidate pairs the grid enumerates per block of consecutive cells; it
#: bounds the index, difference and distance temporaries of one block
_BLOCK_PAIRS = 1 << 15


def _as_points(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise GraphConstructionError(f"points must be 2-D (n, d), got {P.shape}")
    if not np.isfinite(P).all():
        raise GraphConstructionError("points must be finite (got NaN or inf)")
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

    Raises
    ------
    GraphConstructionError
        If ``P`` is not 2-D or not finite, or ``eps`` is negative or not
        finite.
    """
    P = _as_points(P)
    if not (np.isfinite(eps) and eps >= 0):
        raise GraphConstructionError(f"eps must be finite and non-negative, got {eps}")
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

    Bins points into cells with linear ids (first axis fastest) and tests
    only the pairs of each cell against the ``3^d`` offsets of non-negative
    linear displacement (14 in 3-D) — linear in n for bounded density.  One
    ``searchsorted`` over the sorted cell ids finds every (cell, offset)
    partner cell.  Blocks of consecutive cells holding about
    ``_BLOCK_PAIRS`` candidate pairs then expand their cross products at
    once with ``repeat``/``divmod`` index arithmetic — ordered by cell, then
    offset, then (member, partner member) — and keep the pairs within
    ``eps``.  Offsets are enumerated by index: when an axis has width 1,
    several offsets share a displacement and emit the same pairs, which
    the final first-occurrence dedupe removes.  Intended for the 3-D voxel
    grids of the DTI workload.

    Raises
    ------
    GraphConstructionError
        If ``P`` is not 2-D or not finite, ``eps`` is not finite and
        positive, ``d > 4`` (where the 3^d blowup loses to brute force), or
        the linear cell ids overflow int64 (use :func:`epsilon_neighbors`).
    """
    P = _as_points(P)
    n, d = P.shape
    if not (np.isfinite(eps) and eps > 0):
        raise GraphConstructionError(f"grid search needs a finite eps > 0, got {eps}")
    if d > 4:
        raise GraphConstructionError(
            f"grid index is for low dimension (d <= 4), got d={d}; "
            "use epsilon_neighbors"
        )
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    origin = P.min(axis=0)
    strides = _cell_strides(np.floor((P.max(axis=0) - origin) / eps))
    cell_id = np.floor((P - origin) / eps).astype(np.int64) @ strides
    order = np.argsort(cell_id, kind="stable")
    uniq, starts, counts = np.unique(
        cell_id[order], return_index=True, return_counts=True
    )

    # neighbor cell offsets with non-negative linear displacement
    offsets = np.stack(
        np.meshgrid(*([np.arange(-1, 2)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    off_lin = offsets @ strides
    off_lin = off_lin[off_lin >= 0]
    n_off = off_lin.size

    # partner cell of every (cell, offset); pairs = 0 where it is empty
    target = uniq[:, None] + off_lin[None, :]
    partner = np.minimum(np.searchsorted(uniq, target), uniq.size - 1)
    pairs = np.where(uniq[partner] == target, counts[:, None] * counts[partner], 0)
    # cells [bounds[b], bounds[b + 1]) form block b
    per_cell = pairs.sum(axis=1)
    block_of = (np.cumsum(per_cell) - per_cell) // _BLOCK_PAIRS
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(block_of)) + 1, [uniq.size]))

    eps2 = eps * eps
    keys: list[np.ndarray] = []  # lo * n + hi of each pair, in emission order
    for c0, c1 in zip(bounds[:-1], bounds[1:]):
        # (cell, offset) segments of the block in cell-major order
        seg = np.flatnonzero(pairs[c0:c1])
        size = pairs[c0:c1].ravel()[seg]
        cell = c0 + seg // n_off
        other = partner[c0:c1].ravel()[seg]
        # pair t of a segment is (members[t // m], other_members[t % m])
        owner = np.repeat(np.arange(seg.size), size)
        t = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
        q, r = np.divmod(t, counts[other][owner])
        ii = order[starts[cell][owner] + q]
        jj = order[starts[other][owner] + r]
        diff = P[ii] - P[jj]
        d2 = np.einsum("ed,ed->e", diff, diff)
        ok = d2 <= eps2 + 1e-12
        # a zero displacement pairs a cell with itself: keep each pair once
        ok &= (off_lin[seg % n_off] != 0)[owner] | (ii < jj)
        ii, jj = ii[ok], jj[ok]
        keys.append(np.minimum(ii, jj) * n + np.maximum(ii, jj))
    key = np.concatenate(keys)
    # neighbor-cell enumeration can emit a pair once per shared offset; keep
    # the first occurrence of each
    _, first = np.unique(key, return_index=True)
    return np.column_stack(np.divmod(key[np.sort(first)], n))


def _cell_strides(top: np.ndarray) -> np.ndarray:
    """Linear-id strides (first axis fastest) of a grid whose top cell per
    axis is ``top``.

    Raises when the largest cell id plus the largest neighbour
    displacement does not fit in int64.
    """
    if np.isfinite(top).all():
        dims = [int(t) + 1 for t in top]
        strides = [math.prod(dims[:a]) for a in range(len(dims))]
        if math.prod(dims) + sum(strides) <= np.iinfo(np.int64).max:
            return np.array(strides, dtype=np.int64)
    raise GraphConstructionError(
        "grid cell ids overflow int64 (the points span too many eps-cells); "
        "use epsilon_neighbors"
    )
