"""Algorithm 1: parallel construction of the sparse similarity matrix.

The device path mirrors the paper's three kernels:

1. ``compute_average`` — thread *i* computes the mean of data row *i*;
2. ``update_data``     — thread *i* centers row *i* and computes its norm;
3. ``compute_similarity`` — thread *e* computes the similarity of edge
   *e*'s endpoint pair.  Where a CUDA thread reads its two rows straight
   from device memory, the vectorized body gathers them one cache-sized
   block of edges at a time (:func:`~repro.graph.similarity.edge_similarity`),
   never the whole launch's ``(nnz, d)`` pair of copies.

The edge list plus the value vector form the graph in COO format, resident
on the device and ready for Algorithm 2.  The measure is the paper's
cross-correlation (Eq. 7).
"""

from __future__ import annotations

import numpy as np

from repro.cuda.device import Device
from repro.cuda.kernel import Kernel, launch
from repro.cuda.launch import grid_1d
from repro.cuda.memory import BufferGroup
from repro.cusparse.matrices import DeviceCOO
from repro.errors import GraphConstructionError
from repro.graph.similarity import cross_correlation, edge_similarity
from repro.sparse.coo import COOMatrix
from repro.sparse.construct import from_edge_list

# ---------------------------------------------------------------------------
# Algorithm 1 kernels
# ---------------------------------------------------------------------------

compute_average = Kernel(
    name="compute_average",
    body=lambda tid, X, avg: avg.__setitem__(tid, X[tid].mean(axis=1)),
    cost=lambda nt, X, avg: (X[:nt].size, X[:nt].nbytes + avg.nbytes),
    kind="stream",
)

def _update_data_body(tid, X, avg, norm):
    X[tid] -= avg[tid, None]
    norm[tid] = np.sqrt(np.einsum("nd,nd->n", X[tid], X[tid]))

update_data = Kernel(
    name="update_data",
    body=_update_data_body,
    cost=lambda nt, X, avg, norm: (
        3.0 * X[:nt].size,
        2.0 * X[:nt].nbytes + avg.nbytes + norm.nbytes,
    ),
    kind="stream",
)

def _compute_similarity_body(tid, X, norm, src, dst, val):
    val[tid] = edge_similarity(X, norm, src[tid], dst[tid])

compute_similarity = Kernel(
    name="compute_similarity",
    body=_compute_similarity_body,
    cost=lambda nt, X, norm, src, dst, val: (
        2.0 * nt * X.shape[1],
        2.0 * nt * X.shape[1] * X.itemsize + nt * 24.0,
    ),
    kind="stream",
)


def build_similarity_device(
    device: Device,
    X: np.ndarray,
    edges: np.ndarray,
    block: int = 256,
    edge_chunk: int | None = None,
) -> DeviceCOO:
    """Algorithm 1 on the simulated device.

    Parameters
    ----------
    X:
        Host data points ``(n, d)``; transferred to the device (step 1).
    edges:
        ``(nnz, 2)`` index pairs with ``i < j`` (an undirected edge list
        as the DTI preprocessing provides); the output contains each edge
        mirrored so the COO matrix is symmetric.  Must be an integer
        array: float indices are refused rather than truncated.  Edges
        whose similarity is ≤ 0 are dropped — correlation graphs must be
        non-negatively weighted for the Laplacian machinery to apply.
    edge_chunk:
        Edges staged on the device at once.  ``None`` auto-sizes: the full
        list when its three device arrays fit in a quarter of free memory,
        otherwise chunked uploads — each chunk's ``compute_similarity``
        launch overlaps with host-side staging on real hardware, and the
        resident working set never exceeds one chunk.  Chunking changes
        transfer granularity, never values.

    Returns
    -------
    DeviceCOO:
        The symmetric similarity matrix in COO, resident on the device
        and sorted by (row, col) — ready for ``cusparseXcoo2csr``.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    edges = np.asarray(edges)
    if edges.size and not np.issubdtype(edges.dtype, np.integer):
        raise GraphConstructionError(
            f"edges must be an integer array, got dtype {edges.dtype}"
        )
    edges = edges.astype(np.int64, copy=False)
    if X.ndim != 2:
        raise GraphConstructionError(f"X must be (n, d), got {X.shape}")
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphConstructionError(f"edges must be (nnz, 2), got {edges.shape}")
    n, d = X.shape
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise GraphConstructionError(f"edge index out of range [0, {n})")

    nnz = edges.shape[0]
    tmp = BufferGroup()   # working buffers, always released
    out = BufferGroup()   # the returned COO arrays, released only on error
    with device.stage("similarity"):
      try:
        # step 1: transfer the input data
        dX = tmp.add(device.to_device(X))
        dnorm = tmp.add(device.empty(n, dtype=np.float64))

        # per-row preprocessing (steps 4-5)
        davg = tmp.add(device.empty(n, dtype=np.float64))
        launch(compute_average, grid_1d(n, block), dX, davg, n_threads=n)
        launch(update_data, grid_1d(n, block), dX, davg, dnorm, n_threads=n)
        davg.free()

        # edge staging size: full list if it fits comfortably, else chunks
        if edge_chunk is None:
            need = nnz * 24  # src + dst + val
            budget = device.allocator.free_bytes // 4
            edge_chunk = nnz if need <= budget else max(1, budget // 24)
        elif edge_chunk < 1:
            raise GraphConstructionError(
                f"edge_chunk must be positive, got {edge_chunk}"
            )
        edge_chunk = max(1, min(edge_chunk, max(nnz, 1)))

        # step 6: one thread per edge, chunk by chunk
        val = np.empty(nnz)
        for lo in range(0, nnz, edge_chunk):
            hi = min(nnz, lo + edge_chunk)
            c = hi - lo
            dsrc = tmp.add(device.to_device(edges[lo:hi, 0]))
            ddst = tmp.add(device.to_device(edges[lo:hi, 1]))
            dval = tmp.add(device.empty(c, dtype=np.float64))
            launch(
                compute_similarity, grid_1d(c, block),
                dX, dnorm, dsrc, ddst, dval, n_threads=c,
            )
            val[lo:hi] = dval.data
            dsrc.free()
            ddst.free()
            dval.free()
        dnorm.free()
        dX.free()  # the (centered) data is no longer needed on the device

        # step 7: symmetrize (mirror each i<j edge) and sort by (row, col);
        # on the GPU this is a thrust sort over the doubled edge list.
        src = edges[:, 0]
        dst = edges[:, 1]
        keep = val > 0
        src, dst, val = src[keep], dst[keep], val[keep]
        row = np.concatenate([src, dst])
        col = np.concatenate([dst, src])
        v2 = np.concatenate([val, val])
        order = np.argsort(row * n + col, kind="stable")
        device.timeline.record(
            "thrust::sort_by_key[edges]", "kernel", device.cost.sort_time(row.size)
        )
        drow = out.add(device.empty(row.size, dtype=np.int64))
        drow.data[...] = row[order]
        dcol = out.add(device.empty(col.size, dtype=np.int64))
        dcol.data[...] = col[order]
        dv = out.add(device.empty(v2.size, dtype=np.float64))
        dv.data[...] = v2[order]
        device.charge_kernel(
            "symmetrize_edges", flops=row.size, bytes_moved=3 * row.size * 8 * 2
        )
      except BaseException:
        out.free_all()
        raise
      finally:
        tmp.free_all()
    return DeviceCOO(row=drow, col=dcol, val=dv, shape=(n, n))


def build_similarity_graph(X: np.ndarray, edges: np.ndarray) -> COOMatrix:
    """Host reference of Algorithm 1: same inputs, a host COO matrix out
    (edges of similarity ≤ 0 dropped, as on the device)."""
    edges = np.asarray(edges, dtype=np.int64)
    val = cross_correlation(X, edges)
    keep = val > 0
    edges, val = edges[keep], val[keep]
    n = np.asarray(X).shape[0]
    return from_edge_list(edges, weights=val, n_nodes=n, symmetrize=True)
