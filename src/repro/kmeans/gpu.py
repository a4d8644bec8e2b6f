"""Algorithm 4: parallel k-means on the (simulated) GPU.

The three phases of each Lloyd iteration map to device primitives exactly
as in the paper:

* **distances + labels** — ``S`` is initialized to ``||v_i||² + ||c_j||²``
  (Eq. 15) and completed with a cuBLAS gemm, ``S -= 2 V Cᵀ`` (Eq. 16),
  then a row-argmin picks the label.  By default the three steps run as a
  single **fused kernel** per row tile (``fused=True``): each tile of
  ``S`` is produced and consumed in one pass, and the label-change counter
  accumulates on-device, so the per-iteration label comparison kernel and
  its separate scalar readback disappear.  ``fused=False`` keeps the
  paper's discrete init/gemm/argmin sequence for ablation;
* **centroids** — by default (``centroid_update="spmm"``) the update is the
  sparse product ``C_sums = M V`` where ``M`` is the k×n one-hot CSR
  membership matrix built on-device from a label histogram +
  ``thrust::exclusive_scan`` (the row pointers *are* the cluster counts'
  prefix sums, so counts fall out for free) and a cursor scatter of point
  ids.  ``centroid_update="sort"`` keeps §IV.C's
  ``thrust::sort_by_key`` + ``reduce_by_key`` formulation: it pays an
  O(n·d) dataset copy and an O(n log n) sort every iteration, which the
  k-means ablation bench quantifies;
* **inertia** — with the fused pass the per-iteration inertia is computed
  by a charged device kernel into a persistent history buffer (one batched
  D2H after convergence) instead of an uncharged host sweep.

All knob combinations produce bit-identical labels, centroids, and inertia
histories: every path shares the same substrate arithmetic and differs only
in what the cost model charges.  Empty clusters are repaired with the same
deterministic relocation rule as the host implementation, keeping the two
paths bit-comparable.

Working memory is allocated once before the loop (a single
:class:`~repro.cuda.memory.BufferGroup`), so after warm-up a Lloyd
iteration performs **zero** device allocations on the default path — the
sort path's seven per-iteration temporaries live in a scoped group that
releases them through the caching allocator each trip.
"""

from __future__ import annotations

import numpy as np

from repro import cublas, thrust
from repro.cuda.allocator import MIN_BUCKET_BYTES
from repro.cuda.boundaries import mark_boundary
from repro.cuda.device import Device
from repro.cuda.kernel import Kernel, launch
from repro.cuda.launch import grid_1d
from repro.cuda.memory import BufferGroup, DeviceArray
from repro.cusparse.formats import (
    SPMV_FORMATS,
    autotune_spmm_format,
    convert_for_spmv,
)
from repro.cusparse.matrices import DeviceCSR
from repro.cusparse.spmm import csrmm, spmm_any
from repro.errors import ClusteringError
from repro.kmeans.init import kmeans_plus_plus_device, random_init
from repro.kmeans.utils import (
    KMeansResult,
    inertia as _inertia,
    relabel_empty_clusters,
    validate_inputs,
)

# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

compute_norms = Kernel(
    name="compute_norms",
    body=lambda tid, V, out: out.__setitem__(
        tid, np.einsum("nd,nd->n", V[tid], V[tid])
    ),
    cost=lambda nt, V, out: (2.0 * V[:nt].size, V[:nt].nbytes + out.nbytes),
    kind="stream",
)

init_distances = Kernel(
    name="init_distances",
    body=lambda tid, S, Vnorm, Cnorm: S.__setitem__(
        tid, Vnorm[tid, None] + Cnorm[None, :]
    ),
    cost=lambda nt, S, Vnorm, Cnorm: (
        float(nt) * Cnorm.size,
        float(nt) * Cnorm.size * 8 + Vnorm.nbytes + Cnorm.nbytes,
    ),
    kind="stream",
)

argmin_rows = Kernel(
    name="argmin_rows",
    body=lambda tid, S, labels: labels.__setitem__(tid, np.argmin(S[tid], axis=1)),
    cost=lambda nt, S, labels: (
        float(nt) * S.shape[1],
        float(nt) * S.shape[1] * 8 + labels.nbytes,
    ),
    kind="stream",
)


def _direct_distances_body(tid, V, C, S):
    diff = V[tid][:, None, :] - C[None, :, :]
    S[tid] = np.einsum("tkd,tkd->tk", diff, diff)

#: the naive distance kernel: thread i re-streams all k centroids against
#: its point — 3·n·k·d flops but, critically, n·k·d element reads instead
#: of the gemm's O(n·d + k·d) (plus cache-blocked reuse).  This is the
#: formulation Algorithm 4 *replaces* with Eqs. 12-16; the distance
#: ablation bench quantifies the win.
direct_distances = Kernel(
    name="direct_distances",
    body=_direct_distances_body,
    cost=lambda nt, V, C, S: (
        3.0 * nt * C.shape[0] * C.shape[1],
        float(nt) * C.shape[0] * C.shape[1] * 8 + float(nt) * C.shape[0] * 8,
    ),
    kind="stream",
)


def _fused_assign_body(tid, S, V, C, Vnorm, Cnorm, labels, old, changes, reset):
    # Eq. 15 init, Eq. 16 gemm, row argmin, and the label-change count in
    # one pass over the tile.  The arithmetic is expression-for-expression
    # the unfused init_distances / cublas.gemm(alpha=-2, beta=1) /
    # argmin_rows sequence, so fusion changes charged time, never a bit:
    # -2·(VCᵀ) is scaled in place and added to S (the 1.0·S is exact).
    s = S[tid]
    np.add(Vnorm[tid, None], Cnorm, out=s)
    g = V[tid] @ C.T
    g *= -2.0
    np.add(g, s, out=s)
    labels[tid] = np.argmin(s, axis=1)
    if reset:
        changes[0] = 0
    changes[0] += np.count_nonzero(labels[tid] != old[tid])

#: fused distance + argmin + change-count tile pass: the gemm dominates,
#: so the kernel is compute-class "dense"; the S tile is produced and
#: consumed in registers/shared memory and only written once, which is the
#: memory-traffic saving over the three-kernel sequence.
fused_assign = Kernel(
    name="fused_assign",
    body=_fused_assign_body,
    cost=lambda nt, S, V, C, Vnorm, Cnorm, labels, old, changes, reset: (
        2.0 * nt * C.shape[0] * C.shape[1] + 2.0 * nt * C.shape[0] + float(nt),
        V[:nt].nbytes + C.nbytes + Vnorm.nbytes + Cnorm.nbytes
        + float(nt) * C.shape[0] * 8
        + 2.0 * nt * labels.itemsize + 8.0,
    ),
    kind="dense",
)


def _label_histogram_body(tid, labels, counts):
    # per-thread atomicAdd(counts[label[i]], 1) into a (k+1)-sized buffer;
    # the trailing slot stays zero so the exclusive scan of this buffer is
    # a complete CSR indptr (indptr[k] == n)
    counts[:] = 0
    counts[: counts.size - 1] = np.bincount(labels, minlength=counts.size - 1)

label_histogram = Kernel(
    name="label_histogram",
    body=_label_histogram_body,
    cost=lambda nt, labels, counts: (
        float(nt),
        labels[:nt].nbytes + 2.0 * counts.nbytes,
    ),
    kind="gather",
)


def _membership_scatter_body(tid, labels, indptr, indices):
    # thread i places its point id at indptr[label[i]] + atomic cursor; a
    # sequential tid-order placement is exactly a stable sort by label, so
    # the substrate uses argsort(kind="stable") — deterministic and
    # bit-aligned with the sort_by_key path's ordering
    indices[:] = np.argsort(labels, kind="stable")

membership_scatter = Kernel(
    name="membership_scatter",
    body=_membership_scatter_body,
    cost=lambda nt, labels, indptr, indices: (
        float(nt),
        labels[:nt].nbytes + indptr.nbytes + indices[:nt].nbytes,
    ),
    kind="gather",
)


def _tile_inertia_body(tid, V, C, labels, out, slot):
    diff = C.take(labels[tid], axis=0)
    np.subtract(V[tid], diff, out=diff)
    out[slot] = np.einsum("nd,nd->", diff, diff)

#: charged replacement for the host inertia sweep: same einsum arithmetic
#: as kmeans.utils.inertia, writing into a persistent device history
#: buffer that comes down once after convergence
tile_inertia = Kernel(
    name="tile_inertia",
    body=_tile_inertia_body,
    cost=lambda nt, V, C, labels, out, slot: (
        3.0 * V[:nt].size + float(nt),
        V[:nt].nbytes + labels[:nt].nbytes + C.nbytes + 8.0,
    ),
    kind="stream",
)


def kmeans_device(
    device: Device,
    V: np.ndarray | DeviceArray,
    k: int,
    init: str = "k-means++",
    max_iter: int = 300,
    seed: int | None = 0,
    initial_centroids: np.ndarray | None = None,
    block: int = 256,
    tile_rows: int | None = None,
    distance_method: str = "gemm",
    centroid_update: str = "spmm",
    fused: bool = True,
    spmm_format: str = "auto",
) -> KMeansResult:
    """Run Algorithm 4 on ``device``; returns a host-side result.

    Parameters
    ----------
    V:
        Host ``(n, d)`` data (transferred, step 1 of Algorithm 4) or an
        already device-resident array.
    k:
        Number of clusters.
    init:
        'k-means++' (Algorithm 5 on the device) or 'random'.
    initial_centroids:
        Explicit seeds; bypasses ``init`` (used for CPU/GPU parity tests).
    tile_rows:
        Rows of the distance matrix materialized at once.  ``None`` sizes
        the tile automatically: the full ``n × k`` matrix when it fits in
        a quarter of free device memory, otherwise the largest tile that
        does — which is what lets the pipeline run problems whose distance
        matrix alone exceeds the K20c's 5 GB ("extremely large input
        sizes", paper §I).  Tiling changes memory traffic, never results.
    distance_method:
        'gemm' (default) — the paper's BLAS-3 expansion, Eqs. 12-16;
        'direct' — the naive per-pair distance kernel it replaces.
        Identical results; the ablation bench compares their costs.
    centroid_update:
        'spmm' (default) — one-hot membership CSR built on-device
        (histogram + exclusive scan + cursor scatter) and a single
        ``cusparseDcsrmm`` for the centroid sums, counts read off the row
        pointers; 'sort' — the paper's §IV.C sort + segmented reduction.
        Identical results; the k-means ablation bench compares their costs.
    fused:
        Fuse Eq. 15 init, the Eq. 16 gemm, the row argmin, and the
        label-change count into one tile kernel, with inertia computed by
        a charged device kernel into a persistent history buffer.
        ``False`` keeps the discrete kernel sequence (and the host inertia
        sweep) for ablation.  Applies to ``distance_method='gemm'`` only;
        the 'direct' kernel always runs unfused.
    spmm_format:
        Membership-matrix format for the ``centroid_update='spmm'`` path:
        'auto' (default) runs the SpMM cost-model autotuner on the first
        iteration's row-length stats (the one-hot membership has exactly
        one nonzero per column, so the near-uniform ELL layout usually
        wins); or force 'csr' or 'ell'.  Both formats share the
        reference substrate arithmetic — centroid sums are bit-identical,
        only the charged kernel/conversion time changes.
    """
    if distance_method not in ("gemm", "direct"):
        raise ClusteringError(
            f"distance_method must be 'gemm' or 'direct', got {distance_method!r}"
        )
    if centroid_update not in ("spmm", "sort"):
        raise ClusteringError(
            f"centroid_update must be 'spmm' or 'sort', got {centroid_update!r}"
        )
    if spmm_format != "auto" and spmm_format not in SPMV_FORMATS:
        raise ClusteringError(
            f"spmm_format must be 'auto' or one of {SPMV_FORMATS}, "
            f"got {spmm_format!r}"
        )
    use_fused = bool(fused) and distance_method == "gemm"
    rng = np.random.default_rng(seed)
    # every buffer this call creates is registered so a faulted sub-step
    # (injected OOM / transfer / kernel error) releases the lot; the
    # success path's explicit frees are idempotent and stay authoritative
    bufs = BufferGroup()
    with device.stage("kmeans"):
      try:
        if isinstance(V, DeviceArray):
            dV = V  # caller-owned: never registered, never freed here
            V_host = dV.data  # simulation substrate view, no transfer
        else:
            V_host = validate_inputs(V, k)
            dV = bufs.add(device.to_device(V_host))
        n, d = dV.shape
        if not 0 < k <= n:
            raise ClusteringError(f"need 0 < k <= n, got k={k}, n={n}")

        # ---- seeding ---------------------------------------------------
        if initial_centroids is not None:
            C0 = np.asarray(initial_centroids, dtype=np.float64)
            if C0.shape != (k, d):
                raise ClusteringError(
                    f"initial centroids have shape {C0.shape}, expected {(k, d)}"
                )
            dC = bufs.add(device.to_device(C0))
        elif init == "k-means++":
            dC = bufs.add(kmeans_plus_plus_device(dV, k, rng))
        elif init == "random":
            dC = bufs.add(device.to_device(random_init(dV.data, k, rng)))
        else:
            raise ClusteringError(f"unknown init {init!r}")

        # ---- persistent buffers (allocated once, reused every trip) ----
        dVnorm = bufs.add(device.empty(n, dtype=np.float64))
        launch(compute_norms, grid_1d(n, block), dV, dVnorm, n_threads=n)
        dCnorm = bufs.add(device.empty(k, dtype=np.float64))
        dlabels = bufs.add(device.full(n, -1, dtype=np.int64))
        dOld = dChanges = dHist = None
        if use_fused:
            dOld = bufs.add(device.empty(n, dtype=np.int64))
            dChanges = bufs.add(device.empty(1, dtype=np.int64))
            dHist = bufs.add(device.empty(max_iter, dtype=np.float64))
        if centroid_update == "spmm":
            dCounts = bufs.add(device.empty(k + 1, dtype=np.int64))
            dIndptr = bufs.add(device.empty(k + 1, dtype=np.int64))
            dIdx = bufs.add(device.empty(n, dtype=np.int64))
            dOnes = bufs.add(device.full(n, 1.0))
            dSums = bufs.add(device.empty((k, d), dtype=np.float64))
        #: resolved on the first iteration's row stats when 'auto'
        spmm_fmt = None if spmm_format == "auto" else spmm_format
        if tile_rows is None:
            # every live/parked block can waste up to one allocator granule
            # to rounding, and the Lloyd loop keeps ~24 of them — budget the
            # tile from headroom the buckets can actually honor
            slack = 24 * MIN_BUCKET_BYTES
            budget = max(0, device.allocator.free_bytes - slack) // 4
            tile_rows = max(1, min(n, budget // max(1, k * 8)))
        elif tile_rows < 1:
            raise ClusteringError(f"tile_rows must be positive, got {tile_rows}")
        tile_rows = min(tile_rows, n)
        dS = bufs.add(device.empty((tile_rows, k), dtype=np.float64))

        history: list[float] = []
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            # labels/centroids are consistent between Lloyd trips — a
            # preemption-safe point for the serving scheduler
            mark_boundary(device)
            # centroid norms + distances + labels, row tiles of S
            launch(compute_norms, grid_1d(k, block), dC, dCnorm, n_threads=k)
            if use_fused:
                thrust.copy(dlabels, dOld)
            else:
                old = dlabels.data.copy()
            for lo in range(0, n, tile_rows):
                hi = min(n, lo + tile_rows)
                t = hi - lo
                dS_t = dS.view_rows(0, t)
                dVnorm_t = dVnorm.view_rows(lo, hi)
                dV_t = dV.view_rows(lo, hi)
                dlabels_t = dlabels.view_rows(lo, hi)
                if use_fused:
                    launch(
                        fused_assign, grid_1d(t, block),
                        dS_t, dV_t, dC, dVnorm_t, dCnorm,
                        dlabels_t, dOld.view_rows(lo, hi), dChanges, lo == 0,
                        n_threads=t,
                    )
                elif distance_method == "gemm":
                    launch(
                        init_distances, grid_1d(t, block),
                        dS_t, dVnorm_t, dCnorm, n_threads=t,
                    )
                    cublas.gemm(dV_t, dC, dS_t, alpha=-2.0, beta=1.0, transb=True)
                    launch(
                        argmin_rows, grid_1d(t, block), dS_t, dlabels_t,
                        n_threads=t,
                    )
                else:
                    launch(
                        direct_distances, grid_1d(t, block),
                        dV_t, dC, dS_t, n_threads=t,
                    )
                    launch(
                        argmin_rows, grid_1d(t, block), dS_t, dlabels_t,
                        n_threads=t,
                    )
            if use_fused:
                # the change count accumulated on-device; one latency-bound
                # scalar readback decides convergence
                device.charge_scalar_d2h(8)
                changes = int(dChanges.data[0])
            else:
                changes = int(np.count_nonzero(dlabels.data != old))
                device.charge_kernel(
                    "count_changes", flops=n, bytes_moved=2 * n * 8
                )
                device.charge_scalar_d2h(8)

            if centroid_update == "spmm":
                # ---- centroid update: one-hot membership SpMM ------------
                # histogram -> exclusive scan == CSR row pointers (and the
                # cluster counts), cursor scatter of point ids, then a
                # single csrmm for all centroid sums — no dataset copy/sort
                launch(
                    label_histogram, grid_1d(n, block), dlabels, dCounts,
                    n_threads=n,
                )
                thrust.exclusive_scan(dCounts, out=dIndptr)
                launch(
                    membership_scatter, grid_1d(n, block),
                    dlabels, dIndptr, dIdx, n_threads=n,
                )
                # a fresh operand over the rewritten buffers: its product
                # substrate follows this trip's structure
                membership = DeviceCSR(
                    indptr=dIndptr, indices=dIdx, val=dOnes, shape=(k, n)
                )
                if spmm_fmt is None:
                    # rank CSR/ELL once on the first membership's row
                    # lengths; the one-nonzero-per-column structure barely
                    # shifts between iterations, so the decision holds
                    spmm_fmt = autotune_spmm_format(
                        dIndptr.data, device.cost, p=d, conversion_uses=1
                    ).format
                if spmm_fmt == "csr":
                    csrmm(membership, dV, C=dSums, beta=0.0)
                else:
                    # conversion kernel + padded buffers charged per trip;
                    # the autotuner already priced that against the csrmm
                    # it replaces
                    m_op = convert_for_spmv(membership, spmm_fmt)
                    try:
                        spmm_any(m_op, dV, C=dSums, beta=0.0)
                    finally:
                        m_op.free()
                counts = np.diff(dIndptr.data)  # row-pointer mirror
                present = np.flatnonzero(counts > 0)
                new_C = dC.data.copy()
                new_C[present] = dSums.data[present] / counts[present, None]
                device.charge_kernel(
                    "divide_centroids", flops=k * d, bytes_moved=3 * k * d * 8
                )
            else:
                # ---- centroid update: sort by label + segmented reduction
                # (§IV.C): copies the dataset, sorts it, and allocates seven
                # temporaries per trip — scoped so they release every
                # iteration instead of accumulating in the outer group
                with BufferGroup() as iter_bufs:
                    dkeys = iter_bufs.add(dlabels.copy())
                    dvals = iter_bufs.add(dV.copy())
                    thrust.sort_by_key(dkeys, dvals)
                    uniq, sums = thrust.reduce_by_key(dkeys, dvals)
                    iter_bufs.add(uniq)
                    iter_bufs.add(sums)
                    ones = iter_bufs.add(device.full(dkeys.size, 1.0))
                    uniq2, counts_arr = thrust.reduce_by_key(dkeys, ones)
                    iter_bufs.add(uniq2)
                    iter_bufs.add(counts_arr)

                    counts = np.zeros(k, dtype=np.int64)
                    counts[uniq.data] = counts_arr.data.astype(np.int64)
                    new_C = dC.data.copy()
                    present = uniq.data
                    new_C[present] = sums.data / counts[present, None]
                    device.charge_kernel(
                        "divide_centroids", flops=k * d, bytes_moved=3 * k * d * 8
                    )

            # empty-cluster repair (host rule, same as the CPU path)
            new_C, labels_fixed, counts = relabel_empty_clusters(
                V_host if not isinstance(V, DeviceArray) else dV.data,
                new_C,
                dlabels.data,
                counts,
            )
            if labels_fixed is not dlabels.data:
                dlabels.data[...] = labels_fixed
            dC.data[...] = new_C

            if use_fused:
                launch(
                    tile_inertia, grid_1d(n, block),
                    dV, dC, dlabels, dHist, it - 1, n_threads=n,
                )
            else:
                history.append(_inertia(dV.data, dC.data, dlabels.data))
            if changes == 0:
                converged = True
                break

        if use_fused and it > 0:
            # batched inertia readback: one D2H for the whole history
            history = [float(x) for x in dHist.view_rows(0, it).copy_to_host()]

        # step 4: transfer the labeling result from GPU to CPU
        labels_host = dlabels.copy_to_host()
        centroids_host = dC.copy_to_host()
      finally:
        bufs.free_all()

    return KMeansResult(
        labels=labels_host,
        centroids=centroids_host,
        inertia=history[-1] if history else 0.0,
        n_iter=it,
        converged=converged,
        inertia_history=history,
    )
