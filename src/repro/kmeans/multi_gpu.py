"""Data-parallel k-means across several simulated GPUs.

The paper's platform model (§III.B) is "a host CPU and several GPUs as
co-processors" although its evaluation uses one K20c; this module carries
Algorithm 4 to the multi-device setting as the k-means stage of the
composed multi-device fit.

:func:`kmeans_composed` consumes an existing row partition (the same
``row_sets`` the sharded eigensolver ran on, so the embedding shards stay
resident and the V upload is elided), replicates :func:`kmeans_device`'s
fused+SpMM arithmetic on the full host mirror so labels, centroids, and
inertia histories are **bit-identical** to the single-device path at every
device count, and charges each Lloyd phase as concurrent per-shard kernels
laid at a common start (makespan semantics).  The centroid allreduce runs
over the peer bus — partial sums fan in to device 0, the divide happens
there, and the new centroids broadcast back — priced by the attached
:class:`~repro.hw.topology.PCIeTopology` per link pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cuda.device import Device
from repro.cuda.memory import BufferGroup
from repro.errors import ClusteringError
from repro.kmeans.utils import (
    KMeansResult,
    relabel_empty_clusters,
    validate_inputs,
)


@dataclass
class MultiDeviceTimings:
    """Simulated time accounting for a multi-GPU run.

    ``parallel_seconds`` is the makespan of the whole call;
    ``per_device_seconds`` the raw per-device busy totals.
    """

    parallel_seconds: float = 0.0
    per_device_seconds: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# composed (plan-reusing, topology-priced) multi-device k-means
# ---------------------------------------------------------------------------


class _ComposedCharger:
    """Lays per-device work onto the shared timeline and tallies the plan.

    Every kernel/transfer the composed path charges goes through here so
    the returned transfer plan and the device meters agree *by
    construction* — the same ledger==meter discipline the partitioned
    eigensolver enforces analytically.
    """

    def __init__(self, devices: list[Device]) -> None:
        self.devices = devices
        self.timeline = devices[0].timeline
        self.per_device = [0.0] * len(devices)
        self.plan = {
            "h2d_bytes": 0, "h2d_count": 0,
            "d2h_bytes": 0, "d2h_count": 0,
            "p2p_bytes": 0, "p2p_count": 0,
            "elided_bytes": 0, "elided_count": 0,
        }

    @property
    def now(self) -> float:
        return self.timeline.clock.now

    def kernel(self, d: int, name: str, start: float, flops: float,
               nbytes: float, kind: str = "stream") -> float:
        dev = self.devices[d]
        dt = dev.cost.kernel_time(flops, nbytes, kind=kind)
        self.timeline.record_at(f"{name}[dev{d}]", "kernel", start, dt)
        dev.kernel_launches += 1
        self.per_device[d] += dt
        return dt

    def spmm(self, d: int, n_rows: int, nnz: int, p: int,
             start: float) -> float:
        dev = self.devices[d]
        dt = dev.cost.spmm_time(n_rows, nnz, p, itemsize=8)
        self.timeline.record_at(f"cusparseDcsrmm[dev{d}]", "kernel", start, dt)
        dev.kernel_launches += 1
        dev.spmv_traffic_bytes += dev.cost.spmm_bytes(n_rows, nnz, p, 8)
        self.per_device[d] += dt
        return dt

    def h2d(self, d: int, nbytes: int, start: float) -> float:
        dt = self.devices[d]._record_h2d_at(nbytes, start)
        self.plan["h2d_bytes"] += nbytes
        self.plan["h2d_count"] += 1
        self.per_device[d] += dt
        return dt

    def d2h(self, d: int, nbytes: int, start: float) -> float:
        dt = self.devices[d]._record_d2h_at(nbytes, start)
        self.plan["d2h_bytes"] += nbytes
        self.plan["d2h_count"] += 1
        self.per_device[d] += dt
        return dt

    def p2p(self, dst: int, src: int, nbytes: int, start: float) -> float:
        dt = self.devices[dst]._record_p2p_at(
            nbytes, start, peer=f"dev{src}", src=src
        )
        self.plan["p2p_bytes"] += nbytes
        self.plan["p2p_count"] += 1
        self.per_device[dst] += dt
        return dt

    def elide(self, d: int, count: int, nbytes: int) -> None:
        self.devices[d].note_elided_transfer(count, nbytes)
        self.plan["elided_bytes"] += nbytes
        self.plan["elided_count"] += count


def _composed_plus_plus(
    ch: _ComposedCharger,
    row_counts: list[int],
    owner_of: np.ndarray,
    V: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ seeding for the composed path.

    Replicates :func:`~repro.kmeans.init.kmeans_plus_plus_device`'s exact
    arithmetic *and RNG consumption* (uniform draw placed by binary search
    on an inclusive scan — not the host variant's ``rng.choice``) so the
    composed seeds match the single-device GPU seeds bit-for-bit.  Charged
    time is the sharded version: each device scans its own distance shard,
    the owning shard answers the binary search, and the chosen row
    broadcasts over the peer bus.
    """
    n, d = V.shape
    p = len(ch.devices)
    C = np.empty((k, d))

    def _broadcast_row(choice: int) -> None:
        own = int(owner_of[choice])
        t0 = ch.now
        dt = ch.kernel(own, "copy_centroid", t0, 0.0, 2.0 * d * 8)
        for j in range(p):
            if j != own:
                ch.p2p(j, own, d * 8, t0 + dt)

    first = int(rng.integers(n))
    C[0] = V[first]
    _broadcast_row(first)

    diff = V - C[0]
    dist2 = np.einsum("nd,nd->n", diff, diff)
    t0 = ch.now
    for j in range(p):
        nd = row_counts[j]
        ch.kernel(j, "compute_newdist", t0, 3.0 * nd * d,
                  nd * d * 8.0 + nd * 8.0)

    scan = np.empty(n)
    for i in range(1, k):
        np.cumsum(dist2, out=scan)
        total = float(scan[-1])
        # per-shard prefix scan + one scalar readback of the shard total
        # (the single-device path reads one total; the sharded plan reads
        # one partial per device and combines on the host)
        t0 = ch.now
        for j in range(p):
            nd = row_counts[j]
            dt = ch.kernel(j, "thrust::inclusive_scan", t0,
                           2.0 * nd, 2.0 * nd * 8)
            ch.d2h(j, 8, t0 + dt)
        if total <= 0:
            choice = int(rng.integers(n))
        else:
            u = rng.uniform(0.0, total)
            choice = int(min(np.searchsorted(scan, u, side="left"), n - 1))
            own = int(owner_of[choice])
            nd = row_counts[own]
            t = ch.now
            t += ch.kernel(own, "stage_query", t, 0.0, 8.0)
            ch.kernel(own, "thrust::lower_bound", t,
                      float(max(1, int(np.log2(max(2, nd))))), 16.0,
                      kind="gather")
        C[i] = V[choice]
        _broadcast_row(choice)
        diff = V - C[i]
        new_dist2 = np.einsum("nd,nd->n", diff, diff)
        np.minimum(dist2, new_dist2, out=dist2)
        t0 = ch.now
        for j in range(p):
            nd = row_counts[j]
            dt = ch.kernel(j, "compute_newdist", t0, 3.0 * nd * d,
                           nd * d * 8.0 + nd * 8.0)
            ch.kernel(j, "thrust::transform[minimum]", t0 + dt,
                      float(nd), 3.0 * nd * 8)
    return C


def kmeans_composed(
    devices: list[Device],
    row_sets: list[np.ndarray],
    V: np.ndarray,
    k: int,
    init: str = "k-means++",
    max_iter: int = 300,
    seed: int | None = 0,
    initial_centroids: np.ndarray | None = None,
    resident: bool = False,
) -> tuple[KMeansResult, MultiDeviceTimings, dict]:
    """Algorithm 4 over an existing multi-device row partition.

    The composed stage of the one-plan fit: rows were partitioned once
    and the embedding block is already sharded across ``devices`` when
    the eigensolver hands over, so nothing is re-gathered or re-scattered
    between the stages.

    Numerics are **bit-identical** to :func:`~repro.kmeans.gpu.kmeans_device`
    on its default path (fused assignment, SpMM centroid update,
    device-side k-means++): every arithmetic step — including the seeding
    RNG consumption — runs on the full host mirror in the exact
    expression order of the single-device substrate, and row-partitioned
    execution only changes what the cost model charges (the documented
    tiling-neutrality of the platform).

    Charged time is the sharded schedule: per-iteration assignment and
    partial-centroid kernels run concurrently across devices (laid at a
    common start, so an iteration costs the makespan), partial sums fan in
    to device 0 over the peer bus, the divide runs there, and the updated
    centroids broadcast back — every peer leg priced by the devices'
    attached :class:`~repro.hw.topology.PCIeTopology`.  Per-iteration
    inertia partials cross as one scalar peer copy per secondary device
    into device 0's history buffer, which comes down once, batched, after
    convergence.

    Parameters
    ----------
    devices:
        Devices sharing one timeline (the composed plan's device group).
    row_sets:
        Per-device global row indices; together they must partition
        ``range(n)``.  Pass the eigensolver plan's ``row_sets`` to keep
        the two stages on the same layout.
    resident:
        ``True`` when the embedding shards are already device-resident
        from the previous stage: the per-shard upload is elided (recorded
        via ``note_elided_transfer``) instead of charged.

    Returns
    -------
    (result, timings, plan):
        The host-side clustering result (bit-equal to the single-device
        path), makespan timings, and the transfer plan — byte/count
        tallies for every H2D/D2H/P2P leg this call laid, which the
        consistency tests compare against the device meters.
    """
    if not devices:
        raise ClusteringError("need at least one device")
    if len(row_sets) != len(devices):
        raise ClusteringError(
            f"{len(row_sets)} row sets for {len(devices)} devices"
        )
    tl = devices[0].timeline
    if any(dev.timeline is not tl for dev in devices):
        raise ClusteringError("composed devices must share one timeline")
    V = validate_inputs(V, k)
    n, d = V.shape
    owner_of = np.full(n, -1, dtype=np.int64)
    for j, rows in enumerate(row_sets):
        owner_of[np.asarray(rows, dtype=np.int64)] = j
    if (owner_of < 0).any():
        raise ClusteringError("row_sets do not cover every row")
    row_counts = [int(np.asarray(r).size) for r in row_sets]
    p = len(devices)
    rng = np.random.default_rng(seed)

    ch = _ComposedCharger(devices)
    t_start = ch.now
    bufs = BufferGroup()
    with devices[0].stage("kmeans"):
      try:
        # ---- shard residency -------------------------------------------
        t_up = ch.now
        for j, dev in enumerate(devices):
            nd = row_counts[j]
            bufs.add(dev.empty((nd, d), dtype=np.float64))  # embedding shard
            if resident:
                ch.elide(j, 1, nd * d * 8)
            else:
                # concurrent uploads: one PCIe link per device
                ch.h2d(j, nd * d * 8, t_up)

        # ---- seeding ----------------------------------------------------
        if initial_centroids is not None:
            C = np.asarray(initial_centroids, dtype=np.float64).copy()
            if C.shape != (k, d):
                raise ClusteringError(
                    f"initial centroids have shape {C.shape}, "
                    f"expected {(k, d)}"
                )
            t0 = ch.now
            dt = ch.h2d(0, k * d * 8, t0)
            for j in range(1, p):
                ch.p2p(j, 0, k * d * 8, t0 + dt)
        elif init == "k-means++":
            C = _composed_plus_plus(ch, row_counts, owner_of, V, k, rng)
        elif init == "random":
            from repro.kmeans.init import random_init

            C = random_init(V, k, rng)
            t0 = ch.now
            dt = ch.h2d(0, k * d * 8, t0)
            for j in range(1, p):
                ch.p2p(j, 0, k * d * 8, t0 + dt)
        else:
            raise ClusteringError(f"unknown init {init!r}")

        # ---- persistent per-shard buffers ------------------------------
        for j, dev in enumerate(devices):
            nd = row_counts[j]
            bufs.add(dev.empty(nd, dtype=np.float64))        # Vnorm shard
            bufs.add(dev.empty(nd, dtype=np.int64))          # labels shard
            bufs.add(dev.empty(nd, dtype=np.int64))          # old labels
            bufs.add(dev.empty((nd, k), dtype=np.float64))   # S tile
            bufs.add(dev.empty(k + 1, dtype=np.int64))       # histogram
            bufs.add(dev.empty(k + 1, dtype=np.int64))       # indptr
            bufs.add(dev.empty(nd, dtype=np.int64))          # membership ids
            bufs.add(dev.empty((k, d), dtype=np.float64))    # partial sums
            bufs.add(dev.empty((k, d), dtype=np.float64))    # centroids
            bufs.add(dev.empty(k, dtype=np.float64))         # centroid norms
        bufs.add(devices[0].empty(max_iter, dtype=np.float64))  # history

        Vnorm = np.einsum("nd,nd->n", V, V)
        t0 = ch.now
        for j in range(p):
            nd = row_counts[j]
            ch.kernel(j, "compute_norms", t0, 2.0 * nd * d,
                      nd * d * 8.0 + nd * 8.0)

        labels = np.full(n, -1, dtype=np.int64)
        history: list[float] = []
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            # ---- assignment: concurrent fused tiles over the shards ----
            old = labels.copy()
            Cnorm = np.einsum("nd,nd->n", C, C)
            S = Vnorm[:, None] + Cnorm[None, :]
            S = -2.0 * (V @ C.T) + 1.0 * S
            labels = np.argmin(S, axis=1)
            changes = int(np.count_nonzero(labels != old))

            tA = ch.now
            ends = []
            for j in range(p):
                nd = row_counts[j]
                t = tA
                t += ch.kernel(j, "compute_norms", t, 2.0 * k * d,
                               k * d * 8.0 + k * 8.0)
                t += ch.kernel(j, "thrust::copy", t, 0.0, 2.0 * nd * 8)
                t += ch.kernel(
                    j, "fused_assign", t,
                    2.0 * nd * k * d + 2.0 * nd * k + float(nd),
                    nd * d * 8.0 + k * d * 8.0 + nd * 8.0 + k * 8.0
                    + float(nd) * k * 8 + 2.0 * nd * 8 + 8.0,
                    kind="dense",
                )
                # per-shard label-change partial: one scalar readback each
                ch.d2h(j, 8, t)
                # ---- partial centroid sums (histogram/scan/scatter/SpMM)
                t += ch.kernel(j, "label_histogram", t, float(nd),
                               nd * 8.0 + 2.0 * (k + 1) * 8, kind="gather")
                t += ch.kernel(j, "thrust::exclusive_scan", t,
                               2.0 * (k + 1), 2.0 * (k + 1) * 8)
                t += ch.kernel(j, "membership_scatter", t, float(nd),
                               2.0 * nd * 8 + (k + 1) * 8.0, kind="gather")
                t += ch.spmm(j, k, nd, d, t)
                ends.append(t)

            # ---- centroid allreduce over the peer bus ------------------
            # fan-in serializes on device 0's link; the broadcast legs
            # land concurrently (one destination link each)
            t = max(ends)
            for j in range(1, p):
                t += ch.p2p(0, j, k * d * 8 + (k + 1) * 8, t)
            if p > 1:
                t += ch.kernel(0, "reduce_partials", t,
                               float(p - 1) * (k * d + k),
                               float(p) * (k * d + k) * 8)
            t += ch.kernel(0, "divide_centroids", t, float(k * d),
                           3.0 * k * d * 8)

            # ---- centroid update numerics (exact kmeans_device order) --
            hist = np.zeros(k + 1, dtype=np.int64)
            hist[:k] = np.bincount(labels, minlength=k)
            indptr = np.cumsum(hist)
            indptr[1:] = indptr[:-1]
            indptr[0] = 0
            order = np.argsort(labels, kind="stable")
            counts = np.diff(indptr)
            gathered = V[order]
            sums = np.zeros((k, d))
            nonempty = np.flatnonzero(counts > 0)
            if nonempty.size:
                sums[nonempty] = np.add.reduceat(
                    gathered, indptr[:-1][nonempty], axis=0
                )
            present = np.flatnonzero(counts > 0)
            new_C = C.copy()
            new_C[present] = sums[present] / counts[present, None]
            new_C, labels, counts = relabel_empty_clusters(
                V, new_C, labels, counts
            )
            C = new_C

            # ---- inertia: sharded kernels, scalar partials to dev 0 ----
            t_b = ch.now
            for j in range(1, p):
                ch.p2p(j, 0, k * d * 8, t_b)
            t_i = ch.now
            for j in range(p):
                nd = row_counts[j]
                dt = ch.kernel(j, "tile_inertia", t_i,
                               3.0 * nd * d + float(nd),
                               nd * d * 8.0 + nd * 8.0 + k * d * 8.0 + 8.0)
                if j != 0:
                    ch.p2p(0, j, 8, t_i + dt)
            diff = V - C[labels]
            history.append(float(np.einsum("nd,nd->", diff, diff)))
            if changes == 0:
                converged = True
                break

        # ---- results down: batched history + label shards --------------
        if it > 0:
            ch.d2h(0, it * 8, ch.now)
        t_r = ch.now
        for j in range(p):
            ch.d2h(j, row_counts[j] * 8, t_r)
        ch.d2h(0, k * d * 8, ch.now)
      finally:
        bufs.free_all()

    timings = MultiDeviceTimings(
        parallel_seconds=ch.now - t_start,
        per_device_seconds=list(ch.per_device),
    )
    result = KMeansResult(
        labels=labels,
        centroids=C,
        inertia=history[-1] if history else 0.0,
        n_iter=it,
        converged=converged,
        inertia_history=history,
    )
    return result, timings, ch.plan
