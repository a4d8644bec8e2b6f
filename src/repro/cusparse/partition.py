"""Row-partitioned sparse matrices and the multi-device SpMV/SpMM.

The multi-GPU eigensolver follows the classic distributed-memory Lanczos
recipe (1-D row partitioning with communication/computation overlap):

* the matrix is split into contiguous **row blocks**, one per device,
  balanced by nnz (row-count splits starve or overload devices on skewed
  degree distributions);
* on each device the block's columns are split into a **local** part
  (columns owned by this device — the x entries are already resident)
  and a **halo** part (columns owned by peers);
* per product, the local kernel launches immediately while the halo
  segments of the iteration vector travel device-to-device over the
  modeled bus (``cudaMemcpyPeerAsync`` on a dedicated copy stream per
  device); the halo kernel is enqueued right behind the local kernel on
  the same stream, so it starts as soon as both the local pass and the
  last halo segment have finished — and its dispatch latency hides
  behind the local kernel's execution.

Bit-identity invariant
----------------------
Numerics never change with the device count: a :class:`PartitionedCSR`
shares the :class:`~repro.cusparse.substrate.Substrate` of the matrix it
was split from, so :func:`spmv_partitioned`/:func:`spmm_partitioned`
compute the one substrate product that
:func:`~repro.cusparse.spmv.csrmv`/:func:`~repro.cusparse.spmm.csrmm`
compute on one device.  Partitioning changes only the *charged time*
(and where the bytes flow), never a float, which is what pins
multi-device spectra to the single-device path bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.runtime import chaos_check
from repro.cuda.device import Device
from repro.cuda.memory import BufferGroup, DeviceArray
from repro.cuda.stream import Stream
from repro.cusparse.matrices import DeviceCSR
from repro.cusparse.substrate import Substrate, charge
from repro.errors import SparseValueError
from repro.hw.costmodel import TransferCostModel
from repro.hw.topology import paper_topology
from repro.precision import kernel_letter


def _check_split(n: int, n_devices: int) -> None:
    if n_devices < 1:
        raise SparseValueError(f"n_devices must be >= 1, got {n_devices}")
    if n < n_devices:
        raise SparseValueError(
            f"cannot split {n} rows across {n_devices} devices"
        )


def partition_bounds_nnz(indptr: np.ndarray, n_devices: int) -> np.ndarray:
    """Contiguous row-block bounds balanced by **nnz**:
    ``bounds[d]:bounds[d+1]`` is device ``d``'s block.

    Each cut lands where the cumulative nnz (which ``indptr`` already is)
    crosses the next ``total/p`` target, so every device owns roughly the
    same number of matrix entries — the quantity SpMV time actually
    scales with (an even row-count split starves or overloads devices on
    skewed degree distributions).  Cuts are clamped so every device keeps
    at least one row.
    """
    n = len(indptr) - 1
    _check_split(n, n_devices)
    bounds = np.empty(n_devices + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[n_devices] = n
    total = int(indptr[-1])
    prev = 0
    for d in range(1, n_devices):
        target = total * d / n_devices
        cut = int(np.searchsorted(indptr, target, side="left"))
        # keep >= 1 row per device on both sides of the cut
        cut = max(prev + 1, min(cut, n - (n_devices - d)))
        bounds[d] = cut
        prev = cut
    return bounds


def device_group(device: Device, n_devices: int) -> list[Device]:
    """``device`` plus ``n_devices - 1`` peers sharing its timeline.

    Every member, the primary included (slot 0), is wired to one
    :func:`~repro.hw.topology.paper_topology`, so halo and allreduce
    copies price per (src, dst) pair.  The primary is mutated in place.
    """
    topo = paper_topology(n_devices)
    device.device_index = 0
    device.topology = topo
    device.transfer_cost = TransferCostModel(device.pcie, topo)
    return [device] + [
        Device(
            device.spec, device.pcie, timeline=device.timeline,
            device_index=d, topology=topo,
        )
        for d in range(1, n_devices)
    ]




@dataclass
class CSRShard:
    """One device's row block, stored as split local + halo CSR parts.

    ``rows`` holds the global row ids this device owns (a contiguous
    range).  ``local_indices`` are offsets into the device's own x shard;
    ``halo_indices`` are offsets into ``halo_buf``, the receive buffer
    the peer copies land in.  ``halo_cols`` (host metadata) maps
    those slots back to global column ids, and ``halo_src_counts[e]``
    says how many of them device ``e`` owns — one peer copy per nonzero
    entry per product.
    """

    device: Device
    index: int
    rows: np.ndarray
    local_indptr: DeviceArray
    local_indices: DeviceArray
    local_val: DeviceArray
    halo_indptr: DeviceArray
    halo_indices: DeviceArray
    halo_val: DeviceArray
    halo_buf: DeviceArray
    halo_cols: np.ndarray = field(repr=False)
    halo_src_counts: np.ndarray = field(repr=False)
    copy_stream: Stream = field(repr=False, default=None)

    @property
    def n_rows(self) -> int:
        return int(self.rows.size)

    @property
    def nnz_local(self) -> int:
        return self.local_val.size

    @property
    def nnz_halo(self) -> int:
        return self.halo_val.size

    @property
    def halo_count(self) -> int:
        """Distinct off-device x entries this shard receives per SpMV."""
        return int(self.halo_cols.size)

    def free(self) -> None:
        for arr in (
            self.local_indptr, self.local_indices, self.local_val,
            self.halo_indptr, self.halo_indices, self.halo_val,
            self.halo_buf,
        ):
            arr.free()


@dataclass
class PartitionedCSR:
    """A CSR matrix split into per-device row blocks, computing through
    the source matrix's substrate."""

    shape: tuple[int, int]
    nnz: int
    #: contiguous block boundaries: device ``d`` owns ``bounds[d]:bounds[d+1]``
    bounds: np.ndarray
    shards: list[CSRShard]
    substrate: Substrate = field(repr=False)

    @property
    def n_devices(self) -> int:
        return len(self.shards)

    @property
    def row_counts(self) -> tuple[int, ...]:
        return tuple(s.n_rows for s in self.shards)

    @property
    def halo_counts(self) -> tuple[int, ...]:
        """Per-device count of x entries received per SpMV."""
        return tuple(s.halo_count for s in self.shards)

    @property
    def halo_pairs(self) -> int:
        """Number of (destination, source) peer copies issued per SpMV."""
        return int(sum(np.count_nonzero(s.halo_src_counts) for s in self.shards))

    def step_halo_bytes(self, itemsize: int = 8) -> int:
        """Peer-exchange bytes one SpMV moves over the bus."""
        return sum(self.halo_counts) * itemsize

    @property
    def shard_upload_bytes(self) -> int:
        """One-time P2P bytes that distributed the row blocks from device 0."""
        return self._shard_upload_bytes

    _shard_upload_bytes: int = 0

    def free(self) -> None:
        for s in self.shards:
            s.free()
        self.shards = []


def _split_row_block(
    indptr: np.ndarray,
    indices: np.ndarray,
    vals: np.ndarray,
    bounds: np.ndarray,
    d: int,
):
    """Host-side split of device ``d``'s row block into local/halo pieces
    (a column is local when it falls inside the block's row range)."""
    lo, hi = int(bounds[d]), int(bounds[d + 1])
    nd = hi - lo
    start, end = int(indptr[lo]), int(indptr[hi])
    seg_rows = np.repeat(
        np.arange(nd, dtype=np.int64), np.diff(indptr[lo : hi + 1])
    )
    seg_cols = indices[start:end]
    seg_vals = vals[start:end]
    local_mask = (seg_cols >= lo) & (seg_cols < hi)

    def _csr_piece(mask):
        piece_counts = np.bincount(seg_rows[mask], minlength=nd)
        piece_indptr = np.zeros(nd + 1, dtype=np.int64)
        np.cumsum(piece_counts, out=piece_indptr[1:])
        return piece_indptr

    local_indptr = _csr_piece(local_mask)
    local_cols = seg_cols[local_mask] - lo
    local_vals = seg_vals[local_mask]

    halo_mask = ~local_mask
    halo_indptr = _csr_piece(halo_mask)
    halo_global = seg_cols[halo_mask]
    halo_cols, halo_slots = np.unique(halo_global, return_inverse=True)
    halo_vals = seg_vals[halo_mask]
    owner = np.searchsorted(bounds, halo_cols, side="right") - 1
    src_counts = np.bincount(owner, minlength=bounds.size - 1)
    return (
        local_indptr, local_cols, local_vals,
        halo_indptr, halo_slots.astype(np.int64), halo_vals,
        halo_cols, src_counts,
        end - start,
    )


def partition_csr(A: DeviceCSR, devices: list[Device]) -> PartitionedCSR:
    """Split ``A`` into nnz-balanced contiguous row blocks
    (:func:`partition_bounds_nnz`) with local/halo column parts.

    Device 0 (which holds ``A``) keeps its row block in place; every other
    device receives its raw rows over the modeled bus as one peer copy on
    its halo copy stream (``indptr`` slice + column indices + values),
    concurrently across devices.  Each device then runs one streaming
    *split* kernel reordering the rows into the local/halo layout.  All
    of this is charged onto the shared timeline at absolute times, so the
    setup cost is the makespan over devices, not the sum.
    """
    n, m = A.shape
    if n != m:
        raise SparseValueError(
            f"partition_csr needs a square operator, got shape {A.shape}"
        )
    if not devices:
        raise SparseValueError("partition_csr needs at least one device")
    timeline = devices[0].timeline
    for dev in devices[1:]:
        if dev.timeline is not timeline:
            raise SparseValueError(
                "all devices must share one timeline (one simulated platform)"
            )
    indptr = A.indptr.data
    indices = A.indices.data
    vals = A.val.data
    bounds = partition_bounds_nnz(indptr, len(devices))

    shards: list[CSRShard] = []
    bufs = BufferGroup()
    block_nnz: list[int] = []
    try:
        for d, dev in enumerate(devices):
            (
                l_indptr, l_cols, l_vals,
                h_indptr, h_slots, h_vals,
                h_cols, src_counts,
                rnnz,
            ) = _split_row_block(indptr, indices, vals, bounds, d)
            nd = int(bounds[d + 1] - bounds[d])
            shard = CSRShard(
                device=dev,
                index=d,
                rows=np.arange(bounds[d], bounds[d + 1], dtype=np.int64),
                local_indptr=bufs.add(dev.empty(nd + 1, dtype=np.int64)),
                local_indices=bufs.add(
                    dev.empty(max(l_cols.size, 1), dtype=np.int64)
                ),
                local_val=bufs.add(dev.empty(l_vals.size, dtype=vals.dtype)),
                halo_indptr=bufs.add(dev.empty(nd + 1, dtype=np.int64)),
                halo_indices=bufs.add(
                    dev.empty(max(h_slots.size, 1), dtype=np.int64)
                ),
                halo_val=bufs.add(dev.empty(h_vals.size, dtype=vals.dtype)),
                halo_buf=bufs.add(dev.empty(max(h_cols.size, 1), dtype=vals.dtype)),
                halo_cols=h_cols,
                halo_src_counts=src_counts,
                copy_stream=Stream(dev, name=f"dev{d}/halo"),
            )
            shard.local_indptr.data[...] = l_indptr
            shard.local_indices.data[: l_cols.size] = l_cols
            shard.local_val.data[...] = l_vals
            shard.halo_indptr.data[...] = h_indptr
            shard.halo_indices.data[: h_slots.size] = h_slots
            shard.halo_val.data[...] = h_vals
            shards.append(shard)
            block_nnz.append(rnnz)
    except BaseException:
        bufs.free_all()
        raise

    # lay the distribution onto the timeline: peer copies of the raw row
    # blocks (devices 1..p-1, concurrent — each destination has its own
    # link) followed by one split kernel per device
    t0 = timeline.clock.now
    upload_bytes = 0
    vs = vals.dtype.itemsize
    try:
        for d, shard in enumerate(shards):
            dev = shard.device
            nd = shard.n_rows
            rnnz = block_nnz[d]
            ready = t0
            if d > 0:
                # indptr slice + int64 column indices + values at their
                # storage width
                nbytes = (nd + 1) * 8 + rnnz * 8 + rnnz * vs
                _, ready = shard.copy_stream.enqueue_p2p(
                    nbytes, ready_at=t0, peer="dev0", src=0
                )
                upload_bytes += nbytes
            # split pass: stream the block in, write local + halo layout out
            split_bytes = 2.0 * (rnnz * (vs + 4) + (nd + 1) * 8)
            dt = dev.cost.kernel_time(0.0, split_bytes, kind="stream")
            timeline.record_at(
                f"partition_split[dev{d}]", "kernel", ready, dt
            )
            dev.kernel_launches += 1
    except BaseException:
        bufs.free_all()
        raise

    out = PartitionedCSR(
        shape=A.shape,
        nnz=A.nnz,
        bounds=bounds,
        shards=shards,
        substrate=A.substrate,
    )
    out._shard_upload_bytes = upload_bytes
    return out


def _shard_costs(cost, shard: CSRShard, width: int | None, vs: int):
    """``(local s, local bytes, halo s, halo bytes)`` of one shard's
    product: SpMV when ``width`` is None, else a ``width``-column SpMM."""
    r, zl, zh = shard.n_rows, shard.nnz_local, shard.nnz_halo
    if width is None:
        return (
            cost.spmv_time(r, zl, itemsize=vs), cost.spmv_bytes(r, zl, vs),
            cost.spmv_halo_time(r, zh, itemsize=vs),
            cost.spmv_halo_bytes(r, zh, vs),
        )
    return (
        cost.spmm_time(r, zl, width, itemsize=vs),
        cost.spmm_bytes(r, zl, width, vs),
        cost.spmm_halo_time(r, zh, width, itemsize=vs),
        cost.spmm_halo_bytes(r, zh, width, vs),
    )


def _charge_shards(P: PartitionedCSR, x: np.ndarray, width: int | None) -> None:
    """Lay one multi-device product onto the shared timeline.

    Per device, at a common start ``t0``:

    1. the **local kernel** (owned columns) launches at ``t0``;
    2. the **halo copies** — one ``cudaMemcpyPeerAsync`` per contributing
       peer carrying ``width`` columns of each off-device x row,
       serialized on the device's halo copy stream (they share the
       destination's bus link) — also start at ``t0``;
    3. the **halo kernel** starts at ``max(local end, last halo
       arrival)``.  It was enqueued back-to-back behind the local kernel
       on the same stream, so its dispatch overhead is hidden
       (:meth:`~repro.hw.costmodel.GPUCostModel.spmv_halo_time` charges
       no launch overhead).

    The clock advances to the latest end over all devices — the product's
    cost is the makespan, which is where the multi-device speedup (and
    the small-graph latency floor) comes from.
    """
    timeline = P.shards[0].device.timeline
    t0 = timeline.clock.now
    vs = P.substrate.vals.dtype.itemsize
    kernel = "csrmv" if width is None else "csrmm"
    name = f"cusparse{kernel_letter(vs)}{kernel}"
    cols = 1 if width is None else width
    for shard in P.shards:
        dev, d = shard.device, shard.index
        chaos_check(f"cusparse.{kernel}", dev)
        dt_local, local_bytes, dt_halo, halo_bytes = _shard_costs(
            dev.cost, shard, width, vs
        )
        charge(dev, f"{name}[local,dev{d}]", dt_local, local_bytes, start=t0)
        arrival = t0
        for src, count in enumerate(shard.halo_src_counts):
            if count == 0:
                continue
            _, arrival = shard.copy_stream.enqueue_p2p(
                int(count) * cols * vs, ready_at=t0, peer=f"dev{src}", src=src
            )
        if shard.nnz_halo > 0:
            charge(
                dev, f"{name}[halo,dev{d}]", dt_halo, halo_bytes,
                start=max(t0 + dt_local, arrival),
            )
            if width is None:
                # the halo gather reads the freshly landed x segments
                shard.halo_buf.data[: shard.halo_count] = x[shard.halo_cols]


def _store(prod: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return prod
    out[...] = prod
    return out


def spmv_partitioned(
    P: PartitionedCSR, x: np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """One multi-device SpMV over the row-partitioned operator (charged
    as in :func:`_charge_shards`); the product is the substrate SpMV,
    bit-identical to single-device :func:`~repro.cusparse.spmv.csrmv`."""
    n = P.shape[0]
    if x.shape != (n,):
        raise SparseValueError(
            f"spmv_partitioned: operator is {P.shape}, x has shape {x.shape}"
        )
    _charge_shards(P, x, None)
    return _store(P.substrate.spmv(x), y)


def spmm_partitioned(
    P: PartitionedCSR, B: np.ndarray, C: np.ndarray | None = None
) -> np.ndarray:
    """One multi-device SpMM over the row-partitioned operator.

    Block analogue of :func:`spmv_partitioned` for the power-iteration and
    compressive embeddings: the halo *rows* of B (``halo_count × p``
    values) travel peer-to-peer.  The product is the substrate SpMM,
    bit-identical to :func:`~repro.cusparse.spmm.csrmm` — the device
    count never changes a float of the block product.
    """
    n = P.shape[0]
    if B.ndim != 2 or B.shape[0] != n:
        raise SparseValueError(
            f"spmm_partitioned: operator is {P.shape}, B has shape {B.shape}"
        )
    _charge_shards(P, B, B.shape[1])
    return _store(P.substrate.spmm(B), C)
