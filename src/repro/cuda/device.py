"""The simulated CUDA device: context, allocator, timeline and cost models.

A :class:`Device` plays the role of a CUDA context bound to one GPU.  It owns

* an :class:`~repro.cuda.memory.Allocator` sized to the device memory,
* a :class:`~repro.hw.timeline.Timeline` that accumulates simulated time,
* the GPU and PCIe cost models derived from its :class:`~repro.hw.spec`.

A module-level *default device* mirrors the CUDA notion of the current
context; library code (cuBLAS/cuSPARSE/Thrust wrappers, kernels) operates on
whatever device owns its operands.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

from repro.chaos.runtime import chaos_check
from repro.cuda.allocator import AllocOutcome, CachingAllocator, PinnedHostPool
from repro.cuda.memory import Allocator, DeviceArray
from repro.hw.costmodel import GPUCostModel, TransferCostModel
from repro.hw.spec import GPUSpec, K20C, PCIE_X16_GEN2, PCIeSpec
from repro.hw.timeline import Timeline
from repro.hw.topology import PCIeTopology


class Device:
    """A simulated GPU device / CUDA context.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the paper's Tesla K20c.
    pcie:
        Link description; defaults to PCIe x16 Gen2 (Table I).
    timeline:
        Optionally share a timeline with other components (e.g. so CPU
        phases and GPU phases interleave on one clock).
    caching:
        Use the size-bucketed :class:`~repro.cuda.allocator.CachingAllocator`
        (the default); ``False`` falls back to the plain byte-counting
        allocator, paying ``cudaMalloc``/``cudaFree`` latency on every call.
    device_index:
        Slot of this device on the node (``cudaSetDevice`` ordinal); used
        to look up per-pair peer links in ``topology``.
    topology:
        Optional :class:`~repro.hw.topology.PCIeTopology` describing the
        node; when set, peer copies are priced by the link the pair
        actually crosses (same-switch direct vs. host-bridged) instead of
        the flat ``pcie`` law.
    """

    def __init__(
        self,
        spec: GPUSpec = K20C,
        pcie: PCIeSpec = PCIE_X16_GEN2,
        timeline: Timeline | None = None,
        caching: bool = True,
        device_index: int = 0,
        topology: PCIeTopology | None = None,
    ) -> None:
        self.spec = spec
        self.pcie = pcie
        self.caching = caching
        self.device_index = int(device_index)
        self.topology = topology
        self.allocator = self._make_allocator()
        self.timeline = timeline if timeline is not None else Timeline()
        self.cost = GPUCostModel(spec)
        self.transfer_cost = TransferCostModel(pcie, topology)
        #: pinned-host staging pool every async PCIe leg stages through
        self.host_pool = PinnedHostPool()
        #: stream whose free lists allocations are tagged with (see
        #: :meth:`stream_scope`); None means the default stream (id 0)
        self._alloc_scope = None
        #: issued stream ids (0 is the default stream)
        self._stream_ids_issued = 0
        #: cumulative simulated seconds by high-level class, convenience view
        self.kernel_launches = 0
        #: modeled device-memory bytes moved by SpMV/SpMM kernels — the
        #: same roofline byte expressions the cost model prices, summed so
        #: the precision ablation can gate on storage-width traffic wins
        self.spmv_traffic_bytes = 0.0
        self._reset_transfer_counters()

    def _make_allocator(self) -> Allocator:
        if self.caching:
            return CachingAllocator(self.spec.memory_bytes)
        return Allocator(self.spec.memory_bytes)

    def _reset_transfer_counters(self) -> None:
        #: PCIe traffic counters (observability; time lives on the timeline)
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        #: peer (device-to-device) traffic, counted on the destination device
        self.bytes_p2p = 0
        self.n_h2d = 0
        self.n_d2h = 0
        self.n_p2p = 0
        #: transfers the GPU-resident eigensolver never issued
        self.transfers_elided = 0
        self.bytes_elided = 0
        #: seconds of transfer time hidden behind already-scheduled work
        self.transfer_overlap_s = 0.0

    # ------------------------------------------------------------------
    # allocation + movement
    # ------------------------------------------------------------------
    def _issue_stream_id(self) -> int:
        """Hand a fresh non-default stream id to a new :class:`Stream`."""
        self._stream_ids_issued += 1
        return self._stream_ids_issued

    def _alloc_stream_id(self) -> int:
        scope = self._alloc_scope
        return scope.stream_id if scope is not None else 0

    def _alloc_ready(self) -> float:
        """When the current scope's in-flight work — and therefore the free
        event of a block released now — completes."""
        scope = self._alloc_scope
        if scope is not None:
            return max(self.elapsed, scope.free_at)
        return self.elapsed

    @contextlib.contextmanager
    def stream_scope(self, stream) -> Iterator[None]:
        """Tag allocations/frees inside the block with ``stream``'s id.

        The allocator analogue of ``cudaStreamSetAttribute``-era stream
        association: blocks freed under the scope carry the stream's
        horizon as their free-event time, so other streams may only reuse
        them once that work has drained (see
        :class:`~repro.cuda.allocator.CachingAllocator`).
        """
        prev = self._alloc_scope
        self._alloc_scope = stream
        try:
            yield
        finally:
            self._alloc_scope = prev

    def _new_array(self, data: np.ndarray) -> DeviceArray:
        # The fault site runs before the cache is consulted, so injected
        # OOM faults surface even when the request would have been a hit.
        chaos_check("cuda.alloc", self, nbytes=data.nbytes)
        if isinstance(self.allocator, CachingAllocator):
            outcome = self.allocator.allocate(
                data.nbytes, stream=self._alloc_stream_id(), now=self.elapsed
            )
        else:
            outcome = self.allocator.allocate(data.nbytes)
        if isinstance(outcome, AllocOutcome):
            if outcome.flushed_segments:
                self.timeline.record(
                    f"cudaFree[cache-trim x{outcome.flushed_segments}]",
                    "overhead",
                    outcome.flushed_segments * self.spec.free_overhead_s,
                )
            if not outcome.hit:
                self.timeline.record(
                    "cudaMalloc", "overhead", self.spec.malloc_overhead_s
                )
        else:  # plain allocator: every call is a real cudaMalloc
            self.timeline.record(
                "cudaMalloc", "overhead", self.spec.malloc_overhead_s
            )
        return DeviceArray(data, self)

    def _release(self, nbytes: int) -> None:
        if isinstance(self.allocator, CachingAllocator):
            real_free = self.allocator.release(
                nbytes, stream=self._alloc_stream_id(), ready=self._alloc_ready()
            )
        else:
            real_free = self.allocator.release(nbytes)
        if real_free is None or real_free:
            # plain allocator (returns None) or an uncached large block
            self.timeline.record("cudaFree", "overhead", self.spec.free_overhead_s)

    @contextlib.contextmanager
    def scratch(self, nbytes: int) -> Iterator[None]:
        """Temporary device storage for one thrust/CUB call.

        The ``ThrustAllocator`` pattern: sort double buffers and scan tile
        state come from the caching allocator's free lists (usually a hit —
        no ``cudaMalloc`` latency) and return there when the call ends.
        Scratch traffic keeps separate counters so steady-state *array*
        allocation invariants stay visible.  Not a chaos fault site: the
        enclosing thrust call's kernel site already covers injection.
        """
        nbytes = int(nbytes)
        if isinstance(self.allocator, CachingAllocator):
            outcome = self.allocator.allocate_scratch(
                nbytes, stream=self._alloc_stream_id(), now=self.elapsed
            )
            if outcome.flushed_segments:
                self.timeline.record(
                    f"cudaFree[cache-trim x{outcome.flushed_segments}]",
                    "overhead",
                    outcome.flushed_segments * self.spec.free_overhead_s,
                )
            if not outcome.hit:
                self.timeline.record(
                    "cudaMalloc", "overhead", self.spec.malloc_overhead_s
                )
            try:
                yield
            finally:
                self.allocator.release_scratch(
                    nbytes, stream=self._alloc_stream_id(), ready=self._alloc_ready()
                )
        else:  # plain allocator: scratch is a real malloc/free round trip
            self.allocator.allocate(nbytes)
            self.timeline.record(
                "cudaMalloc", "overhead", self.spec.malloc_overhead_s
            )
            try:
                yield
            finally:
                self.allocator.release(nbytes)
                self.timeline.record(
                    "cudaFree", "overhead", self.spec.free_overhead_s
                )

    def empty(self, shape: int | Sequence[int], dtype=np.float64) -> DeviceArray:
        """``cudaMalloc`` without initialization."""
        return self._new_array(np.empty(shape, dtype=dtype))

    def reserve(
        self, shape: int | Sequence[int], dtype=np.float64
    ) -> DeviceArray:
        """``cudaMalloc`` of a buffer only the cost model reads: the same
        fault site, allocator request and timeline events as :meth:`empty`,
        backed by no host storage (a read-only zero-stride view)."""
        return self._new_array(
            np.broadcast_to(np.zeros((), dtype=dtype), shape)
        )

    def zeros(self, shape: int | Sequence[int], dtype=np.float64) -> DeviceArray:
        """Allocate and ``cudaMemset`` to zero (charges a streaming kernel)."""
        arr = self._new_array(np.zeros(shape, dtype=dtype))
        self.charge_kernel("cudaMemset", flops=0, bytes_moved=arr.nbytes)
        return arr

    def full(
        self, shape: int | Sequence[int], fill_value: float, dtype=np.float64
    ) -> DeviceArray:
        """Allocate and fill with a constant (Thrust ``fill``)."""
        arr = self._new_array(np.full(shape, fill_value, dtype=dtype))
        self.charge_kernel("thrust::fill", flops=0, bytes_moved=arr.nbytes)
        return arr

    def to_device(self, host: np.ndarray, dtype=None) -> DeviceArray:
        """Allocate on the device and copy a host array over PCIe."""
        host = np.ascontiguousarray(host, dtype=dtype)
        arr = self._new_array(host.copy())
        try:
            self._record_h2d(host.nbytes)
        except BaseException:
            # a failed upload must not leak the fresh allocation
            arr.free()
            raise
        return arr

    # ------------------------------------------------------------------
    # time accounting
    # ------------------------------------------------------------------
    def _record_h2d(self, nbytes: int) -> None:
        chaos_check("cuda.h2d", self, nbytes=nbytes)
        self.host_pool.stage(nbytes)
        self.timeline.record(
            f"memcpyH2D[{nbytes}B]", "h2d", self.transfer_cost.h2d_time(nbytes)
        )
        self.n_h2d += 1
        self.bytes_h2d += nbytes

    def _record_d2h(self, nbytes: int) -> None:
        chaos_check("cuda.d2h", self, nbytes=nbytes)
        self.host_pool.stage(nbytes)
        self.timeline.record(
            f"memcpyD2H[{nbytes}B]", "d2h", self.transfer_cost.d2h_time(nbytes)
        )
        self.n_d2h += 1
        self.bytes_d2h += nbytes

    def _record_h2d_at(self, nbytes: int, start: float) -> float:
        """Asynchronous H2D (``cudaMemcpyAsync`` from pinned memory): the
        transfer is laid onto the timeline at an absolute start so it can
        overlap already-recorded kernel work.  Returns its duration."""
        chaos_check("cuda.h2d", self, nbytes=nbytes)
        self.host_pool.stage(nbytes)
        dt = self.transfer_cost.h2d_time(nbytes)
        before = self.timeline.clock.now
        self.timeline.record_at(f"memcpyH2DAsync[{nbytes}B]", "h2d", start, dt)
        self.n_h2d += 1
        self.bytes_h2d += nbytes
        self.transfer_overlap_s += max(0.0, min(start + dt, before) - start)
        return dt

    def _record_d2h_at(self, nbytes: int, start: float) -> float:
        """Asynchronous D2H into a pinned staging buffer (see
        :meth:`_record_h2d_at`)."""
        chaos_check("cuda.d2h", self, nbytes=nbytes)
        self.host_pool.stage(nbytes)
        dt = self.transfer_cost.d2h_time(nbytes)
        before = self.timeline.clock.now
        self.timeline.record_at(f"memcpyD2HAsync[{nbytes}B]", "d2h", start, dt)
        self.n_d2h += 1
        self.bytes_d2h += nbytes
        self.transfer_overlap_s += max(0.0, min(start + dt, before) - start)
        return dt

    def _record_p2p_at(
        self, nbytes: int, start: float, peer: str = "", src: int | None = None
    ) -> float:
        """Asynchronous peer copy (``cudaMemcpyPeerAsync``) *into* this
        device, laid onto the timeline at an absolute start time so halo
        exchanges overlap local kernel work.  Traffic is counted on the
        destination device.  ``src`` is the source device slot; with a
        topology attached it selects the per-pair link law (direct vs.
        host-bridged).  Returns the transfer duration."""
        chaos_check("cuda.p2p", self, nbytes=nbytes)
        dt = self.transfer_cost.p2p_time(nbytes, src=src, dst=self.device_index)
        before = self.timeline.clock.now
        label = f"memcpyPeerAsync[{nbytes}B{'<-' + peer if peer else ''}]"
        self.timeline.record_at(label, "p2p", start, dt)
        self.n_p2p += 1
        self.bytes_p2p += nbytes
        self.transfer_overlap_s += max(0.0, min(start + dt, before) - start)
        return dt

    def note_elided_transfer(self, count: int, nbytes: int) -> None:
        """Account for PCIe crossings a device-resident data path avoided."""
        self.transfers_elided += count
        self.bytes_elided += nbytes

    def charge_scalar_d2h(self, nbytes: int = 8) -> None:
        """Charge a scalar readback (device -> host) over PCIe.

        The public surface for latency-bound control-flow reads: a
        convergence counter, a dot product, a norm.  The transfer is
        dominated by link latency, not bandwidth, and shows up in
        :meth:`transfer_stats` like any other D2H crossing.
        """
        self._record_d2h(nbytes)

    def charge_kernel(
        self,
        name: str,
        flops: float,
        bytes_moved: float,
        kind: str = "stream",
        itemsize: int = 8,
    ) -> float:
        """Charge one kernel launch to the timeline; returns its duration."""
        dt = self.cost.kernel_time(flops, bytes_moved, kind=kind, itemsize=itemsize)
        self.timeline.record(name, "kernel", dt)
        self.kernel_launches += 1
        return dt

    def charge_cpu(self, name: str, seconds: float) -> float:
        """Charge a host-side phase (modeled CPU work) to the shared timeline."""
        self.timeline.record(name, "cpu", seconds)
        return seconds

    @contextlib.contextmanager
    def stage(self, tag: str) -> Iterator[None]:
        """Tag all events recorded inside the block with a stage label."""
        prev = self.timeline._tag
        self.timeline.set_tag(tag)
        try:
            yield
        finally:
            self.timeline.set_tag(prev)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Total simulated seconds on this device's timeline."""
        return self.timeline.clock.now

    def memory_info(self) -> tuple[int, int]:
        """(free, total) device memory in bytes, like ``cudaMemGetInfo``."""
        return self.allocator.free_bytes, self.allocator.capacity_bytes

    def alloc_stats(self) -> dict:
        """Allocator counters (hits/misses/reserve) for profiling surfaces."""
        if isinstance(self.allocator, CachingAllocator):
            return self.allocator.stats()
        return {
            "caching": False,
            "hits": 0,
            "misses": self.allocator.alloc_count,
            "hit_rate": 0.0,
            "flushes": 0,
            "segment_frees": 0,
            "splits": 0,
            "coalesces": 0,
            "same_stream_hits": 0,
            "event_gated_hits": 0,
            "blocked_reuses": 0,
            "scratch_requests": 0,
            "scratch_hits": 0,
            "scratch_bytes": 0,
            "bytes_in_use": self.allocator.used_bytes,
            "bytes_reserved": self.allocator.used_bytes,
            "bytes_cached": 0,
            "peak_bytes_in_use": self.allocator.peak_bytes,
            "peak_bytes_reserved": self.allocator.peak_bytes,
        }

    def transfer_stats(self) -> dict:
        """PCIe traffic counters (bytes moved, elisions, overlap) plus the
        pinned-host staging pool the async legs ride through."""
        out = {
            "bytes_h2d": self.bytes_h2d,
            "bytes_d2h": self.bytes_d2h,
            "bytes_p2p": self.bytes_p2p,
            "n_h2d": self.n_h2d,
            "n_d2h": self.n_d2h,
            "n_p2p": self.n_p2p,
            "transfers_elided": self.transfers_elided,
            "bytes_elided": self.bytes_elided,
            "overlap_s": self.transfer_overlap_s,
        }
        out.update(self.host_pool.stats())
        return out

    def reset(self) -> None:
        """Clear the timeline and allocation statistics (new context)."""
        self.timeline.clear()
        self.allocator = self._make_allocator()
        self.kernel_launches = 0
        self.spmv_traffic_bytes = 0.0
        self._reset_transfer_counters()
        self.host_pool = PinnedHostPool()
        self._alloc_scope = None
        self._stream_ids_issued = 0

    def __repr__(self) -> str:
        used = self.allocator.used_bytes
        return (
            f"<Device {self.spec.name!r} mem={used}/{self.spec.memory_bytes}B "
            f"t={self.elapsed:.6f}s>"
        )


_default_device: Device | None = None


def get_default_device() -> Device:
    """Return the process-wide default device, creating a K20c on first use."""
    global _default_device
    if _default_device is None:
        _default_device = Device()
    return _default_device


def set_default_device(device: Device | None) -> None:
    """Replace the process-wide default device (None resets to lazy K20c)."""
    global _default_device
    _default_device = device


@contextlib.contextmanager
def default_device(device: Device) -> Iterator[Device]:
    """Temporarily install ``device`` as the default (scoped context)."""
    global _default_device
    prev = _default_device
    _default_device = device
    try:
        yield device
    finally:
        _default_device = prev
