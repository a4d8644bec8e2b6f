"""Caching device allocator: bucketing, reuse, flush-and-retry, stats."""

import numpy as np
import pytest

from repro import SpectralClustering
from repro.chaos import FaultPlan, FaultSpec
from repro.chaos.runtime import chaos
from repro.core.workflow import hybrid_eigensolver
from repro.cuda.allocator import (
    CachingAllocator,
    LARGE_BLOCK_THRESHOLD,
    MIN_BUCKET_BYTES,
    bucket_bytes,
)
from repro.cuda.device import Device
from repro.cuda.profiler import Profiler
from repro.cusparse.matrices import coo_to_device
from repro.errors import DeviceMemoryError
from repro.graph.laplacian import device_sym_normalize


def parked(alloc, bucket):
    """Number of blocks parked on one bucket's free list."""
    return alloc._free_lists.get(bucket, 0)


class TestBucketing:
    def test_rounds_to_512_multiples(self):
        assert bucket_bytes(0) == 0
        assert bucket_bytes(1) == MIN_BUCKET_BYTES
        assert bucket_bytes(MIN_BUCKET_BYTES) == MIN_BUCKET_BYTES
        assert bucket_bytes(MIN_BUCKET_BYTES + 1) == 2 * MIN_BUCKET_BYTES
        assert bucket_bytes(8000) == 8192

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bucket_bytes(-1)

    def test_fragmentation_bounded_per_block(self):
        """512 B classes waste < 512 B per block, unlike power-of-two."""
        for req in (513, 1000, 77777, 1 << 20):
            assert 0 <= bucket_bytes(req) - req < MIN_BUCKET_BYTES


class TestReuse:
    def test_free_then_alloc_same_class_is_hit(self):
        a = CachingAllocator(1 << 20)
        a.allocate(1000)
        a.release(1000)
        reserved = a.reserved_bytes
        out = a.allocate(900)  # same 1024 B class
        assert out.hit
        assert a.reserved_bytes == reserved  # no new reservation
        assert a.n_hits == 1 and a.n_misses == 1

    def test_different_class_is_miss(self):
        a = CachingAllocator(1 << 20)
        a.allocate(512)
        a.release(512)
        out = a.allocate(5000)
        assert not out.hit
        assert a.cached_blocks == 1  # the 512 B block is still parked

    def test_release_parks_instead_of_shrinking(self):
        a = CachingAllocator(1 << 20)
        a.allocate(4096)
        a.release(4096)
        assert a.used_bytes == 0
        assert a.reserved_bytes == 4096
        assert a.cached_bytes == 4096

    def test_used_vs_reserved_gap_is_fragmentation(self):
        a = CachingAllocator(1 << 20)
        a.allocate(100)
        assert a.used_bytes == 100
        assert a.reserved_bytes == MIN_BUCKET_BYTES
        s = a.stats()
        assert s["bytes_in_use"] == 100
        assert s["bytes_reserved"] == MIN_BUCKET_BYTES

    def test_free_bytes_counts_parked_blocks(self):
        a = CachingAllocator(10 * MIN_BUCKET_BYTES)
        a.allocate(MIN_BUCKET_BYTES)
        assert a.free_bytes == 9 * MIN_BUCKET_BYTES
        a.release(MIN_BUCKET_BYTES)
        # parked blocks are reclaimable via flush-and-retry
        assert a.free_bytes == 10 * MIN_BUCKET_BYTES


class TestLargeBlocks:
    def test_large_block_never_cached(self):
        a = CachingAllocator(1 << 30, large_threshold=1 << 20)
        big = (1 << 20) + 1
        a.allocate(big)
        real_free = a.release(big)
        assert real_free  # eager cudaFree
        assert a.cached_blocks == 0
        assert a.reserved_bytes == 0
        assert a.n_segment_frees == 1

    def test_default_threshold_is_256mb(self):
        assert LARGE_BLOCK_THRESHOLD == 256 * 1024 * 1024


class TestFlushAndRetry:
    def test_flush_reclaims_parked_blocks(self):
        a = CachingAllocator(4 * MIN_BUCKET_BYTES)
        for _ in range(4):
            a.allocate(MIN_BUCKET_BYTES)
        for _ in range(4):
            a.release(MIN_BUCKET_BYTES)
        # capacity fully parked in 512 B blocks; a 2048 B request must
        # flush them back to the driver before it can reserve
        out = a.allocate(4 * MIN_BUCKET_BYTES)
        assert not out.hit
        assert out.flushed_segments == 4
        assert a.n_flushes == 1
        assert a.n_segment_frees == 4
        # the reservation invariant holds through the flush
        assert a.reserved_bytes == 4 * MIN_BUCKET_BYTES
        assert a.cached_bytes == 0
        assert a.used_bytes == 4 * MIN_BUCKET_BYTES

    def test_oom_when_flush_is_not_enough(self):
        a = CachingAllocator(2 * MIN_BUCKET_BYTES)
        a.allocate(MIN_BUCKET_BYTES)
        with pytest.raises(DeviceMemoryError):
            a.allocate(4 * MIN_BUCKET_BYTES)

    def test_empty_cache_returns_segment_count(self):
        a = CachingAllocator(1 << 20)
        for nb in (100, 100, 5000):
            a.allocate(nb)
        for nb in (100, 100, 5000):
            a.release(nb)
        assert a.empty_cache() == 3
        assert a.cached_bytes == 0
        assert a.reserved_bytes == 0


class TestStreamAwareReuse:
    """The device runs in order on one stream, so a freed block is
    reusable (and reclaimable) at once: there is no free event to wait on."""

    def test_flush_reclaims_blocks_regardless_of_pending_events(self):
        """Blocks freed right behind the work that used them, with no
        synchronization in between, go back to the driver on a capacity
        flush: one ``cudaFree`` per segment, and the reserved-bytes
        invariant holds through it."""
        from dataclasses import replace

        from repro.hw.spec import K20C

        dev = Device(spec=replace(K20C, memory_bytes=4 * MIN_BUCKET_BYTES))
        bufs = [dev.to_device(np.ones(64)) for _ in range(4)]
        for buf in bufs:
            buf.free()
        a = dev.allocator
        assert a.cached_bytes == a.reserved_bytes == 4 * MIN_BUCKET_BYTES
        n_overhead = dev.timeline.count("overhead")
        dev.empty(4 * MIN_BUCKET_BYTES // 8)
        names = [e.name for e in dev.timeline.events[-2:]]
        assert names == ["cudaFree[cache-trim x4]", "cudaMalloc"]
        assert dev.timeline.count("overhead") == n_overhead + 2
        assert a.n_flushes == 1 and a.n_segment_frees == 4
        assert a.reserved_bytes == 4 * MIN_BUCKET_BYTES
        assert a.cached_bytes == 0
        assert a.used_bytes == 4 * MIN_BUCKET_BYTES


class TestDeviceIntegration:
    def test_hit_skips_cudamalloc_latency(self, device):
        buf = device.empty(1000)
        buf.free()
        n_overhead = device.timeline.count("overhead")
        device.empty(1000)  # free-list hit
        assert device.timeline.count("overhead") == n_overhead

    def test_miss_charges_cudamalloc_latency(self, device):
        n_overhead = device.timeline.count("overhead")
        device.empty(1000)
        assert device.timeline.count("overhead") == n_overhead + 1



class TestLanczosHitRate:
    def test_warm_loop_hit_rate_above_80pct(self, device, sbm_graph):
        """After warm-up, the RCI loop's staging buffers all cycle through
        the free lists — the acceptance threshold from the tuning issue."""
        W, _ = sbm_graph
        dcoo = coo_to_device(device, W.sorted_by_row())
        dcsr = device_sym_normalize(dcoo)
        hybrid_eigensolver(device, dcsr, k=6, tol=1e-8, seed=0)  # warm-up
        prof = Profiler(device)
        prof.start()
        hybrid_eigensolver(device, dcsr, k=6, tol=1e-8, seed=0)
        report = prof.stop()
        assert report.allocator["hit_rate"] > 0.8
        assert report.allocator["hits"] > 0


class TestChaosInteraction:
    def test_injected_oom_not_masked_by_cache_hit(self, device):
        """Fault sites run before the free list is consulted, so a request
        that would be served from cache still surfaces an injected OOM."""
        buf = device.empty(1000)
        buf.free()
        plan = FaultPlan([FaultSpec(site="cuda.alloc", fault="oom", nth=1)])
        with chaos(plan):
            with pytest.raises(DeviceMemoryError):
                device.empty(1000)  # would have been a hit
        # and the parked block is still there for the next caller
        assert device.allocator.cached_blocks == 1


class TestSplitAndCoalesce:
    """Best-fit block splitting: small requests carve cached larger blocks
    instead of paying cudaMalloc, and the halves merge back on release."""

    def test_split_serves_small_request_from_larger_block(self):
        a = CachingAllocator(1 << 20)
        a.allocate(2048)
        a.release(2048)  # one 2048 B block parked
        reserved = a.reserved_bytes
        out = a.allocate(512)
        assert out.hit and out.split
        assert a.n_splits == 1
        # the 1536 B remainder parks on its own bucket; no new segment
        assert parked(a, 1536) == 1
        assert a.reserved_bytes == reserved

    def test_split_picks_smallest_sufficient_parent(self):
        a = CachingAllocator(1 << 20)
        a.allocate(4096)
        a.allocate(1024)
        a.release(4096)
        a.release(1024)
        a.allocate(512)
        # best fit carves the 1024 B block, not the 4096 B one
        assert parked(a, 4096) == 1
        assert parked(a, 512) == 1

    def test_exact_hit_preferred_over_split(self):
        a = CachingAllocator(1 << 20)
        for size in (512, 2048):
            a.allocate(size)
            a.release(size)
        out = a.allocate(512)
        assert out.hit and not out.split
        assert a.n_splits == 0
        assert parked(a, 2048) == 1

    def test_parent_must_be_strictly_larger(self):
        a = CachingAllocator(1 << 20)
        a.allocate(512)
        a.release(512)
        out = a.allocate(1024)  # the parked 512 B block cannot serve this
        assert not out.hit
        assert a.n_splits == 0

    def test_large_blocks_never_split(self):
        a = CachingAllocator(1 << 30)
        big = LARGE_BLOCK_THRESHOLD * 2
        a.allocate(big)
        a.release(big)  # bypasses the cache entirely
        out = a.allocate(512)
        assert not out.hit

    def test_release_coalesces_child_with_parked_remainder(self):
        a = CachingAllocator(1 << 20)
        a.allocate(2048)
        a.release(2048)
        a.allocate(512)  # split: 512 out, 1536 parked
        a.release(512)  # child + remainder merge back into 2048
        assert a.n_coalesces == 1
        assert parked(a, 2048) == 1
        assert parked(a, 1536) == 0
        assert parked(a, 512) == 0

    def test_no_coalesce_when_remainder_consumed(self):
        a = CachingAllocator(1 << 20)
        a.allocate(2048)
        a.release(2048)
        a.allocate(512)  # split: remainder 1536 parked
        out = a.allocate(1536)  # exact hit consumes the remainder
        assert out.hit and not out.split
        a.release(512)  # nothing to merge with: parks as a plain block
        assert a.n_coalesces == 0
        assert parked(a, 512) == 1

    def test_reserved_bytes_invariant_through_split_cycle(self):
        a = CachingAllocator(1 << 20)
        a.allocate(4096)
        a.release(4096)
        reserved = a.reserved_bytes
        a.allocate(1024)
        a.allocate(1024)
        a.release(1024)
        a.release(1024)
        assert a.reserved_bytes == reserved
        assert a.cached_bytes == reserved

    def test_flush_clears_split_bookkeeping(self):
        a = CachingAllocator(1 << 20)
        a.allocate(2048)
        a.release(2048)
        a.allocate(512)
        a.empty_cache()  # remainder went back to the driver
        a.release(512)  # must NOT merge with a flushed remainder
        assert a.n_coalesces == 0
        assert a._split_pairs == {}

    def test_stats_expose_split_counters(self):
        a = CachingAllocator(1 << 20)
        s = a.stats()
        assert s["splits"] == 0
        assert s["coalesces"] == 0
        a.allocate(2048)
        a.release(2048)
        a.allocate(512)
        a.release(512)
        s = a.stats()
        assert s["splits"] == 1
        assert s["coalesces"] == 1

    def test_device_split_avoids_cudamalloc_latency(self):
        """On a device, a split hit skips the cudaMalloc overhead charge."""
        dev = Device()
        buf = dev.empty(256, dtype=np.float64)  # 2048 B
        buf.free()
        t0 = dev.elapsed
        small = dev.empty(64, dtype=np.float64)  # 512 B, served by split
        assert dev.elapsed == t0  # no cudaMalloc event charged
        assert dev.allocator.n_splits == 1
        small.free()
        assert dev.allocator.n_coalesces == 1

    def test_profiler_reports_split_deltas(self):
        dev = Device()
        warm = dev.empty(256, dtype=np.float64)
        warm.free()
        prof = Profiler(dev)
        prof.start()
        dev.empty(64, dtype=np.float64).free()
        rep = prof.stop()
        assert rep.allocator["splits"] == 1
        assert rep.allocator["coalesces"] == 1


class TestScratchCounters:
    """Thrust scratch rides the free lists but keeps its own counters."""

    def test_scratch_not_counted_as_array_traffic(self):
        a = CachingAllocator(1 << 20)
        out = a.allocate_scratch(4096)
        assert not out.hit
        assert a.n_scratch_requests == 1
        assert a.n_misses == 0 and a.alloc_count == 0
        a.release_scratch(4096)
        out = a.allocate_scratch(4096)
        assert out.hit
        assert a.n_scratch_hits == 1 and a.n_hits == 0
        assert a.scratch_bytes_served == 2 * 4096

    def test_scratch_shares_free_lists_with_arrays(self):
        a = CachingAllocator(1 << 20)
        a.allocate(4096)
        a.release(4096)
        out = a.allocate_scratch(4096)
        assert out.hit  # a freed array block serves thrust scratch
        a.release_scratch(4096)
        out = a.allocate(4096)
        assert out.hit  # and scratch blocks serve arrays again

    def test_device_scratch_charges_malloc_only_on_miss(self):
        dev = Device()
        with dev.scratch(4096):
            pass  # cold: one cudaMalloc charged
        t0 = dev.elapsed
        with dev.scratch(4096):
            pass  # warm: free-list hit, no overhead event
        assert dev.elapsed == t0
        assert dev.allocator.n_scratch_hits == 1

    def test_device_scratch_releases_on_error(self):
        dev = Device()
        used0 = dev.allocator.used_bytes
        with pytest.raises(RuntimeError):
            with dev.scratch(4096):
                raise RuntimeError("kernel failed")
        assert dev.allocator.used_bytes == used0

class TestPinnedHostPool:
    def test_pool_grows_to_high_water_then_reuses(self):
        from repro.cuda.allocator import PinnedHostPool

        pool = PinnedHostPool()
        assert pool.stage(1000)       # first leg registers
        assert not pool.stage(800)    # smaller leg reuses
        assert pool.stage(2000)       # growth re-registers
        assert not pool.stage(2000)
        assert pool.pool_bytes == 2000
        assert pool.n_registrations == 2
        assert pool.n_stages == 4
        assert pool.n_reuses == 2
        assert pool.staged_bytes == 5800

    def test_device_transfers_stage_through_pool(self, device):
        host = np.zeros(100)
        buf = device.to_device(host)
        buf.copy_to_host()
        stats = device.transfer_stats()
        assert stats["pinned_stages"] == 2
        assert stats["pinned_pool_bytes"] == host.nbytes
        assert stats["pinned_staged_bytes"] == 2 * host.nbytes


class TestPinnedCounters:
    """Exact allocator counters for three fixed workloads.

    Every array request, split, coalesce and flush of these runs is a
    function of the allocation sequence alone, so a rewrite of the
    allocator that keeps the hit/miss sequence keeps every number here.
    """

    KEYS = (
        "hits", "misses", "splits", "coalesces", "flushes", "segment_frees",
        "scratch_requests", "scratch_hits", "scratch_bytes",
        "peak_bytes_in_use", "peak_bytes_reserved",
    )

    def _counters(self, dev):
        stats = dev.alloc_stats()
        return tuple(stats[k] for k in self.KEYS)

    def _point_fit(self, dti_volume, dev):
        SpectralClustering(n_clusters=4, seed=0, device=dev).fit(
            X=dti_volume.profiles, edges=dti_volume.edges
        )
        return self._counters(dev)

    def test_point_input_fit(self, dti_volume):
        assert self._point_fit(dti_volume, Device()) == (
            47, 8, 46, 42, 0, 0, 16, 16, 4352, 283688, 400896,
        )

    def test_point_input_fit_under_memory_pressure(self, dti_volume):
        """A 300 kB device forces one flush-and-retry of four segments."""
        from dataclasses import replace

        from repro.hw.spec import K20C

        dev = Device(spec=replace(K20C, memory_bytes=300_000))
        assert self._point_fit(dti_volume, dev) == (
            54, 10, 39, 35, 1, 4, 16, 16, 4352, 283688, 285696,
        )

    def test_mixed_serve_replay(self):
        from repro.serve import (
            ClusterService,
            ServiceConfig,
            synthetic_predict_trace,
        )

        reqs = synthetic_predict_trace(
            n_requests=20, predict_fraction=0.5, seed=0
        )
        svc = ClusterService(ServiceConfig(n_devices=2))
        responses, _ = svc.process(reqs)
        assert all(r.ok for r in responses), [r.error for r in responses]
        assert [self._counters(d) for d in svc.scheduler.devices] == [
            (141, 10, 140, 134, 0, 0, 40, 40, 10880, 4332840, 6329344),
            (80, 10, 72, 69, 0, 0, 12, 12, 3264, 2609128, 3697152),
        ]
