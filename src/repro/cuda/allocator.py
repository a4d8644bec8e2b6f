"""Caching device allocator: stream-aware, size-bucketed free lists.

Real ``cudaMalloc``/``cudaFree`` are expensive (device-wide synchronization
plus driver work, ~10 us each), which is why every serious CUDA runtime —
PyTorch's ``CUDACachingAllocator``, CUB/Thrust's ``CachingDeviceAllocator``,
cuDF's RMM pools — caches freed blocks instead of returning them to the
driver.  The hot loops in this pipeline hit exactly that pattern: the
k-means Lloyd iteration allocates and frees seven temporaries per sweep,
the Lanczos restart loop cycles small staging buffers, and Thrust sorts
grab scratch space per call.

:class:`CachingAllocator` layers a size-bucketed free list on top of the
byte-counting :class:`~repro.cuda.memory.Allocator`:

* requests are rounded up to a 512 B-granular *bucket*; a freed block
  parks on its bucket's free list rather than shrinking the reservation;
* an allocation served from a free list is a **hit** — no ``cudaMalloc``
  latency is charged by the device;
* when no exact-size block is parked but a *larger* one is, the request is
  **split** out of the smallest such block: the child serves the request
  (a hit — no malloc latency) and the remainder parks on its own bucket,
  ready to coalesce back into the parent when the child is released —
  the best-fit split/merge dance of the PyTorch block pool;
* a **miss** reserves a fresh bucket from capacity (charging malloc
  latency); if the reservation would exceed capacity the cache is flushed
  (``cudaFree`` of every parked block) and the reservation retried once —
  the same flush-and-retry PyTorch performs before surfacing OOM;
* blocks larger than ``large_threshold`` are never cached (a pathological
  working set must not pin the whole device), mirroring the size-class
  split of the real allocators.

**Stream awareness** (the PyTorch per-stream block-pool rule): every parked
block remembers the stream it was freed on and the simulated time its
free *event* completes.  A request on the same stream reuses the block
immediately — stream FIFO ordering guarantees the old use finished — and
counts as a ``same_stream`` hit.  A request on a *different* stream may
only take the block once its free event has completed (``now >= ready``),
an ``event_gated`` hit; before that the block is invisible to other
streams (``blocked_reuses`` counts requests that had parked bytes they
were not allowed to touch).  Work on the default stream alone never hits
the gate, so single-stream behavior is byte-for-byte the pre-stream-aware
allocator.

**Thrust scratch** rides the same free lists through
``allocate_scratch``/``release_scratch`` (the ``ThrustAllocator`` pattern:
``thrust::sort_by_key`` double buffers and CUB scan tile state come from the
caching allocator, not raw ``cudaMalloc``).  Scratch traffic keeps its own
counters so the steady-state *array* allocation counts — e.g. the k-means
zero-allocs-per-iteration invariant — stay meaningful.

Because the simulation tracks byte counts rather than addresses, a "block"
is an entry per bucket; fragmentation manifests as the gap between
``used_bytes`` (requested) and ``reserved_bytes`` (bucket-rounded), which
the stats expose.  Faults are injected *before* the cache is consulted
(``Device._new_array``), so chaos OOM faults are never masked by a hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cuda.memory import Allocator
from repro.errors import DeviceMemoryError

#: smallest bucket handed out — sub-512 B requests round up to this, like
#: the 512 B minimum block of the PyTorch allocator.
MIN_BUCKET_BYTES = 512

#: blocks above this size bypass the cache entirely (freed eagerly).
LARGE_BLOCK_THRESHOLD = 256 * 1024 * 1024

#: stream id of the default (NULL) stream.
DEFAULT_STREAM = 0


def bucket_bytes(nbytes: int) -> int:
    """Round a request up to its size class (512 B granularity).

    Multiples of 512 B, the PyTorch allocator's ``kMinBlockSize`` rounding:
    repeated same-shape allocations (the hot-loop pattern) land in the same
    class and reuse each other's blocks, while worst-case internal
    fragmentation stays under 512 B per block — power-of-two classes would
    waste up to half the device on oddly-sized working sets.
    """
    if nbytes < 0:
        raise ValueError("negative allocation")
    if nbytes == 0:
        return 0
    return -(-nbytes // MIN_BUCKET_BYTES) * MIN_BUCKET_BYTES


@dataclass(frozen=True)
class AllocOutcome:
    """What one ``allocate`` call did, so the device can charge for it.

    ``hit`` means the request was served from the free list (no malloc
    latency); ``split`` marks the hits that carved the block out of a
    larger parked one; ``flushed_segments`` counts cached blocks returned
    to the driver by a flush-and-retry before the reservation succeeded
    (each one is a real ``cudaFree``).  ``same_stream`` / ``event_gated``
    classify a hit by how the stream rules admitted it.
    """

    hit: bool
    flushed_segments: int = 0
    split: bool = False
    #: hit reused a block freed on the requesting stream (FIFO-safe)
    same_stream: bool = False
    #: hit reused another stream's block after its free event completed
    event_gated: bool = False


class _FreeBlock:
    """One parked block: the stream that freed it and when its free event
    completes on the simulated clock."""

    __slots__ = ("stream", "ready")

    def __init__(self, stream: int, ready: float) -> None:
        self.stream = stream
        self.ready = ready


class PinnedHostPool:
    """Pinned-host (``cudaHostAlloc``) staging pool for H2D/D2H legs.

    Every async PCIe leg in the simulation stages through pinned host
    memory — that is what justifies the link's modeled ``efficiency``
    (pageable transfers run far below it) and what lets ``cudaMemcpyAsync``
    overlap compute at all.  The pool mirrors how runtimes manage that
    memory: registrations are expensive (``cudaHostAlloc`` synchronizes
    the device), so the pool grows to the high-water staging size once and
    every later leg reuses it.  The counters feed ``transfer_stats`` /
    the profiler; staging never adds simulated time of its own — its cost
    is already baked into the PCIe efficiency factor.
    """

    __slots__ = ("pool_bytes", "n_registrations", "n_stages", "n_reuses",
                 "staged_bytes")

    def __init__(self) -> None:
        #: current pinned pool size (high-water mark of staging requests)
        self.pool_bytes = 0
        #: cudaHostAlloc-style pool growths
        self.n_registrations = 0
        #: staging trips through the pool (one per async transfer leg)
        self.n_stages = 0
        #: trips served by an existing registration (no host-alloc)
        self.n_reuses = 0
        #: total bytes staged through the pool
        self.staged_bytes = 0

    def stage(self, nbytes: int) -> bool:
        """Record one transfer leg staging ``nbytes``; returns True when
        the pool had to grow (a new pinned registration)."""
        if nbytes < 0:
            raise ValueError("negative staging size")
        self.n_stages += 1
        self.staged_bytes += nbytes
        if nbytes > self.pool_bytes:
            self.pool_bytes = nbytes
            self.n_registrations += 1
            return True
        self.n_reuses += 1
        return False

    def stats(self) -> dict:
        return {
            "pinned_pool_bytes": self.pool_bytes,
            "pinned_registrations": self.n_registrations,
            "pinned_stages": self.n_stages,
            "pinned_reuses": self.n_reuses,
            "pinned_staged_bytes": self.staged_bytes,
        }


class CachingAllocator(Allocator):
    """Size-bucketed caching allocator over the device byte budget.

    Inherits the byte accounting of :class:`Allocator` — ``used_bytes`` is
    requested bytes in live arrays, identical to the non-caching allocator —
    and adds ``reserved_bytes``: the bucket-rounded footprint held from the
    device, including parked free blocks.
    """

    def __init__(
        self,
        capacity_bytes: int,
        large_threshold: int = LARGE_BLOCK_THRESHOLD,
    ) -> None:
        super().__init__(capacity_bytes)
        self.large_threshold = int(large_threshold)
        self.reserved_bytes = 0
        self.peak_reserved_bytes = 0
        #: bucket size -> parked (freed, reusable) blocks with stream tags
        self._free_lists: dict[int, list[_FreeBlock]] = {}
        self.n_hits = 0
        self.n_misses = 0
        self.n_flushes = 0
        #: real cudaFree calls (flush segments + eager large-block frees)
        self.n_segment_frees = 0
        self.n_splits = 0
        self.n_coalesces = 0
        #: stream-rule classification of hits (arrays + scratch)
        self.n_same_stream_hits = 0
        self.n_event_gated_hits = 0
        #: requests that found parked bytes but were denied reuse because
        #: another stream's free event had not completed yet
        self.n_blocked_reuses = 0
        #: thrust scratch traffic (kept out of the array hit/miss counters)
        self.n_scratch_requests = 0
        self.n_scratch_hits = 0
        self.scratch_bytes_served = 0
        #: outstanding split remainders: (child_bucket, remainder_bucket)
        #: -> count; a release of a child-sized block whose matching
        #: remainder is still parked coalesces the pair back together
        self._split_pairs: dict[tuple[int, int], int] = {}

    # -- free-list bookkeeping -----------------------------------------
    @property
    def free_bytes(self) -> int:
        """Allocatable headroom: capacity minus the *rounded* live
        footprint.  Parked blocks count as free — a miss that needs their
        space reclaims them with a flush-and-retry — but live-block
        rounding does not, so working-set sizing (k-means auto-tiling)
        never plans into bytes the buckets have already swallowed."""
        return self.capacity_bytes - (self.reserved_bytes - self.cached_bytes)

    @property
    def cached_bytes(self) -> int:
        """Bytes parked on free lists (reserved but not in use)."""
        return sum(b * len(blks) for b, blks in self._free_lists.items())

    @property
    def cached_blocks(self) -> int:
        return sum(len(blks) for blks in self._free_lists.values())

    def parked_blocks(self, bucket: int) -> int:
        """Number of parked blocks on one bucket's free list (test/debug)."""
        return len(self._free_lists.get(bucket, ()))

    def empty_cache(self) -> int:
        """Flush every parked block back to the driver (``cudaFree`` each).

        ``cudaFree`` synchronizes the device, so pending free events are
        moot — every parked block goes back regardless of stream tags.
        Returns the number of segments released, so callers can charge the
        corresponding free latency.
        """
        segments = self.cached_blocks
        self.reserved_bytes -= self.cached_bytes
        self._free_lists.clear()
        self._split_pairs.clear()  # the remainders just went back to the driver
        self.n_segment_frees += segments
        return segments

    # -- stream admission ------------------------------------------------
    def _take_usable(
        self, bucket: int, stream: int, now: float
    ) -> _FreeBlock | None:
        """Pop a parked block of ``bucket`` the stream rules admit, or
        None.  Same-stream blocks win over event-gated ones (no reason to
        cross streams when a FIFO-safe block exists)."""
        blocks = self._free_lists.get(bucket)
        if not blocks:
            return None
        pick = None
        for i, blk in enumerate(blocks):
            if blk.stream == stream:
                pick = i
                break
            if pick is None and blk.ready <= now:
                pick = i
        if pick is None:
            return None
        blk = blocks.pop(pick)
        if not blocks:
            del self._free_lists[bucket]
        return blk

    def _park(self, bucket: int, stream: int, ready: float) -> None:
        self._free_lists.setdefault(bucket, []).append(
            _FreeBlock(stream, ready)
        )

    # -- allocate / release --------------------------------------------
    def allocate(
        self,
        nbytes: int,
        stream: int = DEFAULT_STREAM,
        now: float = 0.0,
        scratch: bool = False,
    ) -> AllocOutcome:
        if nbytes < 0:
            raise ValueError("negative allocation")
        bucket = bucket_bytes(nbytes)
        if scratch:
            self.n_scratch_requests += 1
            self.scratch_bytes_served += nbytes
        had_parked = self.parked_blocks(bucket) > 0
        if bucket <= self.large_threshold:
            blk = self._take_usable(bucket, stream, now)
            if blk is not None:
                return self._account_hit(
                    nbytes, blk, stream, scratch, split=False
                )
            if had_parked:
                self.n_blocked_reuses += 1

        if 0 < bucket <= self.large_threshold:
            # no exact-size block usable: carve the request out of the
            # smallest admissible larger one (best-fit split, as the real
            # caching allocators do) instead of paying cudaMalloc latency.
            # The remainder — always a 512 B multiple ≥ 512 B — parks on
            # its own bucket and can coalesce back when the child is
            # released.
            for parent in sorted(self._free_lists):
                if parent <= bucket or parent > self.large_threshold:
                    continue
                blk = self._take_usable(parent, stream, now)
                if blk is None:
                    continue
                remainder = parent - bucket
                self._park(remainder, blk.stream, blk.ready)
                pair = (bucket, remainder)
                self._split_pairs[pair] = self._split_pairs.get(pair, 0) + 1
                self.n_splits += 1
                return self._account_hit(
                    nbytes, blk, stream, scratch, split=True
                )

        flushed = 0
        if self.reserved_bytes + bucket > self.capacity_bytes:
            flushed = self.empty_cache()
            if flushed:
                self.n_flushes += 1
            if self.reserved_bytes + bucket > self.capacity_bytes:
                raise DeviceMemoryError(
                    f"out of device memory: requested {nbytes} bytes "
                    f"(rounds to {bucket}) with "
                    f"{self.capacity_bytes - self.reserved_bytes} of "
                    f"{self.capacity_bytes} unreserved"
                )
        self.reserved_bytes += bucket
        self.used_bytes += nbytes
        if not scratch:
            self.alloc_count += 1
            self.n_misses += 1
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self.peak_reserved_bytes = max(self.peak_reserved_bytes, self.reserved_bytes)
        return AllocOutcome(hit=False, flushed_segments=flushed)

    def _account_hit(
        self,
        nbytes: int,
        blk: _FreeBlock,
        stream: int,
        scratch: bool,
        split: bool,
    ) -> AllocOutcome:
        same = blk.stream == stream
        if same:
            self.n_same_stream_hits += 1
        else:
            self.n_event_gated_hits += 1
        self.used_bytes += nbytes
        if scratch:
            self.n_scratch_hits += 1
        else:
            self.alloc_count += 1
            self.n_hits += 1
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        return AllocOutcome(
            hit=True, split=split, same_stream=same, event_gated=not same
        )

    def release(
        self,
        nbytes: int,
        stream: int = DEFAULT_STREAM,
        ready: float = 0.0,
        scratch: bool = False,
    ) -> bool:
        """Return a block to the cache; returns True iff a real ``cudaFree``
        happened (large blocks bypass the cache).

        ``ready`` is when the freeing stream's in-flight work — and
        therefore the block's free event — completes; other streams may
        not reuse the block before then.
        """
        if nbytes < 0:
            raise ValueError("negative release")
        self.used_bytes = max(0, self.used_bytes - nbytes)
        bucket = bucket_bytes(nbytes)
        if bucket == 0:
            return False
        if bucket > self.large_threshold:
            self.reserved_bytes = max(0, self.reserved_bytes - bucket)
            self.n_segment_frees += 1
            return True
        # coalesce: if this block was split off a parent whose remainder is
        # still parked, merge the two back into one parent-sized block
        for (child, remainder), cnt in self._split_pairs.items():
            if child != bucket or cnt <= 0:
                continue
            rem_blocks = self._free_lists.get(remainder)
            if not rem_blocks:
                continue
            if cnt == 1:
                del self._split_pairs[(child, remainder)]
            else:
                self._split_pairs[(child, remainder)] = cnt - 1
            rem = rem_blocks.pop(0)
            if not rem_blocks:
                del self._free_lists[remainder]
            parent = child + remainder
            # the merged block is usable only when both halves are: the
            # remainder's free event and this release's both gate it
            self._park(parent, stream, max(ready, rem.ready))
            self.n_coalesces += 1
            return False
        self._park(bucket, stream, ready)
        return False

    # -- thrust scratch (ThrustAllocator pattern) ------------------------
    def allocate_scratch(
        self,
        nbytes: int,
        stream: int = DEFAULT_STREAM,
        now: float = 0.0,
    ) -> AllocOutcome:
        """Temporary storage for a thrust/CUB call, served from the same
        free lists as array allocations but counted separately — the
        per-call ``raw_allocate`` of PyTorch's ``ThrustAllocator``."""
        return self.allocate(nbytes, stream=stream, now=now, scratch=True)

    def release_scratch(
        self,
        nbytes: int,
        stream: int = DEFAULT_STREAM,
        ready: float = 0.0,
    ) -> bool:
        return self.release(nbytes, stream=stream, ready=ready, scratch=True)

    # -- stats -----------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        n = self.n_hits + self.n_misses
        return self.n_hits / n if n else 0.0

    def stats(self) -> dict:
        """Counters for Profiler / ServiceReport / CLI surfacing."""
        return {
            "caching": True,
            "hits": self.n_hits,
            "misses": self.n_misses,
            "hit_rate": self.hit_rate,
            "flushes": self.n_flushes,
            "segment_frees": self.n_segment_frees,
            "splits": self.n_splits,
            "coalesces": self.n_coalesces,
            "same_stream_hits": self.n_same_stream_hits,
            "event_gated_hits": self.n_event_gated_hits,
            "blocked_reuses": self.n_blocked_reuses,
            "scratch_requests": self.n_scratch_requests,
            "scratch_hits": self.n_scratch_hits,
            "scratch_bytes": self.scratch_bytes_served,
            "bytes_in_use": self.used_bytes,
            "bytes_reserved": self.reserved_bytes,
            "bytes_cached": self.cached_bytes,
            "peak_bytes_in_use": self.peak_bytes,
            "peak_bytes_reserved": self.peak_reserved_bytes,
        }
