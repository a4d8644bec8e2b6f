"""nvprof-style profiling over the simulated timeline.

The :class:`Profiler` wraps a device and produces :class:`ProfileReport`
objects: per-stage and per-category simulated-time aggregations.  Table VII
of the paper ("Comparison Between Data Communication Time and Computation
Time") is exactly ``report.communication`` vs ``report.computation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cuda.device import Device
from repro.hw.timeline import COMMUNICATION_CATEGORIES


@dataclass(frozen=True)
class ProfileReport:
    """Aggregated simulated times for one profiled region."""

    #: total simulated seconds spent in H2D+D2H transfers
    communication: float
    #: total simulated seconds spent in kernels + modeled CPU phases
    computation: float
    #: seconds per event category ("kernel", "h2d", "d2h", "cpu", "overhead")
    by_category: dict[str, float] = field(default_factory=dict)
    #: seconds per stage tag ("similarity", "eigensolver", "kmeans", ...)
    by_stage: dict[str, float] = field(default_factory=dict)
    #: number of kernel launches observed
    kernel_launches: int = 0
    #: caching-allocator counters over the profiled region (hits, misses,
    #: hit_rate, bytes_reserved, ...); empty if the device was not sampled
    allocator: dict = field(default_factory=dict)
    #: PCIe traffic counters over the profiled region (bytes_h2d, bytes_d2h,
    #: transfers_elided, bytes_elided, overlap_s, ...)
    transfers: dict = field(default_factory=dict)
    #: per-kernel launch counts and simulated seconds, keyed by kernel name
    #: (``{"fused_assign": {"count": 12, "seconds": 3.1e-4}, ...}``)
    kernels: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.communication + self.computation

    def communication_fraction(self) -> float:
        """Fraction of total simulated time spent on the PCIe bus."""
        t = self.total
        return self.communication / t if t > 0 else 0.0

    def format_table(self) -> str:
        """Render the report as a fixed-width text table."""
        lines = [
            f"{'category':<12}{'seconds':>14}",
            "-" * 26,
        ]
        for cat, secs in sorted(self.by_category.items()):
            lines.append(f"{cat:<12}{secs:>14.6f}")
        lines.append("-" * 26)
        lines.append(f"{'comm':<12}{self.communication:>14.6f}")
        lines.append(f"{'compute':<12}{self.computation:>14.6f}")
        return "\n".join(lines)


class Profiler:
    """Collects a :class:`ProfileReport` from a device timeline.

    Usage::

        prof = Profiler(device)
        prof.start()
        ...  # run simulated work
        report = prof.stop()
    """

    #: allocator/transfer counters that accumulate monotonically — these are
    #: reported as deltas over the profiled region; the rest (bytes_in_use,
    #: bytes_reserved, peaks, ...) are point-in-time gauges.
    _ALLOC_DELTA_KEYS = (
        "hits", "misses", "flushes", "segment_frees", "splits", "coalesces",
        "scratch_requests", "scratch_hits", "scratch_bytes",
    )

    def __init__(self, device: Device) -> None:
        self.device = device
        self._start_index: int | None = None
        self._start_alloc: dict = {}
        self._start_transfers: dict = {}

    def start(self) -> None:
        self._start_index = len(self.device.timeline)
        self._start_alloc = self.device.alloc_stats()
        self._start_transfers = self.device.transfer_stats()

    def stop(self) -> ProfileReport:
        if self._start_index is None:
            raise RuntimeError("Profiler.stop() called before start()")
        events = self.device.timeline.events[self._start_index :]
        alloc = self.device.alloc_stats()
        for key in self._ALLOC_DELTA_KEYS:
            alloc[key] -= self._start_alloc.get(key, 0)
        n = alloc["hits"] + alloc["misses"]
        alloc["hit_rate"] = alloc["hits"] / n if n else 0.0
        transfers = self.device.transfer_stats()
        for key, start_val in self._start_transfers.items():
            transfers[key] -= start_val
        self._start_index = None
        return _aggregate(events, allocator=alloc, transfers=transfers)

    def snapshot(self) -> ProfileReport:
        """Report over the device's entire timeline (no start/stop needed)."""
        return _aggregate(
            self.device.timeline.events,
            allocator=self.device.alloc_stats(),
            transfers=self.device.transfer_stats(),
        )


def merge_reports(reports) -> ProfileReport:
    """Sum several :class:`ProfileReport`\\ s into one.

    The serving layer runs work on a pool of devices, each with its own
    profiler; the service-level communication/computation split (and the
    per-stage breakdown) is the sum over the pool.  Note the merged
    ``total`` is aggregate busy time, not a makespan — overlap accounting
    lives in the scheduler's timeline.
    """
    comm = 0.0
    comp = 0.0
    by_cat: dict[str, float] = {}
    by_stage: dict[str, float] = {}
    kernels = 0
    by_kernel: dict[str, dict] = {}
    alloc: dict = {}
    transfers: dict = {}
    for rep in reports:
        comm += rep.communication
        comp += rep.computation
        kernels += rep.kernel_launches
        for cat, secs in rep.by_category.items():
            by_cat[cat] = by_cat.get(cat, 0.0) + secs
        for stage, secs in rep.by_stage.items():
            by_stage[stage] = by_stage.get(stage, 0.0) + secs
        for name, slot in rep.kernels.items():
            merged = by_kernel.setdefault(name, {"count": 0, "seconds": 0.0})
            merged["count"] += slot["count"]
            merged["seconds"] += slot["seconds"]
        for key, val in rep.allocator.items():
            if key != "hit_rate":
                alloc[key] = alloc.get(key, 0) + val
        for key, val in rep.transfers.items():
            transfers[key] = transfers.get(key, 0) + val
    if alloc:
        n = alloc.get("hits", 0) + alloc.get("misses", 0)
        alloc["hit_rate"] = alloc.get("hits", 0) / n if n else 0.0
    return ProfileReport(
        communication=comm,
        computation=comp,
        by_category=by_cat,
        by_stage=by_stage,
        kernel_launches=kernels,
        allocator=alloc,
        transfers=transfers,
        kernels=by_kernel,
    )


def _aggregate(events, allocator: dict | None = None, transfers: dict | None = None) -> ProfileReport:
    comm = 0.0
    comp = 0.0
    by_cat: dict[str, float] = {}
    by_stage: dict[str, float] = {}
    kernels = 0
    by_kernel: dict[str, dict] = {}
    for ev in events:
        by_cat[ev.category] = by_cat.get(ev.category, 0.0) + ev.duration
        by_stage[ev.tag] = by_stage.get(ev.tag, 0.0) + ev.duration
        if ev.category in COMMUNICATION_CATEGORIES:
            comm += ev.duration
        else:
            comp += ev.duration
        if ev.category == "kernel":
            kernels += 1
            slot = by_kernel.setdefault(ev.name, {"count": 0, "seconds": 0.0})
            slot["count"] += 1
            slot["seconds"] += ev.duration
    return ProfileReport(
        communication=comm,
        computation=comp,
        by_category=by_cat,
        by_stage=by_stage,
        kernel_launches=kernels,
        allocator=allocator if allocator is not None else {},
        transfers=transfers if transfers is not None else {},
        kernels=by_kernel,
    )
