"""The multi-stream, multi-device scheduler.

The simulated runtime executes synchronously, but serving wants the
*schedule* a real deployment would see: several CUDA streams per device
and several devices draining work concurrently.  The scheduler bridges
the two honestly:

1. a unit of work (an operator build, a Lanczos solve, one request's
   k-means) **executes** on a real :class:`~repro.cuda.device.Device`,
   charging its kernels/transfers to that device's serial timeline — the
   duration is exactly what the cost model says the unit takes;
2. the unit is then **placed** on the earliest-available stream lane
   (FIFO per stream, dependencies respected via ``ready_at``) using
   :meth:`~repro.cuda.stream.Stream.reserve`, and the placement is
   recorded on an *overlapped* service timeline
   (:meth:`~repro.hw.timeline.Timeline.record_at`);
3. queue waits, latencies, makespan and occupancy are read off that
   overlapped timeline, so concurrency never conjures up compute time —
   it only overlaps spans whose durations the serial cost model produced.

Work that must stay device-affine (a Lanczos solve reading an operator
resident on device i's memory) passes ``device=``; host-input work (each
request's k-means re-uploads the embedding) may land on any lane.

Preemptive deadline scheduling
------------------------------
Deadlines used to be observational: a unit placed after its deadline was
*counted* as a miss, never helped.  The scheduler now fights for them.
A width-1 unit carrying a deadline that FIFO placement would miss looks
for a *preemptive slot* on the lanes of the device it executed on:

- **mid-unit split** — a running ``preemptible=True`` unit is suspended
  at its next stage boundary (the :mod:`~repro.cuda.boundaries` marks a
  k-means Lloyd iteration or Lanczos restart fired during execution),
  the urgent unit runs in the gap, and the victim's remainder resumes
  afterwards.  Both switches charge :data:`CTX_SWITCH_S` of
  lane-occupying overhead — preemption is never free;
- **queue-jump insert** — the urgent unit slips in front of placed but
  not-yet-started preemptible units (a batch-member boundary), shifting
  them later; no state is saved mid-flight, so no context-switch cost.

Either way, every shifted placement must itself be preemptible and not
*retired*: once another unit's placement consumed a victim's end time
(``depends_on=``), the victim's span is frozen — rewriting it would
falsify history.  Preemption happens only when it converts a miss into a
meet, all rewrites are placement-only (the arithmetic already executed,
so results stay bit-identical), and every preemption is metered
(:class:`SchedulerStats`) and traced on a dedicated ``preempt`` track.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.cuda.boundaries import collect_boundaries
from repro.cuda.device import Device
from repro.cuda.stream import Stream
from repro.errors import ReproError, ServiceError
from repro.hw.spec import GPUSpec, K20C, PCIE_X16_GEN2, PCIeSpec
from repro.hw.timeline import Timeline, TimelineEvent

#: simulated cost of one context save *or* restore when a preemption
#: splits a running unit (a mid-flight k-means suspend writes back its
#: iteration buffers; ~tens of µs at PCIe gen2 rates)
CTX_SWITCH_S = 2e-5


@dataclass
class ScheduledUnit:
    """Outcome of one scheduled unit of work."""

    label: str
    #: what the unit computed, until :meth:`take` hands it over
    value: object | None
    error: ReproError | None
    start: float
    end: float
    lane: str
    device_index: int
    #: every lane the unit occupied (== (lane,) for width-1 units); a
    #: multi-device solve reserves one lane per simulated GPU it spans
    lanes: tuple = ()
    #: fast-lane ordering facts (0 / None for plain batch units)
    priority: int = 0
    deadline: float | None = None
    #: this unit jumped the lane via a preemptive slot
    preempted_victim: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def take(self):
        """Hand ``value`` to its one reader and drop the unit's reference.

        The scheduler keeps every unit for its lifetime, so a unit that
        kept its value would pin it there, e.g. a cached model long
        after the cache evicted it.
        """
        value, self.value = self.value, None
        return value

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def deadline_met(self) -> bool | None:
        """None when the unit carried no deadline."""
        if self.deadline is None:
            return None
        return self.end <= self.deadline


@dataclass
class SchedulerStats:
    """Deadline and preemption counters (one scheduler's units)."""

    #: units that carried a deadline and finished after it
    deadline_misses: int = 0
    #: units that carried a deadline and met it
    deadlines_met: int = 0
    #: preemptive placements performed (splits + inserts)
    preemptions: int = 0
    #: preemptions that suspended a running unit at a stage boundary
    preemption_splits: int = 0
    #: preemptions that jumped ahead of placed-but-unstarted units
    preemption_inserts: int = 0
    #: deadline misses converted into meets by preemption
    saved_misses: int = 0
    #: placements pushed later by preemptive slots
    shifted_units: int = 0
    #: total context-switch seconds charged to lanes
    ctx_switch_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "deadline_misses": self.deadline_misses,
            "deadlines_met": self.deadlines_met,
            "preemptions": self.preemptions,
            "preemption_splits": self.preemption_splits,
            "preemption_inserts": self.preemption_inserts,
            "saved_misses": self.saved_misses,
            "shifted_units": self.shifted_units,
            "ctx_switch_s": self.ctx_switch_s,
        }


class _Placement:
    """One unit's presence on one lane: its events and rewrite facts."""

    __slots__ = ("unit", "lane_name", "events", "boundaries",
                 "preemptible", "retired")

    def __init__(self, unit, lane_name, events, boundaries, preemptible):
        self.unit = unit
        self.lane_name = lane_name
        #: TimelineEvents currently on the schedule for this unit on this
        #: lane (frozen; swapped wholesale on every rewrite)
        self.events: list[TimelineEvent] = events
        #: absolute simulated times at which the unit may be suspended
        self.boundaries: list[float] = boundaries
        self.preemptible = bool(preemptible)
        #: True once a dependent consumed this unit's end time — its
        #: span is frozen and may no longer be rewritten
        self.retired = False

    @property
    def start(self) -> float:
        return min(ev.start for ev in self.events)

    @property
    def end(self) -> float:
        return max(ev.end for ev in self.events)

    @property
    def movable(self) -> bool:
        return self.preemptible and not self.retired


class _Slot:
    """A feasible preemptive slot on one lane."""

    __slots__ = ("lane", "at", "split", "tail")

    def __init__(self, lane, at, split, tail):
        self.lane = lane
        #: insertion time (the boundary, for splits; the gap start else)
        self.at = at
        #: the running placement to suspend, or None for a pure insert
        self.split: _Placement | None = split
        #: every placement (incl. ``split``) the slot displaces
        self.tail: list[_Placement] = tail


class StreamScheduler:
    """Multiplexes work units over ``n_devices × streams_per_device`` lanes."""

    def __init__(
        self,
        n_devices: int = 1,
        streams_per_device: int = 2,
        spec: GPUSpec = K20C,
        pcie: PCIeSpec = PCIE_X16_GEN2,
        preemption: bool = True,
    ) -> None:
        if n_devices < 1:
            raise ServiceError(f"need at least one device, got {n_devices}")
        if streams_per_device < 1:
            raise ServiceError(
                f"need at least one stream per device, got {streams_per_device}"
            )
        self.devices = [Device(spec, pcie) for _ in range(n_devices)]
        self.lanes: list[Stream] = [
            Stream(dev, name=f"dev{i}/s{j}")
            for i, dev in enumerate(self.devices)
            for j in range(streams_per_device)
        ]
        #: overlapped schedule: one TimelineEvent per unit, tag = lane name
        self.schedule = Timeline()
        #: EDF preemption on/off (off = PR 9's observational deadlines)
        self.preemption = bool(preemption)
        self.stats = SchedulerStats()
        #: per-lane placements, kept sorted by start time
        self._placements: dict[str, list[_Placement]] = {
            s.name: [] for s in self.lanes
        }
        #: id(unit) -> its placements (one per occupied lane)
        self._by_unit: dict[int, list[_Placement]] = {}

    @property
    def deadline_misses(self) -> int:
        """Back-compat alias for :attr:`SchedulerStats.deadline_misses`."""
        return self.stats.deadline_misses

    # ------------------------------------------------------------------
    @staticmethod
    def dispatch_order(items: list) -> list:
        """Deadline/priority dispatch order for ready fast-lane work.

        ``items`` expose ``order_key()`` (see
        :meth:`~repro.serve.request.PredictRequest.order_key`): higher
        priority first, then earliest deadline (no deadline sorts last).
        Remaining ties break by **arrival index** — the position in
        ``items``, i.e. submission order — never by request-id
        lexicography, so two equally urgent requests dispatch in the
        order they arrived regardless of how their ids happen to sort.
        """
        return [
            item for _, item in sorted(
                enumerate(items),
                key=lambda pair: (pair[1].order_key()[:2], pair[0]),
            )
        ]

    # ------------------------------------------------------------------
    def _candidate_lanes(self, device: Device | None) -> list[Stream]:
        if device is None:
            return self.lanes
        lanes = [s for s in self.lanes if s.device is device]
        if not lanes:
            raise ServiceError("device is not managed by this scheduler")
        return lanes

    def pick_lane(self, ready_at: float, device: Device | None = None) -> Stream:
        """Earliest-available lane (ties broken by lane order, so the
        schedule is deterministic)."""
        lanes = self._candidate_lanes(device)
        return min(lanes, key=lambda s: s.available_at(ready_at))

    def device_of(self, ready_at: float) -> Device:
        """The device whose earliest lane would start soonest — used to
        pin a batch's operator build before running it."""
        return self.pick_lane(ready_at).device

    # ------------------------------------------------------------------
    def retire(self, unit: ScheduledUnit) -> None:
        """Freeze a unit's placement: it may no longer be preempted.

        Called (directly or via ``depends_on=``) once the unit's span has
        been consumed — its end seeded another placement's ``ready_at``,
        or a response was finalized from it.  Unknown units are ignored
        (a cache-hit path never placed one).
        """
        for p in self._by_unit.get(id(unit), ()):
            p.retired = True

    def _register(
        self, unit, lane, events, boundaries, preemptible
    ) -> _Placement:
        p = _Placement(unit, lane.name, events, boundaries, preemptible)
        pls = self._placements[lane.name]
        bisect.insort(pls, p, key=lambda q: q.start)
        self._by_unit.setdefault(id(unit), []).append(p)
        return p

    # ------------------------------------------------------------------
    # preemptive slot search
    # ------------------------------------------------------------------
    def _lane_slot(
        self, lane: Stream, ready_at: float, duration: float
    ) -> _Slot | None:
        """The earliest preemptive slot on ``lane``, or None.

        Feasibility: every displaced placement must be movable — a single
        non-preemptible or retired unit in the tail freezes everything
        behind it (shifting *around* it would reorder the lane's FIFO).
        """
        pls = self._placements[lane.name]
        idx = next((i for i, p in enumerate(pls) if p.end > ready_at), None)
        if idx is None:
            return None  # lane free after ready_at: FIFO placement is best
        tail = pls[idx:]
        if not all(p.movable for p in tail):
            return None
        head = tail[0]
        if head.start >= ready_at:
            # ready time falls in a gap (or exactly at a queued unit's
            # start): jump the queue, no mid-flight state to save
            return _Slot(lane, ready_at, None, tail)
        # head is mid-flight: suspend at its next stage boundary
        cuts = [b for b in head.boundaries if ready_at < b < head.end]
        if cuts:
            return _Slot(lane, cuts[0], head, tail)
        if len(tail) > 1:
            # no boundary left inside head — slip in right after it, in
            # front of the queued remainder (a batch-member boundary)
            return _Slot(lane, head.end, None, tail[1:])
        return None  # after the sole running unit == plain FIFO placement

    def _best_slot(
        self, ready_at: float, duration: float, device: Device
    ) -> _Slot | None:
        """Earliest-finishing preemptive slot on ``device``'s lanes.

        Restricted to the device the unit *executed* on so the schedule
        never contradicts the per-device profiler charge.
        """
        best: _Slot | None = None
        best_end = float("inf")
        for lane in self.lanes:
            if lane.device is not device:
                continue
            slot = self._lane_slot(lane, ready_at, duration)
            if slot is None:
                continue
            delta = CTX_SWITCH_S if slot.split is not None else 0.0
            end = slot.at + delta + duration
            if end < best_end:
                best, best_end = slot, end
        return best

    # ------------------------------------------------------------------
    # placement rewrites
    # ------------------------------------------------------------------
    def _shifted(self, ev: TimelineEvent, shift: float) -> TimelineEvent:
        return TimelineEvent(
            name=ev.name, category=ev.category, start=ev.start + shift,
            duration=ev.duration, tag=ev.tag,
        )

    def _shift_placement(self, p: _Placement, shift: float) -> None:
        """Push a not-yet-started placement ``shift`` seconds later."""
        moved = []
        for ev in p.events:
            nev = self._shifted(ev, shift)
            self.schedule.replace_event(ev, [nev])
            moved.append(nev)
        p.events = moved
        p.boundaries = [b + shift for b in p.boundaries]
        p.unit.start += shift
        p.unit.end += shift

    def _split_placement(
        self, p: _Placement, at: float, shift: float
    ) -> None:
        """Suspend ``p`` at boundary ``at``; its remainder resumes after
        ``shift`` seconds (urgent unit + both context switches)."""
        cut = next(
            ev for ev in p.events if ev.start < at < ev.end
        )
        first = TimelineEvent(
            name=cut.name, category=cut.category, start=cut.start,
            duration=at - cut.start, tag=cut.tag,
        )
        rest = TimelineEvent(
            name=f"{cut.name} (resumed)", category=cut.category,
            start=at + shift, duration=cut.end - at, tag=cut.tag,
        )
        self.schedule.replace_event(cut, [first, rest])
        moved = []
        for ev in p.events:
            if ev is cut:
                moved.extend([first, rest])
            elif ev.start >= at:
                nev = self._shifted(ev, shift)
                self.schedule.replace_event(ev, [nev])
                moved.append(nev)
            else:
                moved.append(ev)
        p.events = moved
        p.boundaries = [b if b <= at else b + shift for b in p.boundaries]
        p.unit.end += shift

    def _commit_slot(
        self, slot: _Slot, name: str, category: str, duration: float
    ) -> tuple[float, float, TimelineEvent, str]:
        """Rewrite the lane for a preemptive placement; returns the
        urgent unit's (start, end, event, victim label)."""
        lane = slot.lane
        split = slot.split
        delta = CTX_SWITCH_S if split is not None else 0.0
        shift = duration + 2.0 * delta
        victim = (split or slot.tail[0]).unit.label
        if split is not None:
            self._split_placement(split, slot.at, shift)
            self.schedule.record_at(
                f"ctx-save[{victim}]", "overhead",
                slot.at, delta, tag=lane.name,
            )
            self.schedule.record_at(
                f"ctx-restore[{victim}]", "overhead",
                slot.at + delta + duration, delta, tag=lane.name,
            )
            self.stats.preemption_splits += 1
            self.stats.ctx_switch_s += 2.0 * delta
        else:
            self.stats.preemption_inserts += 1
        for p in slot.tail:
            if p is split:
                continue
            self._shift_placement(p, shift)
        self.stats.shifted_units += len(slot.tail)
        lane.free_at += shift
        start = slot.at + delta
        ev = self.schedule.record_at(
            name, category, start, duration, tag=lane.name
        )
        # the preemption's own Chrome-trace track: one span covering the
        # stolen window (context switches included)
        self.schedule.record_at(
            f"preempt[{name} over {victim}]", "overhead",
            slot.at, shift, tag="preempt",
        )
        self.stats.preemptions += 1
        self.stats.saved_misses += 1
        return start, start + duration, ev, victim

    # ------------------------------------------------------------------
    def _widen_lanes(
        self, primary: Stream, ready_at: float, width: int
    ) -> list[Stream]:
        """Pick ``width - 1`` extra lanes for a unit anchored on
        ``primary``: distinct other devices first (earliest-available
        lane each), then sibling streams on already-used devices."""
        chosen = [primary]
        used_devices = {id(primary.device)}
        # one lane per *other* device, earliest-available first
        others = sorted(
            (s for s in self.lanes if id(s.device) not in used_devices),
            key=lambda s: (s.available_at(ready_at), self.lanes.index(s)),
        )
        for lane in others:
            if len(chosen) == width:
                break
            if id(lane.device) in used_devices:
                continue
            chosen.append(lane)
            used_devices.add(id(lane.device))
        # spill to sibling streams when width exceeds the device count
        if len(chosen) < width:
            spill = sorted(
                (s for s in self.lanes if s not in chosen),
                key=lambda s: (s.available_at(ready_at), self.lanes.index(s)),
            )
            chosen.extend(spill[: width - len(chosen)])
        return chosen

    def run(
        self,
        label: str,
        ready_at: float,
        fn,
        device: Device | None = None,
        category: str = "kernel",
        width: int = 1,
        priority: int = 0,
        deadline: float | None = None,
        preemptible: bool = False,
        depends_on: tuple = (),
    ) -> ScheduledUnit:
        """Execute ``fn(device)`` and place its cost on ``width`` lanes.

        ``fn`` runs to completion (or to a :class:`ReproError`) on the
        chosen device; the simulated duration it charged — including the
        cost of failed attempts and resilience retries — is reserved on
        the lane starting no earlier than ``ready_at``.  Errors are
        captured, not raised: a faulted unit still occupies its lane for
        the time it burned, exactly like a real stream.

        ``width > 1`` is for gang-scheduled multi-device work (a
        row-partitioned eigensolve spanning ``devices`` GPUs): the
        unit reserves that many lanes — preferring one lane on each
        distinct device before doubling up streams — and all of them
        block for the unit's full duration from a common start, so the
        schedule's occupancy reflects every GPU the solve pinned.

        ``preemptible=True`` allows a later deadline-carrying unit to
        suspend this one at a recorded stage boundary or slip in front
        of it before it starts; stage boundaries are collected from the
        :func:`~repro.cuda.boundaries.mark_boundary` calls ``fn`` fires.
        ``depends_on`` names units whose end times this placement
        consumes — they are retired (frozen) first, so preemption can
        never rewrite a span another unit's start already relied on.

        A unit with a deadline that FIFO placement would miss, with
        ``self.preemption`` on, takes the earliest preemptive slot on
        its execution device — but only when that slot converts the miss
        into a meet; pointless preemption (still missing) never pays the
        disruption.
        """
        if width < 1:
            raise ServiceError(f"width must be >= 1, got {width}")
        if width > len(self.lanes):
            raise ServiceError(
                f"width {width} exceeds the scheduler's {len(self.lanes)} lanes"
            )
        if preemptible and width > 1:
            raise ServiceError(
                "gang-scheduled units cannot be preemptible: suspending one "
                "lane of a multi-device solve would desynchronize the gang"
            )
        if preemptible and deadline is not None:
            raise ServiceError(
                "a unit cannot be both preemptible and deadline-carrying: "
                "its counted meet/miss would be rewritten after the fact"
            )
        for dep in depends_on:
            self.retire(dep)
        lane = self.pick_lane(ready_at, device)
        dev = lane.device
        t0 = dev.elapsed
        value: object | None = None
        error: ReproError | None = None
        with collect_boundaries() as marks:
            try:
                value = fn(dev)
            except ReproError as err:
                error = err
        duration = dev.elapsed - t0
        offsets = sorted({
            m - t0 for m in marks if 0.0 < m - t0 < duration
        })
        name = label if error is None else f"{label} [failed: {type(error).__name__}]"
        gang = (
            self._widen_lanes(lane, ready_at, width) if width > 1 else [lane]
        )
        victim: str | None = None
        if width > 1:
            # gang members start together: none may begin before the
            # busiest chosen lane frees up
            ready_all = max(
                ready_at, *(s.available_at(ready_at) for s in gang)
            )
            start = end = None
            unit = ScheduledUnit(
                label=label, value=value, error=error, start=0.0, end=0.0,
                lane=lane.name, device_index=self.devices.index(dev),
                lanes=tuple(s.name for s in gang),
                priority=priority, deadline=deadline,
            )
            for member in gang:
                s, e = member.reserve(ready_all, duration)
                ev = self.schedule.record_at(
                    name, category, s, duration, tag=member.name
                )
                # gang lanes register non-preemptible placements so a
                # later preemptive slot can never shift around them
                self._register(unit, member, [ev], [], preemptible=False)
                if start is None:
                    start, end = s, e
            unit.start, unit.end = start, end
        else:
            fifo_start = lane.available_at(ready_at)
            fifo_end = fifo_start + duration
            slot = None
            if (
                self.preemption
                and deadline is not None
                and duration > 0
                and fifo_end > deadline
            ):
                cand = self._best_slot(ready_at, duration, dev)
                if cand is not None:
                    delta = CTX_SWITCH_S if cand.split is not None else 0.0
                    cand_end = cand.at + delta + duration
                    # preempt only to convert the miss into a meet
                    if cand_end <= deadline and cand_end < fifo_end:
                        slot = cand
            if slot is not None:
                start, end, ev, victim = self._commit_slot(
                    slot, name, category, duration
                )
            else:
                start, end = lane.reserve(ready_at, duration)
                ev = self.schedule.record_at(
                    name, category, start, duration, tag=lane.name
                )
            unit = ScheduledUnit(
                label=label, value=value, error=error, start=start, end=end,
                lane=lane.name, device_index=self.devices.index(dev),
                lanes=(lane.name,), priority=priority, deadline=deadline,
                preempted_victim=victim,
            )
            self._register(
                unit, lane, [ev], [start + o for o in offsets], preemptible
            )
        if unit.deadline_met is False:
            self.stats.deadline_misses += 1
        elif unit.deadline_met is True:
            self.stats.deadlines_met += 1
        return unit

    # ------------------------------------------------------------------
    # schedule-level aggregates
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Simulated time at which the last scheduled unit completes."""
        _, hi = self.schedule.span()
        return hi

    def device_busy(self) -> dict[str, float]:
        """Busy seconds per device (union over its lanes' spans)."""
        out: dict[str, float] = {}
        for i, dev in enumerate(self.devices):
            name = f"dev{i}"
            lanes = [s.name for s in self.lanes if s.device is dev]
            busy = 0.0
            for lane in lanes:
                busy += self.schedule.busy_time(tag=lane)
            out[name] = busy
        return out

    def occupancy(self) -> dict[str, float]:
        """Per-device busy fraction of the makespan (0 when nothing ran).

        Summed over a device's lanes, so a device running two streams
        flat-out reports up to ``streams_per_device`` × the makespan of
        busy time normalized back to [0, streams]; divided by lane count
        to land in [0, 1].
        """
        span = self.makespan()
        if span <= 0:
            return {f"dev{i}": 0.0 for i in range(len(self.devices))}
        lanes_per_dev = len(self.lanes) // len(self.devices)
        return {
            name: busy / (span * lanes_per_dev)
            for name, busy in self.device_busy().items()
        }
