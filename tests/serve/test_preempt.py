"""Preemptive EDF scheduling: splits, inserts, honesty, bit-parity."""

import numpy as np
import pytest

from repro.cuda.boundaries import mark_boundary
from repro.errors import ServiceError
from repro.serve.request import PredictRequest
from repro.serve.scheduler import CTX_SWITCH_S, StreamScheduler
from repro.serve.service import ClusterService, ServiceConfig


def _burn(seconds):
    def fn(dev):
        dev.charge_cpu("work", seconds)
        return seconds
    return fn


def _burn_marked(chunks):
    """Charge each chunk, marking a stage boundary between chunks."""
    def fn(dev):
        for i, c in enumerate(chunks):
            if i:
                mark_boundary(dev)
            dev.charge_cpu("work", c)
        return sum(chunks)
    return fn


def _lane_events(sched, lane):
    return sorted(
        (ev for ev in sched.schedule if ev.tag == lane),
        key=lambda ev: ev.start,
    )


def _assert_no_overlap(sched, lane):
    evs = _lane_events(sched, lane)
    for a, b in zip(evs, evs[1:]):
        assert a.end <= b.start + 1e-12, (
            f"lane {lane} overlaps: {a.name} [{a.start},{a.end}] vs "
            f"{b.name} [{b.start},{b.end}]"
        )


class TestSplitPreemption:
    def test_split_converts_miss_to_meet(self):
        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        victim = sched.run(
            "victim", 0.0, _burn_marked([0.5, 0.5]), preemptible=True
        )
        assert victim.end == pytest.approx(1.0)
        urgent = sched.run(
            "urgent", 0.2, _burn(0.2), deadline=0.8
        )
        delta = CTX_SWITCH_S
        # suspended at the boundary (t=0.5), after a context save
        assert urgent.start == pytest.approx(0.5 + delta)
        assert urgent.end == pytest.approx(0.7 + delta)
        assert urgent.deadline_met is True
        assert urgent.preempted_victim == "victim"
        # the victim's remainder resumes after the urgent unit + restore
        assert victim.end == pytest.approx(1.0 + 0.2 + 2 * delta)
        s = sched.stats
        assert s.preemptions == 1 and s.preemption_splits == 1
        assert s.preemption_inserts == 0
        assert s.saved_misses == 1
        assert s.deadlines_met == 1 and s.deadline_misses == 0
        assert s.ctx_switch_s == pytest.approx(2 * delta)
        _assert_no_overlap(sched, "dev0/s0")

    def test_context_switches_on_schedule(self):
        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        sched.run("victim", 0.0, _burn_marked([0.5, 0.5]), preemptible=True)
        sched.run("urgent", 0.2, _burn(0.2), deadline=0.8)
        names = [ev.name for ev in sched.schedule]
        assert any(n.startswith("ctx-save[victim]") for n in names)
        assert any(n.startswith("ctx-restore[victim]") for n in names)
        assert any("victim (resumed)" in n for n in names)
        # the preemption is traced on its own track
        preempt = [ev for ev in sched.schedule if ev.tag == "preempt"]
        assert len(preempt) == 1
        assert preempt[0].category == "overhead"

    def test_preempt_track_in_chrome_trace(self):
        from repro.cuda.trace import schedule_to_trace_events

        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        sched.run("victim", 0.0, _burn_marked([0.5, 0.5]), preemptible=True)
        sched.run("urgent", 0.2, _burn(0.2), deadline=0.8)
        events = schedule_to_trace_events(sched.schedule)
        threads = {
            ev["tid"] for ev in events if ev.get("ph") == "X"
            and "preempt" in ev.get("name", "")
        }
        assert len(threads) == 1  # a dedicated preemption track

    def test_pointless_preemption_declined(self):
        """No slot converts the miss → plain FIFO, no disruption paid."""
        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        victim = sched.run(
            "victim", 0.0, _burn_marked([0.5, 0.5]), preemptible=True
        )
        # even the boundary slot would finish at ~0.8 > 0.6: still a miss
        urgent = sched.run("urgent", 0.2, _burn(0.3), deadline=0.6)
        assert urgent.start == pytest.approx(1.0)
        assert sched.stats.preemptions == 0
        assert sched.stats.deadline_misses == 1
        assert victim.end == pytest.approx(1.0)

    def test_preemption_off_is_observational(self):
        sched = StreamScheduler(
            n_devices=1, streams_per_device=1, preemption=False
        )
        victim = sched.run(
            "victim", 0.0, _burn_marked([0.5, 0.5]), preemptible=True
        )
        urgent = sched.run("urgent", 0.2, _burn(0.2), deadline=0.8)
        assert urgent.start == pytest.approx(1.0)
        assert urgent.deadline_met is False
        assert sched.stats.preemptions == 0
        assert sched.stats.deadline_misses == 1
        assert victim.end == pytest.approx(1.0)


class TestInsertPreemption:
    def test_queue_jump_in_front_of_unstarted_unit(self):
        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        sched.run("head", 0.0, _burn(1.0))  # non-preemptible, running
        queued = sched.run("queued", 0.0, _burn(1.0), preemptible=True)
        assert queued.start == pytest.approx(1.0)
        urgent = sched.run("urgent", 1.0, _burn(0.3), deadline=1.4)
        assert urgent.start == pytest.approx(1.0)
        assert urgent.end == pytest.approx(1.3)
        assert urgent.deadline_met is True
        # no mid-flight state saved: a batch-member boundary is free
        assert sched.stats.preemption_inserts == 1
        assert sched.stats.preemption_splits == 0
        assert sched.stats.ctx_switch_s == 0.0
        assert queued.start == pytest.approx(1.3)
        assert queued.end == pytest.approx(2.3)
        _assert_no_overlap(sched, "dev0/s0")

    def test_non_preemptible_tail_blocks_slot(self):
        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        sched.run("head", 0.0, _burn(1.0), preemptible=True)
        sched.run("frozen", 0.0, _burn(1.0))  # not preemptible
        urgent = sched.run("urgent", 0.0, _burn(0.1), deadline=0.5)
        # shifting around the frozen unit would reorder the lane FIFO
        assert urgent.start == pytest.approx(2.0)
        assert sched.stats.preemptions == 0
        assert sched.stats.deadline_misses == 1

    def test_retired_victim_is_frozen(self):
        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        victim = sched.run(
            "victim", 0.0, _burn_marked([0.5, 0.5]), preemptible=True
        )
        # a dependent consumed the victim's end time: placement frozen
        dep = sched.run("dep", victim.end, _burn(0.1),
                        depends_on=(victim,))
        assert dep.start == pytest.approx(1.0)
        urgent = sched.run("urgent", 0.2, _burn(0.2), deadline=0.8)
        assert sched.stats.preemptions == 0
        assert urgent.deadline_met is False
        assert victim.end == pytest.approx(1.0)

    def test_preemption_restricted_to_execution_device(self):
        """The slot may not contradict the per-device profiler charge."""
        sched = StreamScheduler(n_devices=2, streams_per_device=1)
        # dev0 has a preemptible victim; dev1 is busy with frozen work
        sched.run("victim", 0.0, _burn_marked([0.5, 0.5]),
                  preemptible=True, device=sched.devices[0])
        sched.run("wall", 0.0, _burn(2.0), device=sched.devices[1])
        urgent = sched.run("urgent", 0.2, _burn(0.2), deadline=0.8,
                           device=sched.devices[1])
        # the victim lives on dev0, but the unit executed on dev1: no slot
        assert urgent.start == pytest.approx(2.0)
        assert sched.stats.preemptions == 0


class TestPreemptionInvariants:
    def test_preemptible_deadline_unit_rejected(self):
        sched = StreamScheduler()
        with pytest.raises(ServiceError, match="preemptible and deadline"):
            sched.run("bad", 0.0, _burn(0.1), preemptible=True, deadline=1.0)

    def test_preemptible_gang_rejected(self):
        sched = StreamScheduler(n_devices=2, streams_per_device=1)
        with pytest.raises(ServiceError, match="gang"):
            sched.run("bad", 0.0, _burn(0.1), preemptible=True, width=2)

    def test_lane_free_at_consistent_after_split(self):
        sched = StreamScheduler(n_devices=1, streams_per_device=1)
        sched.run("victim", 0.0, _burn_marked([0.5, 0.5]), preemptible=True)
        sched.run("urgent", 0.2, _burn(0.2), deadline=0.8)
        lane = sched.lanes[0]
        last = max(ev.end for ev in sched.schedule if ev.tag == lane.name)
        assert lane.free_at == pytest.approx(last)
        follow = sched.run("follow", 0.0, _burn(0.1))
        assert follow.start == pytest.approx(last)


class TestDispatchOrderDeterminism:
    """Satellite: equal (priority, deadline) ties break by arrival index."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equal_keys_preserve_submission_order(self, seed, make_request):
        rng = np.random.default_rng(seed)
        # ids that sort differently under lexicographic order than under
        # submission order (mixed widths, shuffled alphabet)
        ids = [f"{c}{rng.integers(0, 10**int(w))}"
               for c, w in zip("zqamxbtk", rng.integers(1, 5, size=8))]
        fit = make_request(request_id=f"fit-{seed}")
        items = [
            PredictRequest(request_id=rid, fit=fit, arrival=0.0,
                           priority=1, deadline=5.0)
            for rid in ids
        ]
        ordered = StreamScheduler.dispatch_order(items)
        assert [r.request_id for r in ordered] == ids

    def test_priority_then_deadline_still_dominate(self, make_request):
        fit = make_request()
        lo = PredictRequest(request_id="lo", fit=fit, priority=0)
        hi = PredictRequest(request_id="hi", fit=fit, priority=2)
        soon = PredictRequest(request_id="soon", fit=fit, priority=0,
                              deadline=1.0)
        ordered = StreamScheduler.dispatch_order([lo, hi, soon])
        assert [r.request_id for r in ordered] == ["hi", "soon", "lo"]


class TestServicePreemption:
    """End-to-end: an urgent predict steals time from running k-means."""

    def _trace(self, make_request, make_predict, arrival, deadline):
        warm = make_predict(arrival=0.0, request_id="warmup")
        # a seed of their own makes each fit a miss that runs k-means (a
        # fit of the warmed spec would hit and run none)
        fits = [
            make_request(arrival=0.01, request_id=f"f{i}", seed=i + 1)
            for i in range(3)
        ]
        urgent = make_predict(
            arrival=arrival, request_id="urgent", deadline=deadline,
            priority=2,
        )
        return [warm] + fits + [urgent]

    def _kmeans_window(self, make_request, make_predict):
        """Probe run: the span the batch's k-means units occupy."""
        svc = ClusterService(ServiceConfig(
            n_devices=1, streams_per_device=1, max_batch=4,
        ))
        svc.process(self._trace(make_request, make_predict, 1e9, None))
        # the fits' k-means units; the warm-up predict runs one of its own
        kev = [
            ev for ev in svc.scheduler.schedule
            if ":kmeans[f" in ev.name and ev.tag != "preempt"
        ]
        assert len(kev) == 3
        return min(e.start for e in kev), max(e.end for e in kev)

    def test_urgent_predict_preempts_kmeans(self, make_request, make_predict):
        lo, hi = self._kmeans_window(make_request, make_predict)
        arrival = lo + 0.25 * (hi - lo)
        deadline = arrival + 0.5 * (hi - arrival)
        trace = self._trace(make_request, make_predict, arrival, deadline)

        on = ClusterService(ServiceConfig(
            n_devices=1, streams_per_device=1, max_batch=4,
        ))
        r_on, rep_on = on.process(trace)
        off = ClusterService(ServiceConfig(
            n_devices=1, streams_per_device=1, max_batch=4,
            preemption=False,
        ))
        r_off, rep_off = off.process(trace)

        u_on = r_on[-1]
        u_off = r_off[-1]
        assert u_on.ok and u_off.ok
        # without preemption the predict queues behind the whole batch
        assert u_off.deadline_met is False
        assert u_on.deadline_met is True
        assert rep_on.scheduler["preemptions"] >= 1
        assert rep_on.scheduler["saved_misses"] >= 1
        assert rep_on.predict["deadline_misses"] == 0
        assert rep_off.predict["deadline_misses"] == 1
        # placement rewrites only: every result stays bit-identical
        for a, b in zip(r_on, r_off):
            assert a.request_id == b.request_id
            assert np.array_equal(a.labels, b.labels)

    def test_preempted_kmeans_response_reflects_shift(
        self, make_request, make_predict
    ):
        lo, hi = self._kmeans_window(make_request, make_predict)
        arrival = lo + 0.25 * (hi - lo)
        deadline = arrival + 0.5 * (hi - arrival)
        trace = self._trace(make_request, make_predict, arrival, deadline)
        svc = ClusterService(ServiceConfig(
            n_devices=1, streams_per_device=1, max_batch=4,
        ))
        responses, report = svc.process(trace)
        assert report.scheduler["preemptions"] >= 1
        # the victims' completion times include the stolen window: the
        # latest fit finishes after the urgent predict's span
        urgent = responses[-1]
        last_fit = max(
            (r for r in responses if r.request_id.startswith("f")),
            key=lambda r: r.completed,
        )
        assert last_fit.completed > urgent.completed
        # deferred finalization kept ordering facts coherent
        for r in responses:
            assert r.completed >= r.arrival
