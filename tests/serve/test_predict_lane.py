"""The predict fast lane: warm/cold serving, ordering, taint, baselines."""

import numpy as np
import pytest

from repro.serve.request import PredictRequest, PredictResponse
from repro.serve.service import (
    ClusterService,
    ServiceConfig,
    run_sequential,
    verify_against_cold,
)
from repro.serve.traceio import (
    read_trace,
    synthetic_predict_trace,
    write_trace,
)


def _service(**kw):
    kw.setdefault("max_batch", 4)
    kw.setdefault("queue_capacity", 64)
    return ClusterService(ServiceConfig(**kw))


@pytest.fixture
def make_predict(make_request):
    """Factory for synthetic-payload predicts sharing one fit spec."""
    counter = {"n": 0}
    shared = {}

    def factory(arrival=0.0, fit=None, **kw):
        counter["n"] += 1
        if fit is None:
            fit = shared.setdefault(
                "fit", make_request(request_id="fitspec")
            )
        return PredictRequest(
            request_id=kw.pop("request_id", f"p{counter['n']:03d}"),
            fit=fit,
            arrival=arrival,
            **kw,
        )

    return factory


class TestFastLane:
    def test_cold_then_warm(self, make_predict):
        svc = _service()
        reqs = [make_predict(arrival=0.0), make_predict(arrival=50.0)]
        responses, report = svc.process(reqs)
        first, second = responses
        assert first.ok and second.ok
        assert first.cold_fit and not first.model_hit
        assert second.model_hit and not second.cold_fit
        assert report.predict["total"] == 2
        assert report.predict["cold_fits"] == 1
        assert report.predict["model_hits"] == 1
        assert report.predict["ledger_mismatches"] == 0

    def test_cold_predict_runs_the_fit_batch_stages(
        self, make_predict, make_request
    ):
        """A predict that misses builds its entry by the fit batch's path:
        an operator build, an eigensolve and a k-means unit of its own,
        no opaque cold-fit unit; a later fit and predict hit that entry,
        and every response equals a cold fit's."""
        svc = _service()
        reqs = [
            make_predict(arrival=0.0, request_id="pcold"),
            make_request(arrival=0.001, request_id="fit"),
            make_predict(arrival=0.002, request_id="pwarm"),
        ]
        responses, _ = svc.process(reqs)
        cold, fit, warm = responses
        assert cold.cold_fit and fit.cache_hit and warm.model_hit
        names = [ev.name for ev in svc.scheduler.schedule]
        own = sorted(n for n in names if n.startswith("predict[pcold]:"))
        assert own == [
            "predict[pcold]:eigensolve[k=4]",
            "predict[pcold]:kmeans[pcold]",
            "predict[pcold]:operator",
        ]
        assert sum(":operator" in n for n in names) == 1
        assert not any("coldfit" in n for n in names)
        assert verify_against_cold(responses, reqs) == []

    def test_warm_latency_far_below_cold(self, make_predict):
        responses, _ = _service().process(
            [make_predict(arrival=0.0), make_predict(arrival=50.0)]
        )
        cold, warm = responses
        assert warm.latency < cold.latency / 10

    def test_warm_predict_matches_direct_model_call(
        self, make_predict, make_request, small_graph
    ):
        """The lane's answer is the model's answer — same payload rng."""
        preq = make_predict(arrival=0.0, n_new=6, new_seed=3)
        responses, _ = _service().process([preq])
        resp = responses[0]
        assert resp.ok and resp.n_new == 6
        # every synthetic new vertex clones an anchor row, so labels are
        # a subset of the fit's label alphabet
        cold = preq.fit.estimator().fit(graph=small_graph)
        assert set(resp.labels.tolist()) <= set(cold.labels.tolist())

    def test_ledgers_audited_on_device(self, make_predict):
        responses, report = _service().process(
            [make_predict(arrival=0.0), make_predict(arrival=50.0)]
        )
        assert all(r.ledger_ok is True for r in responses)
        assert report.predict["ledger_checked"] == 2
        assert report.predict["ledger_mismatches"] == 0

    def test_ratiocut_fit_spec_fails_cleanly(self, make_predict, make_request):
        fit = make_request(objective="ratiocut")
        responses, report = _service().process(
            [make_predict(arrival=0.0, fit=fit)]
        )
        resp = responses[0]
        assert not resp.ok
        assert "no Nyström extension" in resp.error
        assert report.predict["failed"] == 1

    @pytest.mark.parametrize("knobs", [
        {"objective": "ratiocut"}, {"embedding": "compressive"},
    ], ids=["ratiocut", "compressive"])
    def test_unpredictable_fit_spec_fails_at_arrival(
        self, make_predict, make_request, knobs
    ):
        """A predict that can never succeed runs no unit: no cold fit,
        nothing cached, and it fails the moment it arrives — every time."""
        fit = make_request(**knobs)
        svc = _service()
        reqs = [make_predict(arrival=0.5 * i, fit=fit) for i in range(3)]
        responses, report = svc.process(reqs)
        assert len(svc.scheduler.schedule.events) == 0
        for req, resp in zip(reqs, responses):
            assert not resp.ok and "no Nyström extension" in resp.error
            assert resp.completed == req.arrival
        assert report.cache["misses"] == 0

    def test_predict_rides_on_a_fit_batch_entry(
        self, make_predict, make_request
    ):
        """A predict after a fit of the same spec reuses the fit's cache
        entry: one solve, no cold fit, and the basis goes to the device
        once — the second predict uploads only its own payload."""
        fit = make_request(request_id="fit")
        svc = _service()
        reqs = [
            fit,
            make_predict(arrival=10.0, fit=fit),
            make_predict(arrival=20.0, fit=fit),
        ]
        responses, report = svc.process(reqs)
        _, first, second = responses
        assert first.model_hit and not first.cold_fit
        assert second.model_hit and report.predict["cold_fits"] == 0
        names = [ev.name for ev in svc.scheduler.schedule]
        assert sum("eigensolve" in n for n in names) == 1
        # the predicts run their Nyström units and no fit stage
        assert not any(n.startswith("predict[") and "]:" in n for n in names)
        assert first.ledger_ok is True and second.ledger_ok is True
        assert verify_against_cold(responses, reqs) == []

    def test_duplicate_predict_id_rejected(self, make_predict):
        from repro.errors import ServiceError

        a = make_predict(request_id="dup")
        b = make_predict(request_id="dup")
        with pytest.raises(ServiceError, match="duplicate"):
            _service().process([a, b])

    def test_unknown_request_type_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="ClusterRequest or Predict"):
            _service().process([object()])


class TestMixedTrace:
    def test_fits_and_predicts_interleave(self, make_request, make_predict):
        """Fit requests and predicts share the service; responses come
        back in request order with the right types."""
        svc = _service()
        reqs = [
            make_request(arrival=0.0),
            make_predict(arrival=0.001),
            make_request(arrival=0.002, n_clusters=3),
            make_predict(arrival=60.0),
        ]
        responses, report = svc.process(reqs)
        assert [isinstance(r, PredictResponse) for r in responses] == [
            False, True, False, True
        ]
        assert all(r.ok for r in responses), [r.error for r in responses]
        assert report.n_requests == 4
        assert report.predict["total"] == 2

    def test_synthetic_predict_trace_end_to_end(self):
        reqs = synthetic_predict_trace(
            n_requests=12, datasets=(("syn200", 0.05),),
            predict_fraction=0.75, seed=1,
        )
        n_predicts = sum(isinstance(r, PredictRequest) for r in reqs)
        assert n_predicts == 9
        responses, report = _service().process(reqs)
        assert all(r.ok for r in responses), [r.error for r in responses]
        assert report.predict["total"] == 9
        assert report.predict["model_hits"] + report.predict["cold_fits"] == 9
        assert report.predict["model_hits"] > 0  # the point of the lane
        assert report.predict["ledger_mismatches"] == 0


class TestOrdering:
    def test_dispatch_order_priority_then_deadline(self, make_predict):
        from repro.serve.scheduler import StreamScheduler

        low = make_predict(request_id="low", priority=0)
        urgent = make_predict(request_id="urgent", priority=0, deadline=0.5)
        late = make_predict(request_id="late", priority=0, deadline=9.0)
        vip = make_predict(request_id="vip", priority=5)
        order = StreamScheduler.dispatch_order([low, late, vip, urgent])
        assert [r.request_id for r in order] == [
            "vip", "urgent", "late", "low"
        ]

    def test_priority_wins_the_lane(self, make_predict):
        """Two predicts arrive together on one lane; the priority one
        starts first even though its id sorts later."""
        svc = _service(streams_per_device=1)
        a = make_predict(request_id="pa", arrival=0.0)
        z = make_predict(request_id="pz", arrival=0.0, priority=9)
        responses, _ = svc.process([a, z])
        by_id = {r.request_id: r for r in responses}
        assert by_id["pz"].start < by_id["pa"].start

    def test_deadline_miss_counted(self, make_predict):
        svc = _service()
        # a cold fit stands between arrival and this deadline: unmeetable
        preq = make_predict(arrival=0.0, deadline=1e-9)
        responses, report = svc.process([preq])
        resp = responses[0]
        assert resp.ok
        assert resp.deadline_met is False
        assert report.predict["with_deadline"] == 1
        assert report.predict["deadline_misses"] == 1
        assert svc.scheduler.deadline_misses == 1

    def test_met_deadline_not_counted(self, make_predict):
        svc = _service()
        responses, report = svc.process(
            [make_predict(arrival=0.0, deadline=1e6)]
        )
        assert responses[0].deadline_met is True
        assert report.predict["deadline_misses"] == 0


class TestTaintRule:
    def test_recovered_coldfit_never_caches_model(self, make_predict):
        """chaos=7 recovers inside the cold fit (see test_service); the
        tainted model must not seed the cache, so the next predict against
        the same spec cold-fits again — and, being clean, caches."""
        svc = _service()
        reqs = [
            make_predict(arrival=0.0, chaos=7),
            make_predict(arrival=100.0),
            make_predict(arrival=200.0),
        ]
        responses, _ = svc.process(reqs)
        tainted, retry, warm = responses
        assert tainted.ok
        assert tainted.resilience  # recovery actually happened
        assert retry.ok and retry.cold_fit  # tainted model was not cached
        assert warm.ok and warm.model_hit  # the clean refit was

    def test_fit_spec_plan_stays_on_the_fit_units(
        self, make_predict, make_request
    ):
        """A fit spec's own chaos plan faults only its fit's units: the
        Nyström unit of a clean predict runs under no plan.  chaos=8
        recovers in the eigensolve and would fire again in the predict
        stage, were that plan carried on."""
        fit = make_request(request_id="fs", chaos=8)
        responses, _ = _service().process([make_predict(fit=fit)])
        assert responses[0].ok
        assert list(responses[0].resilience) == ["eigensolver"]

    def test_clean_coldfit_caches(self, make_predict):
        svc = _service()
        responses, _ = svc.process(
            [make_predict(arrival=0.0), make_predict(arrival=100.0)]
        )
        assert responses[0].ok and not responses[0].resilience
        assert responses[1].model_hit


class TestBaseline:
    def test_run_sequential_disables_the_model_cache(self):
        reqs = synthetic_predict_trace(
            n_requests=8, datasets=(("syn200", 0.05),),
            predict_fraction=0.75, seed=0,
        )
        responses, report = run_sequential(reqs)
        assert all(r.ok for r in responses), [r.error for r in responses]
        assert report.predict["model_hits"] == 0
        assert report.predict["cold_fits"] == report.predict["total"]

    def test_served_trace_beats_sequential_baseline(self):
        """The acceptance shape of the PR: a predict-heavy mix through
        the fast lane sustains far higher throughput than paying a cold
        fit per request."""
        reqs = synthetic_predict_trace(
            n_requests=12, datasets=(("syn200", 0.05),),
            predict_fraction=0.75, seed=2,
        )
        _, served = _service().process(reqs)
        _, seq = run_sequential(reqs)
        assert served.throughput_rps > 2.0 * seq.throughput_rps


class TestPredictTraceIO:
    def test_round_trip(self, tmp_path):
        reqs = synthetic_predict_trace(
            n_requests=10, predict_fraction=0.8, seed=4, chaos_every=3,
        )
        path = tmp_path / "trace.jsonl"
        write_trace(reqs, path)
        back = read_trace(path)
        assert len(back) == len(reqs)
        for orig, rt in zip(reqs, back):
            assert type(orig) is type(rt)
            assert orig.request_id == rt.request_id
            assert orig.arrival == rt.arrival
            if isinstance(orig, PredictRequest):
                assert orig.fit.dataset == rt.fit.dataset
                assert orig.n_new == rt.n_new
                assert orig.new_seed == rt.new_seed
                assert orig.deadline == rt.deadline
                assert orig.priority == rt.priority
                assert orig.chaos == rt.chaos

    def test_by_value_predict_payload_not_serializable(
        self, make_predict, tmp_path
    ):
        from repro.errors import ServiceError

        preq = make_predict(
            pairs_new=np.array([[0, 1]]), weights_new=np.array([0.5])
        )
        with pytest.raises(ServiceError, match="by-value"):
            write_trace([preq], tmp_path / "t.jsonl")


class TestEviction:
    def test_evicted_model_is_freed(self, make_predict, make_request):
        """The service keeps every scheduled unit for its lifetime (in
        the schedule), so a unit must not keep the result it handed
        over: an evicted model is freed."""
        import gc
        import weakref

        svc = _service(cache_entries=1)
        fits = [make_request(request_id=f"fit{s}", seed=s) for s in range(3)]
        responses, _ = svc.process([make_predict(fit=fits[0])])
        assert responses[0].ok and len(svc.cache) == 1
        (model,) = svc.cache._entries.values()
        ref = weakref.ref(model)
        del model
        responses, _ = svc.process(
            [make_predict(arrival=10.0 * s, fit=fits[s]) for s in (1, 2)]
        )
        assert all(r.ok for r in responses)
        gc.collect()
        assert ref() is None

    def test_entry_units_track_the_cache(self, make_predict, make_request):
        """The map from cached entries to the units that made them drops
        an entry's unit when the cache evicts the entry."""
        svc = _service(cache_entries=1)
        fits = [make_request(request_id=f"fit{s}", seed=s) for s in range(3)]
        for s in range(3):
            responses, _ = svc.process(
                [make_predict(arrival=10.0 * s, fit=fits[s])]
            )
            assert responses[0].ok
            assert len(svc.cache) == 1
            assert set(svc._entry_units) <= set(svc.cache._entries)

    def test_entry_units_track_the_cache_on_fits(self, make_request):
        svc = _service(cache_entries=1)
        responses, _ = svc.process([
            make_request(request_id=f"fit{s}", seed=s, arrival=10.0 * s)
            for s in range(3)
        ])
        assert all(r.ok for r in responses)
        assert len(svc.cache) == 1
        assert set(svc._entry_units) <= set(svc.cache._entries)

    def test_disk_hit_waits_for_the_fit_that_made_the_model(
        self, make_predict, make_request, tmp_path
    ):
        """An entry the LRU evicted stays on disk; when a lookup brings it
        back, a predict still waits for the cold fit that made it."""
        svc = _service(cache_entries=1, cache_dir=str(tmp_path / "store"))
        fits = [make_request(request_id=f"fit{s}", seed=s) for s in (0, 1)]
        responses, report = svc.process([
            make_predict(arrival=0.0, fit=fits[s], request_id=f"p{j}")
            for j, s in enumerate((0, 1, 0))
        ])
        assert all(r.ok for r in responses)
        assert report.cache["disk_hits"] == 1
        fit_end = max(
            ev.end for ev in svc.scheduler.schedule
            if ev.name.startswith("predict[p0]:")
        )
        # p2 arrives before p0's cold fit ends, so it must wait for it
        assert responses[2].arrival < fit_end
        assert responses[2].model_hit
        assert responses[2].start >= fit_end
