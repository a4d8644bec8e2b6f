"""End-to-end service semantics: correctness, caching, throughput, chaos.

These tests pin the ISSUE's acceptance criteria: cache hits bit-identical
to cold runs, batched+cached service at least 2x the sequential simulated
throughput on a repeat-heavy workload, and fault isolation inside a batch.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.serve import (
    ClusterService,
    ServiceConfig,
    run_sequential,
    verify_against_cold,
)
from repro.serve.request import DEFAULT_REQUEST_CONFIG, ClusterRequest


def _service(**kw):
    kw.setdefault("max_batch", 8)
    kw.setdefault("cache_entries", 16)
    return ClusterService(ServiceConfig(**kw))


class TestServiceConfigValidation:
    """Every count field is checked once, at construction, with a typed
    error naming the field."""

    @pytest.mark.parametrize("name,value", [
        ("queue_capacity", 2.5),
        ("max_batch", 2.5),
        ("cache_entries", 2.5),
        ("n_devices", True),
        ("n_devices", 1.5),
        ("streams_per_device", 1.5),
        ("max_batch", "4"),
        ("streams_per_device", False),
        ("queue_capacity", 0),
        ("max_batch", 0),
        ("n_devices", 0),
        ("streams_per_device", 0),
        ("cache_entries", -1),
    ])
    def test_bad_count_rejected(self, name, value):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match=name):
            ServiceConfig(**{name: value})


class TestServiceCorrectness:
    def test_single_request_matches_direct_fit(self, make_request, small_graph):
        req = make_request()
        responses, report = _service().process([req])
        resp = responses[0]
        assert resp.ok and not resp.cache_hit
        cold = req.estimator().fit(graph=small_graph)
        assert np.array_equal(resp.labels, cold.labels)
        assert np.array_equal(resp.embedding, cold.embedding)
        assert np.array_equal(resp.eigenvalues, cold.eigenvalues)
        assert report.n_ok == 1

    def test_batched_requests_bit_identical_to_cold(self, make_request,
                                                    small_graph):
        """A shared operator/solve must not perturb any member's result."""
        reqs = [make_request(n_clusters=k, seed=s)
                for k in (3, 4) for s in (0, 1)]
        responses, report = _service().process(reqs)
        assert report.batches["max_batch"] == 4
        for req, resp in zip(reqs, responses):
            cold = req.estimator().fit(graph=small_graph)
            assert np.array_equal(resp.labels, cold.labels), req.request_id
            assert np.array_equal(resp.embedding, cold.embedding)

    def test_cache_hit_bit_identical(self, make_request):
        """Second identical request hits the cache and matches exactly."""
        a, b = make_request(), make_request(arrival=1.0)
        responses, report = _service().process([a, b])
        assert not responses[0].cache_hit
        assert responses[1].cache_hit
        assert report.n_cache_hits == 1
        assert np.array_equal(responses[0].labels, responses[1].labels)
        assert np.array_equal(responses[0].embedding, responses[1].embedding)

    def test_cache_hit_skips_solver_time(self, make_request):
        a, b = make_request(), make_request(arrival=10.0)
        responses, _ = _service().process([a, b])
        hit = responses[1]
        assert "eigensolver" not in hit.timings.simulated
        assert hit.latency < responses[0].latency

    def test_cache_hit_returns_the_entry_labels(self, make_request):
        """A hit fit reuses the labels the solve's k-means produced: no
        k-means unit is scheduled for it, and it completes on arrival."""
        a, b = make_request(), make_request(arrival=10.0)
        service = _service()
        responses, _ = service.process([a, b])
        hit = responses[1]
        assert hit.cache_hit and hit.latency == 0.0
        assert "kmeans" not in hit.timings.simulated
        assert np.array_equal(hit.labels, responses[0].labels)
        names = [ev.name for ev in service.scheduler.schedule]
        assert sum(":kmeans[" in n for n in names) == 1
        assert not any(b.request_id in n for n in names)

    def test_label_knobs_reuse_the_cached_solve(self, make_request):
        """A request that differs only in kmeans_max_iter hits the solve
        but reruns k-means, and its labels equal a cold fit's."""
        reqs = [make_request(), make_request(arrival=1.0, kmeans_max_iter=2)]
        service = _service()
        responses, report = service.process(reqs)
        assert [r.cache_hit for r in responses] == [False, True]
        names = [ev.name for ev in service.scheduler.schedule]
        assert sum("eigensolve" in n for n in names) == 1
        assert sum(":kmeans[" in n for n in names) == 2
        assert verify_against_cold(responses, reqs) == []

    def test_one_label_set_per_cache_entry(self, make_request, small_graph):
        """An entry keeps the label set of the request that solved it: each
        repeat with other label knobs hits the solve but runs its own
        k-means, and its labels are served, never cached."""
        from repro.serve.fingerprint import embedding_key, graph_fingerprint

        first = make_request()
        repeats = [
            make_request(arrival=1.0 + i, kmeans_max_iter=2) for i in range(2)
        ]
        reqs = [first] + repeats
        service = _service()
        responses, _ = service.process(reqs)
        assert [r.cache_hit for r in responses] == [False, True, True]
        names = [ev.name for ev in service.scheduler.schedule]
        assert sum("eigensolve" in n for n in names) == 1
        assert sum(":kmeans[" in n for n in names) == 3
        for r in repeats:
            assert any(f":kmeans[{r.request_id}]" in n for n in names)
        entry = service.cache.get(
            embedding_key(graph_fingerprint(small_graph), first.config)
        )
        assert entry.config.kmeans_max_iter == first.config.kmeans_max_iter != 2
        assert np.array_equal(entry.labels, responses[0].labels)
        assert verify_against_cold(responses, reqs) == []

    def test_different_seeds_do_not_share_cache(self, make_request):
        a, b = make_request(seed=0), make_request(arrival=1.0, seed=1)
        responses, report = _service().process([a, b])
        assert report.n_cache_hits == 0
        assert not np.array_equal(responses[0].embedding, responses[1].embedding)

    def test_precision_and_embedding_partition_the_cache(self, make_request):
        """The embedding key carries the precision and embedding axes: an
        fp32 or power-embedding result must never be served to an fp64
        Lanczos request, while a repeat of the same cell still hits."""
        reqs = [
            make_request(),
            make_request(arrival=1.0, precision="fp32"),
            make_request(arrival=2.0, embedding="power"),
            make_request(arrival=3.0, precision="fp32"),
        ]
        responses, report = _service().process(reqs)
        assert all(r.ok for r in responses)
        # only the repeated fp32 cell hits; the axes never cross-serve
        assert [r.cache_hit for r in responses] == [
            False, False, False, True,
        ]
        assert report.n_cache_hits == 1
        assert np.array_equal(responses[1].embedding, responses[3].embedding)

    def test_verify_against_cold_clean_run(self, make_request):
        reqs = [make_request(n_clusters=k) for k in (3, 4, 3)]
        responses, _ = _service().process(reqs)
        assert verify_against_cold(responses, reqs) == []

    def test_verify_against_cold_audits_predicts(self, make_request):
        """A fit, then predicts on its spec: the predicts ride on the
        fit's entry, and the audit recomputes each one on a cold fit's
        model — a corrupted predict label is caught."""
        from repro.serve.request import PredictRequest

        fit = make_request(request_id="fit")
        reqs = [fit] + [
            PredictRequest(
                request_id=f"p{i}", fit=fit, arrival=1.0 + i, new_seed=i
            )
            for i in range(2)
        ]
        responses, _ = _service().process(reqs)
        assert all(r.ok and r.model_hit for r in responses[1:])
        assert verify_against_cold(responses, reqs) == []
        responses[2].labels = responses[2].labels.copy()
        responses[2].labels[0] += 1
        problems = verify_against_cold(responses, reqs)
        assert len(problems) == 1 and problems[0].startswith("p1: labels")

    def test_responses_in_request_order(self, make_request):
        reqs = [make_request(arrival=0.5), make_request(arrival=0.0)]
        responses, _ = _service().process(reqs)
        assert [r.request_id for r in responses] == [r.request_id for r in reqs]

    def test_duplicate_request_ids_rejected(self, make_request):
        from repro.errors import ServiceError

        a = make_request(request_id="dup")
        b = make_request(request_id="dup")
        with pytest.raises(ServiceError):
            _service().process([a, b])

    def test_point_input_requests(self, blobs):
        X, _, k = blobs
        n = X.shape[0]
        rng = np.random.default_rng(0)
        rows = rng.integers(0, n, size=600)
        cols = rng.integers(0, n, size=600)
        edges = np.stack([rows, cols], axis=1)
        req = ClusterRequest(
            request_id="pts", X=X, edges=edges,
            config=replace(DEFAULT_REQUEST_CONFIG, n_clusters=k),
        )
        responses, _ = ClusterService().process([req])
        resp = responses[0]
        assert resp.ok
        cold = req.estimator().fit(X=X, edges=edges)
        assert np.array_equal(resp.labels, cold.labels)

    def test_non_finite_graph_fails_alone(self, make_request, small_graph):
        """The build unit runs the estimator's similarity stage, so a NaN
        weight fails its request with the typed error, not a -1 label."""
        bad = small_graph.copy()
        bad.data[7] = np.nan
        responses, _ = _service().process(
            [make_request(graph=bad), make_request()]
        )
        assert not responses[0].ok
        assert responses[0].error.startswith("ClusteringError: graph weights")
        assert responses[1].ok


class TestServiceThroughput:
    def test_batched_cached_at_least_2x_sequential(self, make_request):
        """The headline acceptance criterion, on a repeat-heavy workload."""
        reqs = [
            make_request(arrival=i * 1e-4, n_clusters=3 if i % 2 else 4)
            for i in range(10)
        ]
        responses, report = _service(streams_per_device=2).process(reqs)
        seq_resp, seq_report = run_sequential(reqs)
        assert report.n_ok == seq_report.n_ok == len(reqs)
        assert report.n_cache_hits > 0
        speedup = seq_report.makespan / report.makespan
        assert speedup >= 2.0, f"only {speedup:.2f}x"
        assert report.throughput_rps > 2.0 * seq_report.throughput_rps
        # and the fast path changed nothing
        for fast, slow in zip(responses, seq_resp):
            assert np.array_equal(fast.labels, slow.labels)
            assert np.array_equal(fast.embedding, slow.embedding)

    def test_queue_wait_charged_to_latency(self, make_request):
        reqs = [make_request(arrival=0.0), make_request(arrival=0.0,
                                                        n_clusters=5)]
        responses, _ = _service(max_batch=1, streams_per_device=1).process(reqs)
        second = responses[1]
        assert second.queue_wait > 0
        assert second.latency >= second.queue_wait

    def test_rejection_under_burst(self, make_request):
        reqs = [make_request(arrival=0.0) for _ in range(6)]
        responses, report = _service(
            queue_capacity=2, max_batch=1, cache_entries=0
        ).process(reqs)
        assert report.n_rejected > 0
        assert report.n_ok + report.n_rejected == len(reqs)
        rejected = [r for r in responses if r.status == "rejected"]
        assert all(r.labels is None for r in rejected)
        assert all("queue full" in r.error for r in rejected)

    def test_multi_device_distributes_work(self, make_request, other_graph):
        """Two incompatible request streams spread over two devices."""
        reqs = []
        for i in range(4):
            reqs.append(make_request(arrival=0.0, seed=i))
            reqs.append(make_request(arrival=0.0, graph=other_graph, seed=i))
        _, report = _service(
            n_devices=2, cache_entries=0, max_batch=1
        ).process(reqs)
        busy = report.occupancy
        assert busy["dev0"] > 0 and busy["dev1"] > 0


class TestServiceChaos:
    def test_fault_isolated_from_batch_mates(self, make_request, small_graph):
        """A terminally failing request must not poison its batch."""
        chaotic = make_request(chaos=1003, no_resilience=True)
        clean = [make_request(seed=s) for s in (0, 1)]
        reqs = [chaotic] + clean
        responses, report = _service().process(reqs)
        by_id = {r.request_id: r for r in responses}
        # the chaotic request may fail or survive (depends where faults land)
        for req in clean:
            resp = by_id[req.request_id]
            assert resp.ok, resp.error
            cold = req.estimator().fit(graph=small_graph)
            assert np.array_equal(resp.labels, cold.labels)
            assert np.array_equal(resp.embedding, cold.embedding)

    def test_resilient_chaos_recovers_and_is_flagged(self, make_request):
        reqs = [make_request(chaos=7)]
        responses, report = _service().process(reqs)
        resp = responses[0]
        assert resp.ok
        assert resp.resilience  # recovery recorded
        assert report.n_degraded == 1

    def test_faulted_results_never_cached(self, make_request):
        """A recovered (resilient) computation must not seed the cache."""
        svc = _service()
        reqs = [make_request(chaos=7), make_request(arrival=100.0)]
        responses, report = svc.process(reqs)
        assert responses[0].ok
        assert not responses[1].cache_hit  # recomputed, not served tainted
        assert svc.cache.stats.insertions >= 1  # the clean rerun is cached

    def test_faulted_reduced_precision_embedding_never_cached(
        self, make_request
    ):
        """The taint rule extends to the mixed-precision cells: a
        reduced-precision embedding computed under fault recovery must
        not seed the cache, even though it is numerically valid — the
        second identical fp32 request recomputes cleanly."""
        svc = _service()
        reqs = [
            make_request(precision="fp32", chaos=7),
            make_request(precision="fp32", arrival=100.0),
        ]
        responses, _ = svc.process(reqs)
        assert responses[0].ok
        assert responses[0].resilience  # recovery actually happened
        assert not responses[1].cache_hit  # tainted, so recomputed
        assert responses[1].ok
        # the clean rerun agrees bit-for-bit (deterministic reduced path)
        assert np.array_equal(responses[0].labels, responses[1].labels)
        assert svc.cache.stats.insertions >= 1

    def test_failed_leader_work_recomputed_for_survivors(self, make_request,
                                                         small_graph):
        """Exhaustive chaos seeds: whatever unit the fault kills, every
        non-chaotic batch-mate still gets a bit-exact result."""
        clean_cold = {}
        for seed in (1001, 1005, 1009):
            chaotic = make_request(chaos=seed, no_resilience=True)
            mate = make_request(seed=3)
            responses, _ = _service().process([chaotic, mate])
            resp = responses[1]
            assert resp.ok, resp.error
            if "ref" not in clean_cold:
                clean_cold["ref"] = mate.estimator().fit(graph=small_graph)
            assert np.array_equal(resp.labels, clean_cold["ref"].labels)


class TestServiceReportShape:
    def test_report_serializes(self, make_request):
        reqs = [make_request(), make_request(arrival=0.5)]
        _, report = _service().process(reqs)
        import json

        d = json.loads(report.to_json())
        assert d["requests"]["total"] == 2
        assert "latency_s" in d and "p95" in d["latency_s"]
        assert "occupancy" in d and "profile" in d
        text = report.format_report()
        assert "cache hit rate" in text and "makespan" in text

    def test_profile_totals_match_devices(self, make_request):
        svc = _service()
        _, report = svc.process([make_request()])
        assert report.profile is not None
        assert report.profile.total > 0


class TestMultiDeviceServing:
    """Multi-device requests gang-schedule across device lanes and still
    share the embedding cache with single-device solves."""

    def test_multi_device_request_bit_identical(self, make_request):
        ref, _ = _service().process([make_request()])
        multi, _ = _service(n_devices=2).process(
            [make_request(devices=2)]
        )
        assert multi[0].labels.tobytes() == ref[0].labels.tobytes()
        assert np.array_equal(multi[0].eigenvalues, ref[0].eigenvalues)

    def test_solve_occupies_multiple_lanes(self, make_request):
        svc = _service(n_devices=2)
        svc.process([make_request(devices=2)])
        solves = [
            ev for ev in svc.scheduler.schedule if "eigensolve" in ev.name
        ]
        # the gang reserves one lane per device, same start, same duration
        assert len(solves) == 2
        assert {ev.tag.split("/")[0] for ev in solves} == {"dev0", "dev1"}
        assert len({ev.start for ev in solves}) == 1
        assert len({ev.duration for ev in solves}) == 1

    def test_width_capped_by_available_lanes(self, make_request):
        svc = _service(n_devices=1, streams_per_device=1)
        responses, _ = svc.process([make_request(devices=4)])
        assert responses[0].error is None

    def test_device_count_does_not_split_cache(self, make_request):
        """devices is not part of the embedding key: one solve serves
        both a single- and a multi-device request for the same problem."""
        svc = _service(n_devices=2)
        responses, report = svc.process(
            [
                make_request(devices=1),
                make_request(devices=2),
            ]
        )
        solve_names = {
            ev.name for ev in svc.scheduler.schedule if "eigensolve" in ev.name
        }
        assert len(solve_names) == 1
        a, b = responses
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_composed_request_bit_identical(self, make_request):
        """A multi-device request (power embedding) runs the staged
        estimator with a sharded solve and reproduces the single-device
        answer bit for bit."""
        ref, _ = _service().process([make_request(embedding="power")])
        comp, _ = _service(n_devices=2).process(
            [make_request(embedding="power", devices=2)]
        )
        assert comp[0].labels.tobytes() == ref[0].labels.tobytes()
        assert np.array_equal(comp[0].eigenvalues, ref[0].eigenvalues)

    def test_composed_does_not_split_cache(self, make_request):
        """A multi-device request serves a cached single-device
        embedding too."""
        svc = _service(n_devices=2)
        responses, _ = svc.process(
            [
                make_request(embedding="power"),
                make_request(embedding="power", devices=2),
            ]
        )
        solve_names = {
            ev.name for ev in svc.scheduler.schedule if "eigensolve" in ev.name
        }
        assert len(solve_names) == 1
        a, b = responses
        assert a.labels.tobytes() == b.labels.tobytes()


class TestCompressiveServing:
    """The compressive tier rides the service like any embedding: cache
    hits are bit-identical, tier keys never cross, and the taint rule
    (faulted embeddings never seed the cache) extends to it."""

    def test_compressive_cache_hit_bit_identical(self, make_request):
        svc = _service()
        reqs = [
            make_request(embedding="compressive"),
            make_request(embedding="compressive", arrival=100.0),
        ]
        responses, _ = svc.process(reqs)
        assert responses[0].ok and not responses[0].cache_hit
        assert responses[1].ok and responses[1].cache_hit
        assert np.array_equal(responses[0].labels, responses[1].labels)
        assert np.array_equal(responses[0].embedding, responses[1].embedding)

    def test_compressive_never_serves_exact_entry(self, make_request,
                                                  small_graph):
        """Same workload, exact then compressive: the second request must
        compute its own embedding, not hit the exact entry."""
        svc = _service()
        reqs = [
            make_request(),
            make_request(embedding="compressive", arrival=100.0),
        ]
        responses, _ = svc.process(reqs)
        assert responses[1].ok and not responses[1].cache_hit
        cold = reqs[1].estimator().fit(graph=small_graph)
        assert np.array_equal(responses[1].labels, cold.labels)

    def test_faulted_compressive_embedding_never_cached(self, make_request):
        """A compressive solve that recovered from injected faults must
        not seed the cache; the next identical request recomputes."""
        from repro.chaos import FaultPlan, FaultSpec

        plan = FaultPlan(
            [FaultSpec(site="compressive.filter", fault="transient",
                       nth=1, stage="eigensolver")]
        )
        svc = _service()
        reqs = [
            make_request(embedding="compressive", chaos=plan),
            make_request(embedding="compressive", arrival=100.0),
        ]
        responses, _ = svc.process(reqs)
        assert responses[0].ok
        assert responses[0].resilience  # recovery actually happened
        assert not responses[1].cache_hit  # tainted, so recomputed
        assert responses[1].ok
        # deterministic tier: the clean rerun agrees bit-for-bit
        assert np.array_equal(responses[0].labels, responses[1].labels)
        assert svc.cache.stats.insertions >= 1
