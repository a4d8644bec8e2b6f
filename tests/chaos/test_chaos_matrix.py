"""The chaos matrix: stage × fault type against the full pipeline.

Every cell runs the pipeline with one injected fault and requires either
(a) completion with exactly the clean run's labels, or (b) a typed
:class:`~repro.errors.ReproError` — never a crash, never silent corruption.
The matrix runs at one and at two devices against the same single-device
clean labels: a sharded embedding solve must keep every fault site and
every recovery rung.  A second sweep confirms each canonical fault site is
genuinely exercised.
"""

import numpy as np
import pytest

from repro.chaos import DISABLED, FaultPlan, FaultSpec, ResiliencePolicy, chaos
from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.cuda.stream import Stream
from repro.errors import ReproError
from repro.kmeans.gpu import kmeans_device
from repro.metrics.external import adjusted_rand_index

#: one representative fault site per (stage, fault-type) cell
MATRIX = [
    ("similarity", "oom", FaultSpec(site="cuda.alloc", fault="oom",
                                    nth=1, stage="similarity")),
    ("similarity", "transfer", FaultSpec(site="cuda.h2d", fault="transfer",
                                         nth=1, stage="similarity")),
    ("similarity", "transient", FaultSpec(site="cuda.h2d", fault="transient",
                                          nth=2, stage="similarity")),
    ("eigensolver", "oom", FaultSpec(site="cuda.alloc", fault="oom",
                                     nth=1, stage="eigensolver")),
    ("eigensolver", "transfer", FaultSpec(site="cuda.d2h", fault="transfer",
                                          nth=3, stage="eigensolver")),
    ("eigensolver", "transient", FaultSpec(site="cusparse.*mv",
                                           fault="transient", nth=4,
                                           stage="eigensolver")),
    ("kmeans", "oom", FaultSpec(site="cuda.alloc", fault="oom",
                                nth=2, stage="kmeans")),
    ("kmeans", "transfer", FaultSpec(site="cuda.h2d", fault="transfer",
                                     nth=1, stage="kmeans")),
    ("kmeans", "transient", FaultSpec(site="cuda.kernel:fused_assign",
                                      fault="transient", nth=1,
                                      stage="kmeans")),
]

#: the matrix at 1 and 2 devices; the 1-device cells keep the bare ids
DEVICE_MATRIX = [
    pytest.param(
        stage, fault, spec, devices,
        id=f"{stage}-{fault}" + ("" if devices == 1 else f"-devices{devices}"),
    )
    for devices in (1, 2)
    for stage, fault, spec in MATRIX
]


@pytest.fixture
def clean_labels(sbm_graph):
    W, _ = sbm_graph
    return SpectralClustering(n_clusters=6, seed=0).fit(graph=W).labels


class TestChaosMatrix:
    @pytest.mark.parametrize("stage,fault,spec,devices", DEVICE_MATRIX)
    def test_resilient_run_matches_clean_labels(
        self, sbm_graph, clean_labels, stage, fault, spec, devices
    ):
        W, _ = sbm_graph
        plan = FaultPlan([spec])
        res = SpectralClustering(
            n_clusters=6, seed=0, chaos=plan, devices=devices
        ).fit(graph=W)
        assert plan.n_fired >= 1, "the planned fault never fired"
        assert len(res.fault_events) == plan.n_fired
        assert stage in res.degraded_stages
        assert np.array_equal(res.labels, clean_labels)

    @pytest.mark.parametrize("stage,fault,spec,devices", DEVICE_MATRIX)
    def test_unprotected_run_raises_typed_error(
        self, sbm_graph, stage, fault, spec, devices
    ):
        W, _ = sbm_graph
        plan = FaultPlan([spec])
        sc = SpectralClustering(
            n_clusters=6, seed=0, chaos=plan, resilience=DISABLED,
            devices=devices,
        )
        with pytest.raises(ReproError):
            sc.fit(graph=W)
        assert plan.n_fired == 1

    def test_same_chaos_seed_identical_runs(self, sbm_graph):
        W, _ = sbm_graph
        a = SpectralClustering(n_clusters=6, seed=0, chaos=1234).fit(graph=W)
        b = SpectralClustering(n_clusters=6, seed=0, chaos=1234).fit(graph=W)
        assert np.array_equal(a.labels, b.labels)
        assert [
            (e.site, e.stage, e.fault, e.spec_index, e.call_index)
            for e in a.fault_events
        ] == [
            (e.site, e.stage, e.fault, e.spec_index, e.call_index)
            for e in b.fault_events
        ]


class TestCpuFallback:
    def test_persistent_kernel_fault_falls_back_and_matches(
        self, sbm_graph, clean_labels
    ):
        W, truth = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="cuda.kernel:ScaleElements*", fault="transient",
                       prob=1.0, max_fires=None)]
        )
        res = SpectralClustering(n_clusters=6, seed=0, chaos=plan).fit(graph=W)
        assert res.resilience["laplacian"]["fallback"] == "cpu"
        assert adjusted_rand_index(res.labels, clean_labels) == pytest.approx(1.0)

    def test_dead_spmv_finishes_on_host_bit_identically(
        self, sbm_graph, clean_labels
    ):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="cusparse.*mv", fault="transient",
                       prob=1.0, max_fires=None, stage="eigensolver")]
        )
        res = SpectralClustering(n_clusters=6, seed=0, chaos=plan).fit(graph=W)
        rec = res.resilience["eigensolver"]
        assert rec["fallback"] == "cpu"
        assert rec["resumes"] == ResiliencePolicy().max_resumes
        # host fallback performs csrmv's exact arithmetic -> same labels
        assert np.array_equal(res.labels, clean_labels)

    def test_kmeans_fallback_recovers_truth(self, sbm_graph):
        W, truth = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="cuda.kernel:fused_assign", fault="transient",
                       prob=1.0, max_fires=None, stage="kmeans")]
        )
        res = SpectralClustering(n_clusters=6, seed=0, chaos=plan).fit(graph=W)
        assert res.resilience["kmeans"]["fallback"] == "cpu"
        assert adjusted_rand_index(res.labels, truth) == pytest.approx(1.0)

    @pytest.mark.parametrize("devices", (1, 2), ids=("devices1", "devices2"))
    def test_oom_degrades_tile_size_not_results(
        self, sbm_graph, clean_labels, devices
    ):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="cuda.alloc", fault="oom", nth=1, stage="kmeans")]
        )
        res = SpectralClustering(
            n_clusters=6, seed=0, chaos=plan, devices=devices
        ).fit(graph=W)
        assert res.resilience["kmeans"]["degrade_steps"] >= 1
        assert np.array_equal(res.labels, clean_labels)

    def test_summary_reports_recovery(self, sbm_graph):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="cusparse.*mv", fault="transient", nth=3,
                       stage="eigensolver")]
        )
        res = SpectralClustering(n_clusters=6, seed=0, chaos=plan).fit(graph=W)
        s = res.summary()
        assert "injected faults fired: 1" in s
        assert "resilience[eigensolver]" in s


class TestPointInputChaos:
    def test_similarity_stage_falls_back_to_host_build(self, dti_volume):
        X, edges = dti_volume.profiles, dti_volume.edges
        kw = dict(n_clusters=4, seed=0)
        clean = SpectralClustering(**kw).fit(X=X, edges=edges)
        plan = FaultPlan(
            [FaultSpec(site="cuda.kernel:*", fault="transient",
                       prob=1.0, max_fires=None, stage="similarity")]
        )
        res = SpectralClustering(**kw, chaos=plan).fit(X=X, edges=edges)
        assert res.resilience["similarity"]["fallback"] == "cpu"
        assert adjusted_rand_index(res.labels, clean.labels) == pytest.approx(1.0)


class TestEverySiteFires:
    """Each canonical fault site must be reachable by at least one workload."""

    def _pipeline_sites(self, sbm_graph, site, stage=None, **kw):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site=site, fault="transient", nth=1, stage=stage)]
        )
        sc = SpectralClustering(
            n_clusters=6, seed=0, chaos=plan, resilience=DISABLED, **kw
        )
        with pytest.raises(ReproError):
            sc.fit(graph=W)
        assert plan.n_fired == 1

    @pytest.mark.parametrize(
        "site,stage,kw",
        [
            ("cuda.alloc", None, {}),
            ("cuda.h2d", None, {}),
            ("cuda.d2h", None, {}),
            ("cuda.kernel:*", "laplacian", {}),
            ("cusparse.csrmv", None, {"eig_spmv_format": "csr"}),
            ("cusparse.coomv", None, {}),
            ("cusparse.ellmv", None, {"eig_spmv_format": "ell"}),
            ("cusparse.csr2ell", None, {"eig_spmv_format": "ell"}),
            ("cuda.kernel:fused_assign", "kmeans", {}),
            ("cuda.kernel:label_histogram", "kmeans", {}),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_pipeline_reaches_site(self, sbm_graph, site, stage, kw):
        self._pipeline_sites(sbm_graph, site, stage, **kw)

    def test_unfused_kmeans_reaches_cublas(self, device, blobs):
        """The discrete kernel sequence (an ablation-only path of
        ``kmeans_device``) issues the cuBLAS gemm."""
        X, _, k = blobs
        plan = FaultPlan([FaultSpec(site="cublas.*", fault="transient", nth=1)])
        with chaos(plan):
            with pytest.raises(ReproError):
                kmeans_device(device, X, k, seed=0, fused=False)
        assert plan.n_fired == 1

    @pytest.mark.parametrize("site", ["cuda.stream.sync", "cuda.stream.event"])
    def test_stream_sites(self, device, site):
        plan = FaultPlan([FaultSpec(site=site, fault="transient", nth=1)])
        stream = Stream(device)
        with chaos(plan):
            with pytest.raises(ReproError):
                if site == "cuda.stream.sync":
                    stream.synchronize()
                else:
                    stream.record_event()
        assert plan.n_fired == 1
