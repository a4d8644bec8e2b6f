"""Allocator hygiene: no run — clean, recovered, or failed — leaks device
memory."""

import pytest

from repro.chaos import DISABLED, FaultPlan, FaultSpec
from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.errors import ReproError


def _fit(device, W, **kw):
    return SpectralClustering(
        n_clusters=6, seed=0, device=device, **kw
    ).fit(graph=W)


class TestZeroLiveBytes:
    @pytest.mark.parametrize("objective", ["ncut", "ratiocut"])
    @pytest.mark.parametrize("operator", ["sym", "rw"])
    def test_clean_run(self, sbm_graph, objective, operator):
        W, _ = sbm_graph
        device = Device()
        _fit(device, W, objective=objective, operator=operator)
        assert device.allocator.used_bytes == 0
        assert device.allocator.peak_bytes > 0

    def test_clean_point_run(self, dti_volume):
        v = dti_volume
        device = Device()
        SpectralClustering(
            n_clusters=4, seed=0, device=device
        ).fit(X=v.profiles, edges=v.edges)
        assert device.allocator.used_bytes == 0

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(site="cusparse.*mv", fault="transient", nth=3,
                      stage="eigensolver"),
            FaultSpec(site="cuda.alloc", fault="oom", nth=1, stage="kmeans"),
            FaultSpec(site="cuda.kernel:ScaleElements*", fault="transient",
                      prob=1.0, max_fires=None),
            FaultSpec(site="cuda.kernel:fused_assign", fault="transient",
                      prob=1.0, max_fires=None, stage="kmeans"),
            FaultSpec(site="cusparse.*mv", fault="transient",
                      prob=1.0, max_fires=None, stage="eigensolver"),
        ],
        ids=["retry", "oom-degrade", "lap-fallback", "km-fallback",
             "eig-fallback"],
    )
    def test_recovered_run(self, sbm_graph, spec):
        W, _ = sbm_graph
        device = Device()
        _fit(device, W, chaos=FaultPlan([spec]))
        assert device.allocator.used_bytes == 0

    @pytest.mark.parametrize(
        "site,stage,fault",
        [
            ("cuda.h2d", "similarity", "transfer"),
            ("cusparse.coomv", "laplacian", "transient"),
            ("cuda.kernel:*", "laplacian", "transient"),
            ("cuda.alloc", "laplacian", "oom"),
            ("cusparse.*mv", "eigensolver", "transient"),
            ("cuda.d2h", "eigensolver", "transfer"),
            ("cuda.alloc", "eigensolver", "oom"),
            ("cuda.kernel:fused_assign", "kmeans", "transient"),
            ("cuda.alloc", "kmeans", "oom"),
            ("cuda.h2d", "kmeans", "transfer"),
        ],
    )
    def test_failed_run_without_resilience(self, sbm_graph, site, stage, fault):
        W, _ = sbm_graph
        device = Device()
        plan = FaultPlan(
            [FaultSpec(site=site, fault=fault, nth=1, stage=stage)]
        )
        with pytest.raises(ReproError):
            _fit(device, W, chaos=plan, resilience=DISABLED)
        assert plan.n_fired == 1
        assert device.allocator.used_bytes == 0

    def test_repeated_runs_do_not_accumulate(self, sbm_graph):
        W, _ = sbm_graph
        device = Device()
        for _ in range(3):
            _fit(device, W)
            assert device.allocator.used_bytes == 0
