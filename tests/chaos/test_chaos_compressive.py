"""Chaos coverage for the compressive tier.

Three new fault sites ship with the subsystem: the filter-phase SpMM
(``compressive.filter``), the downsample gather (``compressive.gather``)
and the lift's interpolation solve (``compressive.solve``) — plus the
shared ``cusparse.*mm`` kernel sites every operator application already
crosses.  The resilience contract matches the eigensolver paths:
transient faults retry bit-identically, persistent faults finish on the
host with identical arithmetic, and a disabled policy surfaces a typed
error.
"""

import numpy as np
import pytest

from repro.chaos import DISABLED, FaultPlan, FaultSpec
from repro.chaos.plan import KNOWN_SITES
from repro.core.pipeline import SpectralClustering
from repro.errors import ReproError

K = 6


def _fit(W, **kw):
    return SpectralClustering(n_clusters=K, seed=0, **kw).fit(graph=W)


@pytest.fixture
def clean(sbm_graph):
    W, _ = sbm_graph
    return _fit(W, embedding="compressive")


@pytest.fixture
def clean_sampled(sbm_graph):
    W, _ = sbm_graph
    return _fit(W, embedding="compressive", sample_frac=0.5)


class TestFilterChaos:
    def test_transient_filter_fault_retries_bit_identically(
        self, sbm_graph, clean
    ):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.filter", fault="transient",
                       nth=3, stage="eigensolver")]
        )
        res = _fit(W, embedding="compressive", chaos=plan)
        assert plan.n_fired >= 1
        assert res.eig_stats["spmv_retries"] >= 1
        assert np.array_equal(res.labels, clean.labels)
        assert res.embedding.tobytes() == clean.embedding.tobytes()

    def test_transient_spmm_kernel_fault_retries(self, sbm_graph, clean):
        """The shared cusparse kernel sites fire inside the tier too."""
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="cusparse.*mm", fault="transient",
                       nth=2, stage="eigensolver")]
        )
        res = _fit(W, embedding="compressive", chaos=plan)
        assert plan.n_fired >= 1
        assert np.array_equal(res.labels, clean.labels)
        assert res.embedding.tobytes() == clean.embedding.tobytes()

    def test_dead_filter_falls_back_to_host_bit_identically(
        self, sbm_graph, clean
    ):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.filter", fault="transient",
                       prob=1.0, max_fires=None, stage="eigensolver")]
        )
        res = _fit(W, embedding="compressive", chaos=plan)
        assert res.eig_stats["fallback"] == "cpu"
        assert np.array_equal(res.labels, clean.labels)
        assert res.embedding.tobytes() == clean.embedding.tobytes()

    def test_oom_mid_solve_resumes(self, sbm_graph, clean):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="cuda.alloc", fault="oom",
                       nth=2, stage="eigensolver")]
        )
        res = _fit(W, embedding="compressive", chaos=plan)
        assert plan.n_fired >= 1
        assert np.array_equal(res.labels, clean.labels)

    @pytest.mark.parametrize(
        "max_fires,resumes,fallback",
        [(3, 1, None), (None, 3, "cpu")],
        ids=["resume", "fallback"],
    )
    def test_ledger_counts_products_of_failed_attempts(
        self, sbm_graph, clean, max_fires, resumes, fallback
    ):
        """Every completed device product lands in the ledger — the probe
        products of attempts whose filter phase later died included — so
        ledger == meter on faulted runs as well as clean ones."""
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.filter", fault="transient",
                       prob=1.0, max_fires=max_fires, stage="eigensolver")]
        )
        res = _fit(W, embedding="compressive", chaos=plan)
        stats = res.eig_stats
        assert stats["n_resumes"] == resumes
        assert stats["fallback"] == fallback
        assert stats["spmv_bytes"] > clean.eig_stats["spmv_bytes"]
        assert stats["ledger_bytes"] == stats["spmv_bytes"]
        assert np.array_equal(res.labels, clean.labels)
        assert res.embedding.tobytes() == clean.embedding.tobytes()

    def test_unprotected_filter_raises_typed_error(self, sbm_graph):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.filter", fault="transient",
                       nth=1, stage="eigensolver")]
        )
        sc = SpectralClustering(
            n_clusters=K, seed=0, embedding="compressive",
            chaos=plan, resilience=DISABLED,
        )
        with pytest.raises(ReproError):
            sc.fit(graph=W)
        assert plan.n_fired == 1


class TestSamplingChaos:
    def test_transient_gather_fault_retries(self, sbm_graph, clean_sampled):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.gather", fault="transient",
                       nth=1, stage="sampling")]
        )
        res = _fit(W, embedding="compressive", sample_frac=0.5, chaos=plan)
        assert plan.n_fired >= 1
        assert res.resilience["sampling"]["retries"] >= 1
        assert np.array_equal(res.labels, clean_sampled.labels)

    def test_dead_gather_falls_back_to_host(self, sbm_graph, clean_sampled):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.gather", fault="transient",
                       prob=1.0, max_fires=None, stage="sampling")]
        )
        res = _fit(W, embedding="compressive", sample_frac=0.5, chaos=plan)
        assert plan.n_fired >= 1
        assert res.resilience["sampling"]["fallback"] == "cpu"
        # host gather is the same indexing: labels unchanged
        assert np.array_equal(res.labels, clean_sampled.labels)


class TestLiftChaos:
    def test_transient_solve_fault_retries(self, sbm_graph, clean_sampled):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.solve", fault="transient",
                       nth=1, stage="lift")]
        )
        res = _fit(W, embedding="compressive", sample_frac=0.5, chaos=plan)
        assert plan.n_fired >= 1
        assert res.resilience["lift"]["retries"] >= 1
        assert np.array_equal(res.labels, clean_sampled.labels)

    def test_dead_solve_falls_back_to_host_bit_identically(
        self, sbm_graph, clean_sampled
    ):
        W, _ = sbm_graph
        plan = FaultPlan(
            [FaultSpec(site="compressive.solve", fault="transient",
                       prob=1.0, max_fires=None, stage="lift")]
        )
        res = _fit(W, embedding="compressive", sample_frac=0.5, chaos=plan)
        assert plan.n_fired >= 1
        assert res.resilience["lift"]["fallback"] == "cpu"
        assert np.array_equal(res.labels, clean_sampled.labels)


class TestSites:
    def test_new_sites_registered(self):
        for site in ("compressive.filter", "compressive.gather",
                     "compressive.solve"):
            assert site in KNOWN_SITES
