"""Benchmark runner and paper-scale projection."""

import sys

import pytest

from repro.bench.report import format_comparison, format_paper_check, speedup
from repro.bench.runner import project_paper_scale, run_comparison


@pytest.fixture(scope="module")
def fb_result():
    return run_comparison("fb", scale=0.2, seed=0, eig_tol=1e-8)


class TestRunComparison:
    def test_stage_columns_present(self, fb_result):
        assert set(fb_result.stages) == {"eigensolver", "kmeans"}
        for cols in fb_result.stages.values():
            assert set(cols) == {"cuda", "matlab", "python"}
            assert all(v >= 0 for v in cols.values())

    def test_quality_reported(self, fb_result):
        assert set(fb_result.quality) == {"cuda", "matlab", "python"}
        assert fb_result.quality["cuda"] > 0.8

    def test_counters(self, fb_result):
        c = fb_result.counters
        assert c["n_op"] > 0
        assert c["cuda_kmeans_iters"] >= 1

    def test_comm_comp_split(self, fb_result):
        assert fb_result.comm > 0
        assert fb_result.comp > 0

    def test_point_dataset_has_similarity_stage(self):
        r = run_comparison("dti", scale=0.005, seed=0, eig_tol=1e-6, project=True)
        assert "similarity" in r.stages
        assert "similarity" in r.projection

    def test_paper_rows_attached(self, fb_result):
        assert "eigensolver" in fb_result.paper

    def test_one_eigensolve_and_no_reference_rerun(self):
        """Both baseline columns are charged from the CUDA fit's counters,
        so a comparison solves its eigenproblem once and never reruns the
        host reference pipeline."""
        from repro.baselines.reference import reference_spectral_clustering
        from repro.linalg.eigsolver import SymEigProblem

        watched = {
            SymEigProblem.__init__.__code__: "eigensolve",
            reference_spectral_clustering.__code__: "reference",
        }
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls.append(watched[frame.f_code])

        sys.setprofile(profile)
        try:
            run_comparison("fb", scale=0.1, seed=0, eig_tol=1e-8, project=False)
        finally:
            sys.setprofile(None)
        assert calls == ["eigensolve"]


class TestProjection:
    def test_projection_stages(self, fb_result):
        proj = fb_result.projection
        assert "eigensolver" in proj and "kmeans" in proj
        for col in ("cuda", "matlab", "python"):
            assert proj["eigensolver"][col] > 0

    def test_projected_winner_matches_paper_fb(self, fb_result):
        """Shape check: at paper scale CUDA wins both FB stages, as in
        Table IV."""
        proj = fb_result.projection
        for stage in ("eigensolver", "kmeans"):
            assert proj[stage]["cuda"] < proj[stage]["matlab"]
            assert proj[stage]["cuda"] < proj[stage]["python"]

    def test_projection_standalone(self):
        proj = project_paper_scale(
            "dblp",
            dict(
                n_op=3000, n_restarts=4, m=1001,
                cuda_kmeans_iters=20, matlab_kmeans_iters=60,
                python_kmeans_iters=25,
            ),
        )
        # DBLP shape (Table VI): CUDA beats Matlab on the eigensolver (the
        # model under-predicts the paper's 2.8x factor — the winner is the
        # shape claim; see EXPERIMENTS.md) and k-means by orders of magnitude
        assert proj["eigensolver"]["matlab"] / proj["eigensolver"]["cuda"] > 1.0
        assert proj["kmeans"]["matlab"] / proj["kmeans"]["cuda"] > 50

    def test_communication_fraction_small_at_paper_scale(self, fb_result):
        proj = fb_result.projection["eigensolver"]
        assert proj["cuda_communication"] < 0.5 * proj["cuda"]


class TestReport:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == float("inf")

    def test_format_comparison(self, fb_result):
        text = format_comparison(fb_result)
        assert "eigensolver" in text and "CUDA" in text and "ARI" in text

    def test_format_paper_check(self, fb_result):
        text = format_paper_check(fb_result)
        assert "paper" in text
        assert "winner" in text
