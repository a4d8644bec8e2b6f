"""The Matlab and Python columns: profiles, seeding strategy, modeled
times, charged from the CUDA fit's counters."""

import pytest

from repro.baselines.cost import (
    MATLAB_2015A,
    PYTHON_27,
    baseline_stages,
    similarity_vectorized_time,
)
from repro.bench.runner import run_comparison


class TestBaselineRuns:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_comparison("fb", scale=0.1, seed=0, eig_tol=1e-8, project=False)

    def test_both_recover_communities(self, runs):
        # Matlab's random seeding recovers less reliably than k-means++ —
        # the very effect the paper's iteration-count comparison rests on
        assert runs.quality["matlab"] > 0.6
        assert runs.quality["python"] > 0.9

    def test_modeled_stage_keys(self, runs):
        assert set(runs.stages) == {"eigensolver", "kmeans"}
        for cols in runs.stages.values():
            assert set(cols) == {"cuda", "matlab", "python"}

    def test_graph_input_has_no_similarity_cost(self, runs):
        assert "similarity" not in runs.stages
        stages = baseline_stages(
            MATLAB_2015A, n=100, nnz=400, k=4, m=9, n_op=30, n_restarts=3,
            kmeans_iters=5, point_input=False,
        )
        assert set(stages) == {"eigensolver", "kmeans"}

    def test_python_eigensolver_modeled_slower(self, runs):
        eig = runs.stages["eigensolver"]
        assert eig["python"] > eig["matlab"]

    def test_names(self):
        assert MATLAB_2015A.name == "Matlab" and PYTHON_27.name == "Python"

    def test_matlab_uses_random_seeding(self, runs):
        """Matlab seeds k-means at random; sklearn seeds with k-means++
        as the CUDA fit does, so the Python column runs the fit's own
        Lloyd iterations."""
        assert MATLAB_2015A.kmeans_init == "random"
        assert PYTHON_27.kmeans_init == "k-means++"
        c = runs.counters
        assert c["matlab_kmeans_iters"] >= 1
        assert c["python_kmeans_iters"] == c["cuda_kmeans_iters"]
        assert runs.quality["python"] == runs.quality["cuda"]


class TestPointInputBaselines:
    def test_similarity_modeled_serial_and_vectorized(self):
        nnz = 5000
        serial = baseline_stages(
            MATLAB_2015A, n=100, nnz=nnz, k=4, m=9, n_op=30, n_restarts=3,
            kmeans_iters=5, point_input=True,
        )["similarity"]
        vec = similarity_vectorized_time(MATLAB_2015A, nnz)
        assert serial > vec > 0
        # serial/vectorized ratio ~ 55.4/1.44 ~ 38x
        assert 30 < serial / vec < 50
