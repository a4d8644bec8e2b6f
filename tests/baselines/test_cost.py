"""Baseline cost models: calibration identities against the paper's own
numbers and cross-environment orderings."""

import pytest

from repro.baselines.cost import (
    MATLAB_2015A,
    PYTHON_27,
    baseline_stages,
    eigensolver_time,
    kmeans_time,
    similarity_serial_time,
    similarity_vectorized_time,
    spmv_time,
    takestep_time,
)

DTI_EDGES = 3_992_290


class TestCalibration:
    """The constants must reproduce the paper's DTI similarity rows —
    these are calibration identities, exact by construction."""

    def test_matlab_serial_similarity(self):
        assert similarity_serial_time(MATLAB_2015A, DTI_EDGES) == pytest.approx(
            221.249, rel=0.01
        )

    def test_python_serial_similarity(self):
        assert similarity_serial_time(PYTHON_27, DTI_EDGES) == pytest.approx(
            220.880, rel=0.01
        )

    def test_matlab_vectorized_similarity(self):
        assert similarity_vectorized_time(MATLAB_2015A, DTI_EDGES) == pytest.approx(
            5.753, rel=0.01
        )

    def test_python_vectorized_similarity(self):
        assert similarity_vectorized_time(PYTHON_27, DTI_EDGES) == pytest.approx(
            6.271, rel=0.01
        )


class TestOrderings:
    """Predicted orderings that drive the shape of Tables III-VI."""

    def test_python_eigensolver_slower_than_matlab(self):
        kw = dict(n=142541, nnz=2 * DTI_EDGES, k=500, m=1001,
                  n_op=5000, n_restarts=8)
        t_m = eigensolver_time(MATLAB_2015A, **kw)
        t_p = eigensolver_time(PYTHON_27, **kw)
        assert 3.0 < t_p / t_m < 10.0  # paper: 3282/603 = 5.4x

    def test_eigensolver_magnitude_dti(self):
        """Projected Matlab DTI eigensolver lands within ~3x of 603 s for a
        plausible iteration history."""
        t = eigensolver_time(
            MATLAB_2015A, n=142541, nnz=2 * DTI_EDGES, k=500, m=1001,
            n_op=6000, n_restarts=10,
        )
        assert 200 < t < 1800

    def test_kmeans_matlab_magnitude_dti(self):
        """Matlab DTI k-means: ~100+ random-init iterations at the sweep
        rate should land near the paper's 1785 s."""
        t = kmeans_time(MATLAB_2015A, n=142541, d=500, k=500, iters=120)
        assert 500 < t < 4000

    def test_kmeans_python_slower_per_iter(self):
        per_m = kmeans_time(MATLAB_2015A, n=10000, d=100, k=100, iters=1)
        per_p = kmeans_time(PYTHON_27, n=10000, d=100, k=100, iters=1)
        assert per_p > per_m

    def test_spmv_matlab_faster_than_python(self):
        assert spmv_time(MATLAB_2015A, 142541, 2 * DTI_EDGES) < spmv_time(
            PYTHON_27, 142541, 2 * DTI_EDGES
        )

    def test_takestep_scales_with_basis(self):
        assert takestep_time(MATLAB_2015A, 10000, 500.0) > takestep_time(
            MATLAB_2015A, 10000, 50.0
        )

    def test_eigensolver_monotone_in_ops(self):
        kw = dict(n=10000, nnz=100000, k=50, m=101, n_restarts=3)
        assert eigensolver_time(MATLAB_2015A, n_op=2000, **kw) > eigensolver_time(
            MATLAB_2015A, n_op=1000, **kw
        )

    def test_profiles_frozen(self):
        with pytest.raises(AttributeError):
            MATLAB_2015A.blas_threads = 16  # type: ignore[misc]


class TestBaselineStages:
    def test_charges_each_stage_model(self):
        """One column's stages: the serial similarity loop over the
        directed edges, the eigensolver on the symmetric operator (both
        directions stored) and Lloyd k-means in the embedding."""
        stages = baseline_stages(
            PYTHON_27, n=1000, nnz=8000, k=10, m=21, n_op=120, n_restarts=9,
            kmeans_iters=7, point_input=True,
        )
        assert stages == {
            "similarity": similarity_serial_time(PYTHON_27, 8000),
            "eigensolver": eigensolver_time(
                PYTHON_27, n=1000, nnz=16000, k=10, m=21, n_op=120,
                n_restarts=9,
            ),
            "kmeans": kmeans_time(PYTHON_27, n=1000, d=10, k=10, iters=7),
        }
