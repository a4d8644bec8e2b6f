"""Compressive embedding engine (`repro.compressive.engine`).

The placement/accounting contracts the substrate PRs established must
hold for the new tier: bit-identical sketches across residencies and
device counts, `ledger == meter` byte accounting under fp64 and fp32,
and deterministic request-seeded results.
"""

import numpy as np
import pytest

from repro.compressive.engine import _PROBE_ACCEL, compressive_embedding
from repro.compressive.filters import DEFAULT_FILTER_ORDER, default_n_signals
from repro.cuda.device import Device
from repro.cusparse.matrices import coo_to_device
from repro.datasets.sbm import stochastic_block_model
from repro.errors import EigensolverError
from repro.graph.laplacian import device_sym_normalize
from repro.linalg.spectrum import default_probe_iterations
from repro.sparse.construct import from_edge_list

K = 4
N = 4 * 40


def _operator(seed=0, device=None):
    rng = np.random.default_rng(100 + seed)
    edges, _ = stochastic_block_model([40] * K, p_in=0.5, p_out=0.02, rng=rng)
    W = from_edge_list(edges, n_nodes=N)
    dev = device or Device()
    dcoo = coo_to_device(dev, W.sorted_by_row())
    return dev, device_sym_normalize(dcoo)


def _solve(seed=0, device=None, **kw):
    dev, op = _operator(seed=0, device=device)
    F, stats = compressive_embedding(dev, op, K, seed=seed, **kw)
    return dev, F, stats


class TestSketch:
    def test_shape_and_dtype(self):
        _, F, stats = _solve()
        assert F.shape == (N, default_n_signals(K))
        assert F.dtype == np.float64
        assert stats.converged

    def test_deterministic_same_seed(self):
        _, F1, s1 = _solve(seed=7)
        _, F2, s2 = _solve(seed=7)
        assert F1.tobytes() == F2.tobytes()
        assert s1.spectrum == s2.spectrum

    def test_different_seed_differs(self):
        _, F1, _ = _solve(seed=0)
        _, F2, _ = _solve(seed=1)
        assert F1.tobytes() != F2.tobytes()

    def test_sketch_spans_cluster_subspace(self):
        """The filtered signals approximate U_k U_kᵀ R: their column space
        must lie (mostly) inside the operator's top-k eigenspace."""
        dev, op = _operator()
        F, stats = compressive_embedding(dev, op, K, seed=0)
        # dense reference spectrum of the same operator
        A = np.zeros((N, N))
        indptr, indices, data = (
            op.indptr.data, op.indices.data, op.val.data,
        )
        for i in range(N):
            A[i, indices[indptr[i]:indptr[i + 1]]] = data[indptr[i]:indptr[i + 1]]
        w, Q = np.linalg.eigh(A)
        Uk = Q[:, -K:]
        # energy of F inside span(Uk) / total energy
        proj = Uk @ (Uk.T @ F)
        ratio = np.linalg.norm(proj) ** 2 / np.linalg.norm(F) ** 2
        assert ratio > 0.95

    def test_stats_counters(self):
        _, F, stats = _solve()
        q = default_probe_iterations(N)
        assert stats.k == K
        assert stats.filter_order == DEFAULT_FILTER_ORDER
        assert stats.n_signals == default_n_signals(K)
        assert stats.probe_applications == (q + 1) * _PROBE_ACCEL
        assert stats.filter_applications == DEFAULT_FILTER_ORDER
        assert stats.n_op == stats.probe_applications + stats.filter_applications
        assert stats.embedding == "compressive"
        sp = stats.spectrum
        assert sp["lambda_max"] <= 1.0 + 1e-6
        assert sp["lambda_next"] <= sp["lambda_k"] <= sp["lambda_max"]
        assert sp["lambda_next"] < sp["band_edge"] < sp["lambda_k"]

    def test_custom_knobs_respected(self):
        _, F, stats = _solve(filter_order=12, n_signals=6, probe_q=5)
        assert F.shape == (N, 6)
        assert stats.filter_order == 12
        assert stats.filter_applications == 12
        assert stats.probe_applications == 6 * _PROBE_ACCEL


class TestPlacementParity:
    def test_host_residency_bit_identical(self):
        _, F_dev, s_dev = _solve()
        _, F_host, s_host = _solve(residency="host")
        assert F_dev.tobytes() == F_host.tobytes()
        assert s_host.residency == "host"
        assert s_host.pcie_round_trips > 0

    def test_multi_device_bit_identical(self):
        _, F1, s1 = _solve()
        _, F2, s2 = _solve(n_devices=2)
        assert F1.tobytes() == F2.tobytes()
        assert s2.n_devices == 2
        assert s2.partition is not None

    def test_forced_formats_bit_identical(self):
        base = _solve(spmv_format="csr")[1]
        F = _solve(spmv_format="ell")[1]
        assert F.tobytes() == base.tobytes()

    def test_fp32_within_tolerance_not_identical(self):
        _, F64, _ = _solve()
        _, F32, s32 = _solve(precision="fp32")
        assert s32.precision == "fp32"
        assert F32.tobytes() != F64.tobytes()
        denom = np.linalg.norm(F64)
        assert np.linalg.norm(F32 - F64) / denom < 1e-3


class TestByteAccounting:
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_ledger_equals_meter(self, precision):
        _, _, stats = _solve(precision=precision)
        assert stats.ledger_bytes > 0
        assert stats.spmv_bytes == stats.ledger_bytes

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_ledger_equals_meter_all_formats(self, fmt):
        _, _, stats = _solve(spmv_format=fmt)
        assert stats.spmv_bytes == stats.ledger_bytes

    def test_ledger_equals_meter_partitioned(self):
        _, _, stats = _solve(n_devices=2)
        assert stats.spmv_bytes == stats.ledger_bytes

    def test_fp32_moves_fewer_bytes(self):
        _, _, s64 = _solve()
        _, _, s32 = _solve(precision="fp32")
        assert s32.spmv_bytes < s64.spmv_bytes

    def test_host_residency_round_trips_metered(self):
        dev, _, stats = _solve(residency="host")
        h2d, d2h, *_ = (
            stats.bytes_h2d, stats.bytes_d2h,
        )
        assert h2d > 0 and d2h > 0
        # every application crosses PCIe both ways
        assert stats.pcie_round_trips == stats.n_op


class TestValidation:
    def test_k_too_large(self):
        dev, op = _operator()
        with pytest.raises(EigensolverError):
            compressive_embedding(dev, op, N - 1)

    def test_bad_knobs(self):
        dev, op = _operator()
        with pytest.raises(ValueError):
            compressive_embedding(dev, op, K, filter_order=0)
        with pytest.raises(ValueError):
            compressive_embedding(dev, op, K, n_signals=0)
        with pytest.raises(ValueError):
            compressive_embedding(dev, op, K, residency="remote")
        with pytest.raises(ValueError):
            compressive_embedding(dev, op, K, spmv_format="coo")
        with pytest.raises(ValueError):
            compressive_embedding(dev, op, K, n_devices=0)
        with pytest.raises(ValueError):
            compressive_embedding(dev, op, K, n_devices=2, residency="host")
