"""The ELL device format and the SpMV format autotuner."""

import numpy as np
import pytest

from repro.cusparse.formats import (
    FormatDecision,
    SPMV_FORMATS,
    autotune_format,
    convert_for_spmv,
    csr_to_ell,
    row_stats,
)
from repro.cuda.device import Device
from repro.cusparse.matrices import cast_csr, csr_to_device
from repro.cusparse.spmm import csrmm, ellmm
from repro.cusparse.spmv import csrmv, ellmv, spmv_any
from repro.errors import SparseFormatError
from repro.sparse.construct import random_sparse


@pytest.fixture
def dcsr(device, small_sym_csr):
    return csr_to_device(device, small_sym_csr)


@pytest.fixture
def dx(device, rng, small_sym_csr):
    return device.to_device(rng.standard_normal(small_sym_csr.shape[1]))


def _uniform_indptr(n_rows: int, per_row: int) -> np.ndarray:
    return np.arange(n_rows + 1, dtype=np.int64) * per_row


class TestRowStats:
    def test_uniform_rows(self):
        s = row_stats(_uniform_indptr(10, 4))
        assert (s.n_rows, s.nnz, s.mean, s.max) == (10, 40, 4.0, 4)
        assert s.variance == 0.0
        assert s.padding_ratio == 1.0

    def test_skewed_rows(self):
        s = row_stats(np.array([0, 1, 2, 12], dtype=np.int64))
        assert s.max == 10
        assert s.padding_ratio == pytest.approx(3 * 10 / 12)
        assert s.variance > 0

    def test_empty_matrix(self):
        s = row_stats(np.array([0], dtype=np.int64))
        assert s.n_rows == 0 and s.nnz == 0


class TestConversions:
    def test_ell_layout_is_reserved_not_materialized(
        self, device, dcsr, small_sym_csr
    ):
        """The padded arrays hold no host storage but charge the allocator
        exactly what allocating them with ``empty`` did."""
        n, width = dcsr.shape[0], int(dcsr.row_lengths().max())
        twin = Device()
        csr_to_device(twin, small_sym_csr)
        for dtype in (np.int64, dcsr.val.data.dtype):
            twin.empty((n, width), dtype=dtype)
        ell = csr_to_ell(dcsr)
        for arr in (ell.cols, ell.val):
            assert arr.shape == (n, width)
            assert arr.data.strides == (0, 0)
        assert ell.cols.dtype == np.int64
        assert ell.val.dtype == dcsr.val.data.dtype
        assert device.allocator.used_bytes == twin.allocator.used_bytes
        assert device.memory_info() == twin.memory_info()
        assert device.alloc_stats() == twin.alloc_stats()

    @pytest.mark.parametrize("site, fault, nth", [
        ("cusparse.csr2ell", "transient", 1),  # the conversion's own site
        ("cuda.alloc", "oom", 1),  # reserving cols
        ("cuda.alloc", "oom", 2),  # reserving val: cols is released
    ])
    def test_ell_layout_is_the_alloc_fault_site(self, device, dcsr, site,
                                                fault, nth):
        from repro.chaos import FaultPlan, FaultSpec, chaos
        from repro.chaos.plan import FAULT_ERRORS

        used0 = device.allocator.used_bytes
        plan = FaultPlan([FaultSpec(site=site, fault=fault, nth=nth)])
        with chaos(plan), pytest.raises(FAULT_ERRORS[fault]):
            csr_to_ell(dcsr)
        assert plan.n_fired == 1
        assert device.allocator.used_bytes == used0

    def test_ell_width_defaults_to_longest_row(self, device, dcsr):
        ell = csr_to_ell(dcsr)
        assert ell.width == int(dcsr.row_lengths().max())

    def test_ell_too_narrow_rejected(self, device, dcsr):
        with pytest.raises(SparseFormatError):
            csr_to_ell(dcsr, width=1)

    def test_conversion_charges_a_kernel(self, device, dcsr):
        n0 = device.kernel_launches
        t0 = device.elapsed
        csr_to_ell(dcsr)
        assert device.kernel_launches == n0 + 1
        assert device.elapsed > t0

    def test_free_returns_device_memory(self, device, dcsr):
        used0 = device.allocator.used_bytes
        ell = csr_to_ell(dcsr)
        assert device.allocator.used_bytes > used0
        ell.free()
        assert device.allocator.used_bytes == used0


class TestBitIdenticalSpmv:
    def test_all_formats_agree_exactly(self, device, dcsr, dx):
        """The invariant the pipeline's autotuning rests on: format choice
        changes charged time, never a float."""
        y_csr = csrmv(dcsr, dx).data.copy()
        y_ell = ellmv(csr_to_ell(dcsr), dx).data.copy()
        assert np.array_equal(y_csr, y_ell)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ell_products_equal_csr_bytes(self, device, dcsr, rng, dtype):
        """ellmv/ellmm read the substrate, not the reserved layout."""
        A = cast_csr(device, dcsr, dtype)
        ell = csr_to_ell(A)
        n = A.shape[0]
        x = device.to_device(rng.standard_normal(n).astype(dtype))
        B = device.to_device(rng.standard_normal((n, 4)).astype(dtype))
        assert ellmv(ell, x).data.tobytes() == csrmv(A, x).data.tobytes()
        assert ellmm(ell, B).data.tobytes() == csrmm(A, B).data.tobytes()
        C0 = rng.standard_normal((n, 4)).astype(dtype)
        C_ell, C_csr = device.to_device(C0), device.to_device(C0)
        ellmm(ell, B, C_ell, alpha=2.0, beta=-0.5)
        csrmm(A, B, C_csr, alpha=2.0, beta=-0.5)
        assert C_ell.data.tobytes() == C_csr.data.tobytes()

    def test_alpha_beta_semantics(self, device, dcsr, dx, rng):
        y0 = rng.standard_normal(dcsr.shape[0])
        ref = device.to_device(y0.copy())
        csrmv(dcsr, dx, ref, alpha=2.0, beta=-0.5)
        out = device.to_device(y0.copy())
        ellmv(csr_to_ell(dcsr), dx, out, alpha=2.0, beta=-0.5)
        assert np.array_equal(ref.data, out.data)

    def test_spmv_any_dispatches_on_type(self, device, dcsr, dx):
        assert np.array_equal(
            spmv_any(dcsr, dx).data,
            spmv_any(csr_to_ell(dcsr), dx).data,
        )
        with pytest.raises(Exception):
            spmv_any(object(), dx)

    def test_formats_charge_different_times(self, device, dcsr, dx):
        t0 = device.elapsed
        csrmv(dcsr, dx)
        t_csr = device.elapsed - t0
        ell = csr_to_ell(dcsr)
        t1 = device.elapsed
        ellmv(ell, dx)
        t_ell = device.elapsed - t1
        assert t_csr != t_ell


class TestAutotuner:
    def test_uniform_rows_prefer_ell(self, device):
        d = autotune_format(_uniform_indptr(1000, 8), device.cost)
        assert d.format == "ell"
        assert d.predicted_s["ell"] < d.predicted_s["csr"]

    def test_skewed_rows_avoid_ell(self, device):
        # one 500-entry row forces 500-wide padding on 999 sparse rows
        indptr = np.concatenate(
            [np.arange(1000, dtype=np.int64), [999 + 500]]
        )
        d = autotune_format(indptr, device.cost)
        assert d.format == "csr"
        assert d.predicted_s["ell"] > d.predicted_s["csr"]

    def test_picks_predicted_minimum(self, device, dcsr):
        d = autotune_format(dcsr.indptr.data, device.cost)
        best = min(d.predicted_s.values())
        assert d.predicted_s[d.format] == pytest.approx(best)

    def test_decision_is_deterministic(self, device, dcsr):
        a = autotune_format(dcsr.indptr.data, device.cost)
        b = autotune_format(dcsr.indptr.data, device.cost)
        assert a.as_dict() == b.as_dict()

    def test_as_dict_reports_evidence(self, device, dcsr):
        d = autotune_format(dcsr.indptr.data, device.cost).as_dict()
        assert d["format"] in SPMV_FORMATS
        assert set(d["predicted_spmv_s"]) == set(SPMV_FORMATS)
        assert d["row_mean"] > 0 and d["row_max"] > 0
        assert d["padding_ratio"] >= 1.0


class TestRepeatFits:
    def test_repeat_fits_on_one_device_agree(self, sbm_graph):
        """The autotuner is a pure function of the operator and the
        device spec: a second fit on the same device picks the same
        format and every clustering bit matches."""
        from repro.core.pipeline import SpectralClustering
        from repro.cuda.device import Device

        W, _ = sbm_graph
        dev = Device()
        m1 = SpectralClustering(n_clusters=6, seed=0, device=dev).fit(graph=W)
        m2 = SpectralClustering(n_clusters=6, seed=0, device=dev).fit(graph=W)
        fd1 = m1.eig_stats["format_decision"]
        fd2 = m2.eig_stats["format_decision"]
        assert fd2 == fd1
        assert np.array_equal(m1.labels, m2.labels)


class TestConvertForSpmv:
    def test_csr_is_identity(self, device, dcsr):
        assert convert_for_spmv(dcsr, "csr") is dcsr

    @pytest.mark.parametrize("fmt", ["ell"])
    def test_converted_operand_matches(self, device, dcsr, dx, fmt):
        op = convert_for_spmv(dcsr, fmt)
        assert np.array_equal(spmv_any(op, dx).data, csrmv(dcsr, dx).data)

    def test_unknown_format_rejected(self, device, dcsr):
        with pytest.raises(SparseFormatError):
            convert_for_spmv(dcsr, "bsr")
