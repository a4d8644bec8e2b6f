"""Algorithm 3 hybrid eigensolver: correctness and accounting."""

import numpy as np
import pytest

from repro.core.workflow import hybrid_eigensolver
from repro.cusparse.matrices import coo_to_device
from repro.graph.laplacian import device_sym_normalize, sym_normalized_adjacency
from repro.linalg.eigsolver import eigsh


@pytest.fixture
def operator(device, sbm_graph):
    W, _ = sbm_graph
    dcoo = coo_to_device(device, W.sorted_by_row())
    return device_sym_normalize(dcoo), W


class TestHybridEigensolver:
    def test_matches_host_eigsh(self, device, operator):
        dcsr, W = operator
        theta, U, stats = hybrid_eigensolver(device, dcsr, k=6, tol=1e-10, seed=0)
        S = sym_normalized_adjacency(W)
        w_ref, _ = eigsh(S, k=6, tol=1e-10, seed=0)
        assert np.allclose(theta, w_ref, atol=1e-9)
        assert stats.converged

    def test_eigenvectors_satisfy_operator(self, device, operator):
        dcsr, W = operator
        theta, U, _ = hybrid_eigensolver(device, dcsr, k=4, tol=1e-10, seed=0)
        S = sym_normalized_adjacency(W)
        for i in range(4):
            r = S.matvec(U[:, i]) - theta[i] * U[:, i]
            assert np.linalg.norm(r) < 1e-7

    def test_top_eigenvalue_is_one(self, device, operator):
        """D^{-1/2}WD^{-1/2} of a connected graph has top eigenvalue 1."""
        dcsr, _ = operator
        theta, _, _ = hybrid_eigensolver(device, dcsr, k=3, tol=1e-10, seed=0)
        assert theta[-1] == pytest.approx(1.0, abs=1e-8)

    def test_pcie_round_trips_equal_spmvs(self, device, operator):
        """Host residency: the paper's original two-transfers-per-step."""
        dcsr, _ = operator
        _, _, stats = hybrid_eigensolver(
            device, dcsr, k=4, tol=1e-8, seed=0, residency="host"
        )
        assert stats.pcie_round_trips == stats.n_op
        # two transfers per round trip, plus the three initial uploads and
        # degree-vector machinery already on the timeline
        assert device.timeline.count("h2d") >= stats.n_op
        assert device.timeline.count("d2h") >= stats.n_op

    def test_events_tagged_eigensolver(self, device, operator):
        dcsr, _ = operator
        hybrid_eigensolver(device, dcsr, k=4, tol=1e-8, seed=0)
        assert device.timeline.total(tag="eigensolver") > 0

    def test_cpu_phases_charged(self, device, operator):
        dcsr, _ = operator
        hybrid_eigensolver(
            device, dcsr, k=4, tol=1e-8, seed=0, residency="host"
        )
        assert device.timeline.total("cpu", tag="eigensolver") > 0
        names = [e.name for e in device.timeline if e.category == "cpu"]
        assert any("TakeStep" in n for n in names)
        assert any("FindEigenvectors" in n for n in names)

    def test_spmv_runs_on_gpu(self, device, operator):
        dcsr, _ = operator
        hybrid_eigensolver(
            device, dcsr, k=4, tol=1e-8, seed=0, spmv_format="csr"
        )
        names = [e.name for e in device.timeline if e.category == "kernel"]
        assert any("csrmv" in n for n in names)

    def test_stats_fields(self, device, operator):
        dcsr, _ = operator
        _, _, stats = hybrid_eigensolver(device, dcsr, k=5, tol=1e-8, seed=0)
        d = stats.as_dict()
        assert d["k"] == 5
        assert d["m"] >= 11
        assert d["n_op"] > 0
        assert d["wall_seconds"] > 0
        assert d["residency"] == "device"
        assert d["spmv_format"] in ("csr", "ell")

    def test_bad_residency_and_format(self, device, operator):
        dcsr, _ = operator
        with pytest.raises(ValueError):
            hybrid_eigensolver(device, dcsr, k=3, residency="gpu")
        for fmt in ("bsr", "hyb"):
            with pytest.raises(ValueError):
                hybrid_eigensolver(device, dcsr, k=3, spmv_format=fmt)


class TestDeviceResidency:
    """The GPU-resident loop: same bits, a fraction of the bus traffic."""

    def test_bit_identical_to_host_residency(self, device, operator):
        from repro.cuda.device import Device

        dcsr, W = operator
        theta_d, U_d, _ = hybrid_eigensolver(
            device, dcsr, k=6, tol=1e-10, seed=0, residency="device"
        )
        other = Device()
        dcoo = coo_to_device(other, W.sorted_by_row())
        dcsr_h = device_sym_normalize(dcoo)
        theta_h, U_h, _ = hybrid_eigensolver(
            other, dcsr_h, k=6, tol=1e-10, seed=0, residency="host"
        )
        assert np.array_equal(theta_d, theta_h)
        assert np.array_equal(U_d, U_h)

    def test_roundtrips_elided(self, device, operator):
        dcsr, _ = operator
        _, _, stats = hybrid_eigensolver(device, dcsr, k=4, tol=1e-8, seed=0)
        n = dcsr.shape[0]
        assert stats.transfers_elided == 2 * stats.n_op
        assert stats.bytes_elided == stats.n_op * 2 * n * 8
        # the per-step vector never crosses: what does cross is the seed,
        # restart Q uploads, and the final Ritz block — far below the
        # ship-everything baseline
        assert stats.bytes_h2d + stats.bytes_d2h < stats.bytes_elided

    def test_communication_time_drops(self, device, operator):
        from repro.cuda.device import Device

        dcsr, W = operator
        hybrid_eigensolver(device, dcsr, k=6, tol=1e-10, seed=0,
                           residency="device")
        comm_device = device.timeline.communication_time(tag="eigensolver")

        other = Device()
        dcoo = coo_to_device(other, W.sorted_by_row())
        dcsr_h = device_sym_normalize(dcoo)
        hybrid_eigensolver(other, dcsr_h, k=6, tol=1e-10, seed=0,
                           residency="host")
        comm_host = other.timeline.communication_time(tag="eigensolver")
        assert comm_device < comm_host / 2

    def test_restart_q_upload_overlaps_host_math(self, device, operator):
        dcsr, _ = operator
        # k small + m tight forces restarts, exercising the copy engine
        _, _, stats = hybrid_eigensolver(
            device, dcsr, k=2, m=6, tol=1e-12, seed=0
        )
        assert stats.n_restarts > 0
        assert stats.transfer_overlap_s > 0.0

    def test_format_decision_recorded(self, device, operator):
        dcsr, _ = operator
        _, _, stats = hybrid_eigensolver(device, dcsr, k=4, tol=1e-8, seed=0)
        d = stats.format_decision
        assert d is not None
        assert d["format"] == stats.spmv_format
        assert set(d["predicted_spmv_s"]) == {"csr", "ell"}
        assert d["row_mean"] > 0

    def test_forced_formats_identical_results(self, device, operator):
        from repro.cuda.device import Device

        dcsr, W = operator
        results = {}
        for fmt in ("csr", "ell"):
            dev = Device()
            dcoo = coo_to_device(dev, W.sorted_by_row())
            op = device_sym_normalize(dcoo)
            theta, U, stats = hybrid_eigensolver(
                dev, op, k=5, tol=1e-10, seed=0, spmv_format=fmt
            )
            assert stats.spmv_format == fmt
            results[fmt] = (theta, U)
        theta_ref, U_ref = results["csr"]
        assert np.array_equal(results["ell"][0], theta_ref)
        assert np.array_equal(results["ell"][1], U_ref)


class TestMultiDeviceEigensolver:
    """Row-partitioned Lanczos: identical spectra, honest halo accounting."""

    def _solve(self, W, p, k=5):
        from repro.cuda.device import Device

        dev = Device()
        dcoo = coo_to_device(dev, W.sorted_by_row())
        op = device_sym_normalize(dcoo)
        theta, U, stats = hybrid_eigensolver(
            dev, op, k=k, tol=1e-10, seed=0, n_devices=p
        )
        return dev, theta, U, stats

    @pytest.mark.parametrize("p", [2, 4])
    def test_bit_identical_spectra(self, sbm_graph, p):
        W, _ = sbm_graph
        _, theta1, U1, _ = self._solve(W, 1)
        _, theta_p, U_p, stats = self._solve(W, p)
        assert theta_p.tobytes() == theta1.tobytes()
        assert U_p.tobytes() == U1.tobytes()
        assert stats.converged

    def test_partition_evidence_recorded(self, sbm_graph):
        W, _ = sbm_graph
        _, _, _, stats = self._solve(W, 2)
        assert stats.n_devices == 2
        part = stats.partition
        assert part is not None
        assert len(part["bounds"]) == 3
        assert len(part["halo_counts"]) == 2
        assert part["step_halo_bytes"] == sum(part["halo_counts"]) * 8
        assert part["n_matvec"] == stats.n_op
        d = stats.as_dict()
        assert d["n_devices"] == 2
        assert d["partition"]["shard_upload_bytes"] > 0

    def test_p2p_ledger_matches_partition_exactly(self, sbm_graph):
        """TransferLedger equation: every peer byte is either the one-time
        shard distribution or a per-matvec halo exchange."""
        W, _ = sbm_graph
        _, _, _, stats = self._solve(W, 2)
        part = stats.partition
        expected = (
            part["shard_upload_bytes"]
            + part["n_matvec"] * part["step_halo_bytes"]
        )
        assert stats.bytes_p2p == expected
        assert stats.n_p2p > 0

    def test_single_device_has_no_p2p(self, device, operator):
        dcsr, _ = operator
        _, _, stats = hybrid_eigensolver(device, dcsr, k=4, tol=1e-8, seed=0)
        assert stats.n_devices == 1
        assert stats.bytes_p2p == 0
        assert stats.partition is None

    def test_halo_copies_on_copy_streams(self, sbm_graph):
        W, _ = sbm_graph
        dev, _, _, _ = self._solve(W, 2)
        p2p = [e for e in dev.timeline if e.category == "p2p"]
        assert p2p
        assert all("memcpyPeerAsync" in e.name for e in p2p)
        assert all(e.tag == "eigensolver" for e in p2p)

    def test_validation(self, device, operator):
        dcsr, _ = operator
        with pytest.raises(ValueError):
            hybrid_eigensolver(device, dcsr, k=4, seed=0, n_devices=0)
        with pytest.raises(ValueError):
            hybrid_eigensolver(
                device, dcsr, k=4, seed=0, n_devices=2, residency="host"
            )
        with pytest.raises(ValueError):
            hybrid_eigensolver(
                device, dcsr, k=4, seed=0, n_devices=2, spmv_format="ell"
            )
