"""TransferLedger vs measured traffic: the plan and the meters must agree.

The ledger predicts what a solve *should* move (PCIe and peer bus); the
device counters and the profiler record what it *did* move.  These tests
pin the two together byte-for-byte for full eigensolver runs, single- and
multi-device.
"""

import numpy as np
import pytest

from repro.core.workflow import hybrid_eigensolver
from repro.cuda.device import Device
from repro.cuda.profiler import Profiler
from repro.cusparse.matrices import coo_to_device
from repro.cusparse.partition import partition_bounds_nnz
from repro.errors import EigensolverError
from repro.graph.laplacian import device_sym_normalize
from repro.linalg.rci import TransferLedger


def _build(sbm_graph):
    W, _ = sbm_graph
    dev = Device()
    dcoo = coo_to_device(dev, W.sorted_by_row())
    return dev, device_sym_normalize(dcoo), W.shape[0]


def _ledger_h2d(n, stats):
    ledger = TransferLedger(
        n=n, m=stats.m, k=stats.k, n_devices=stats.n_devices
    )
    seed = ledger.seed_h2d_bytes()
    if stats.n_devices > 1:
        per_restart = ledger.restart_broadcast_bytes()
    else:
        per_restart = ledger.restart_h2d_bytes()
    return seed + stats.n_restarts * per_restart


def _ledger_d2h(n, stats):
    ledger = TransferLedger(n=n, m=stats.m, k=stats.k)
    return (
        stats.n_restarts * ledger.restart_d2h_bytes()
        + ledger.result_d2h_bytes()
    )


class TestSingleDeviceConsistency:
    def test_profiler_stats_and_ledger_agree(self, sbm_graph):
        dev, op, n = _build(sbm_graph)
        prof = Profiler(dev)
        prof.start()
        _, _, stats = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0, spmv_format="csr"
        )
        rep = prof.stop()
        assert stats.converged and stats.n_resumes == 0
        # meter == meter: the stats deltas are the profiler deltas
        assert rep.transfers["bytes_h2d"] == stats.bytes_h2d
        assert rep.transfers["bytes_d2h"] == stats.bytes_d2h
        assert rep.transfers["bytes_p2p"] == stats.bytes_p2p == 0
        # meter == plan: every byte is in the ledger
        assert stats.bytes_h2d == _ledger_h2d(n, stats)
        assert stats.bytes_d2h == _ledger_d2h(n, stats)

    def test_elided_roundtrips_match_ledger(self, sbm_graph):
        dev, op, n = _build(sbm_graph)
        prof = Profiler(dev)
        prof.start()
        _, _, stats = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0, spmv_format="csr"
        )
        rep = prof.stop()
        ledger = TransferLedger(n=n, m=stats.m, k=stats.k)
        assert (
            rep.transfers["bytes_elided"]
            == stats.n_op * ledger.step_roundtrip_bytes()
        )
        assert rep.transfers["transfers_elided"] == 2 * stats.n_op


class TestMultiDeviceConsistency:
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_three_buses_match_ledger(self, sbm_graph, p):
        dev, op, n = _build(sbm_graph)
        _, _, stats = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0, n_devices=p
        )
        assert stats.converged
        part = stats.partition
        ledger = TransferLedger(
            n=n,
            m=stats.m,
            k=stats.k,
            n_devices=p,
            halo_counts=tuple(part["halo_counts"]),
            halo_pairs=part["halo_pairs"],
        )
        # PCIe up: scattered seed + per-restart Q broadcast to every GPU
        assert stats.bytes_h2d == (
            ledger.seed_h2d_bytes()
            + stats.n_restarts * ledger.restart_broadcast_bytes()
        )
        # PCIe down: tridiagonal entries per restart + the final Ritz block
        assert stats.bytes_d2h == (
            stats.n_restarts * ledger.restart_d2h_bytes()
            + ledger.result_d2h_bytes()
        )
        # peer bus: one-time shard distribution + one halo exchange per SpMV
        assert stats.bytes_p2p == (
            part["shard_upload_bytes"]
            + part["n_matvec"] * ledger.step_halo_bytes()
        )
        assert part["step_halo_bytes"] == ledger.step_halo_bytes()

    def test_seed_scatter_sums_exactly(self, sbm_graph):
        _, op, n = _build(sbm_graph)
        rows = tuple(np.diff(partition_bounds_nnz(op.indptr.data, 3)))
        ledger = TransferLedger(n=n, m=30, k=6, n_devices=3, row_counts=rows)
        split = ledger.shard_split(ledger.seed_h2d_bytes())
        assert len(split) == 3
        assert sum(split) == ledger.seed_h2d_bytes()
        # a multi-device split without the partition's rows is refused
        with pytest.raises(EigensolverError):
            TransferLedger(n=n, m=30, k=6, n_devices=3).shard_split(64)

    def test_multi_device_same_pcie_totals_as_single(self, sbm_graph):
        """The peer bus is extra; the PCIe d2h plan is unchanged, and h2d
        differs only by the (n_devices - 1) extra Q broadcast copies."""
        dev1, op1, n = _build(sbm_graph)
        _, _, s1 = hybrid_eigensolver(dev1, op1, k=6, tol=1e-8, seed=0)
        dev2, op2, _ = _build(sbm_graph)
        _, _, s2 = hybrid_eigensolver(
            dev2, op2, k=6, tol=1e-8, seed=0, n_devices=2
        )
        assert s2.n_restarts == s1.n_restarts  # identical iteration path
        assert s2.bytes_d2h == s1.bytes_d2h
        extra_q = s1.n_restarts * s1.m * s1.k * 8
        assert s2.bytes_h2d == s1.bytes_h2d + extra_q


class TestMixedDtypeConsistency:
    """The ledger's ``itemsize`` axis: every reduced-precision byte count
    must be the fp64 plan rescaled to the storage width, with the fp64
    refinement legs (the ``(n, k)`` block each way per operator
    application) priced at full width on top.  These pin the exact totals
    so a reintroduced hard-coded ``* 8`` anywhere in the metering or the
    ledger fails loudly."""

    @pytest.mark.parametrize("precision,vs", [("fp32", 4), ("fp16", 2)])
    def test_single_device_pcie_totals_exact(
        self, sbm_graph, precision, vs
    ):
        dev, op, n = _build(sbm_graph)
        prof = Profiler(dev)
        prof.start()
        _, _, stats = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0,
            spmv_format="csr", precision=precision,
        )
        rep = prof.stop()
        assert stats.converged
        # the refinement pass always ran for a reduced solve: one
        # measurement + polish application, plus any subspace advances
        apps = stats.refine_steps
        assert apps == len(stats.refine_history) - 1 >= 1
        ledger = TransferLedger(
            n=n, m=stats.m, k=stats.k, itemsize=vs
        )
        # PCIe up: seed + per-restart Q at storage width, then the fp64
        # refinement block up once per application
        assert stats.bytes_h2d == (
            ledger.seed_h2d_bytes()
            + stats.n_restarts * ledger.restart_h2d_bytes()
            + apps * ledger.refine_apply_bytes()
        )
        # PCIe down: tridiagonal + Ritz block at storage width, then the
        # fp64 refinement product down once per application
        assert stats.bytes_d2h == (
            stats.n_restarts * ledger.restart_d2h_bytes()
            + ledger.result_d2h_bytes()
            + apps * ledger.refine_apply_bytes()
        )
        # and the profiler saw the same bytes the stats deltas report
        assert rep.transfers["bytes_h2d"] == stats.bytes_h2d
        assert rep.transfers["bytes_d2h"] == stats.bytes_d2h

    @pytest.mark.parametrize("precision,vs", [("fp32", 4), ("fp16", 2)])
    def test_multi_device_peer_bus_at_storage_width(
        self, sbm_graph, precision, vs
    ):
        dev, op, n = _build(sbm_graph)
        _, _, stats = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0,
            n_devices=2, precision=precision,
        )
        assert stats.converged
        part = stats.partition
        ledger = TransferLedger(
            n=n, m=stats.m, k=stats.k, itemsize=vs, n_devices=2,
            halo_counts=tuple(part["halo_counts"]),
            halo_pairs=part["halo_pairs"],
        )
        # halo entries cross the peer bus at the storage width
        assert part["step_halo_bytes"] == ledger.step_halo_bytes()
        assert stats.bytes_p2p == ledger.solve_p2p_bytes(
            part["n_matvec"], part["shard_upload_bytes"]
        )
        # PCIe plan: storage-width seed/broadcast/results + fp64 legs
        apps = stats.refine_steps
        assert stats.bytes_h2d == (
            ledger.seed_h2d_bytes()
            + stats.n_restarts * ledger.restart_broadcast_bytes()
            + apps * ledger.refine_apply_bytes()
        )
        assert stats.bytes_d2h == (
            stats.n_restarts * ledger.restart_d2h_bytes()
            + ledger.result_d2h_bytes()
            + apps * ledger.refine_apply_bytes()
        )

    def test_reduced_width_scales_the_plan_not_the_path(self, sbm_graph):
        """fp32 must take the same iteration path as fp64 on this easy
        graph (restart counts agree), so every PCIe delta between the two
        solves is pure storage-width arithmetic plus the refinement legs
        — nothing hidden."""
        dev64, op64, n = _build(sbm_graph)
        _, _, s64 = hybrid_eigensolver(
            dev64, op64, k=6, tol=1e-8, seed=0, spmv_format="csr"
        )
        dev32, op32, _ = _build(sbm_graph)
        _, _, s32 = hybrid_eigensolver(
            dev32, op32, k=6, tol=1e-8, seed=0,
            spmv_format="csr", precision="fp32",
        )
        assert s32.n_restarts == s64.n_restarts
        assert (s32.m, s32.k) == (s64.m, s64.k)
        # every planned byte count is linear in itemsize, so netting out
        # the full-width refinement legs the fp32 solve moves exactly
        # half the fp64 bytes — any hard-coded width breaks the ratio
        ledger32 = TransferLedger(n=n, m=s32.m, k=s32.k, itemsize=4)
        refine = s32.refine_steps * ledger32.refine_apply_bytes()
        assert (s32.bytes_h2d - refine) * 2 == s64.bytes_h2d
        assert (s32.bytes_d2h - refine) * 2 == s64.bytes_d2h
