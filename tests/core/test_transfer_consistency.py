"""Eigensolver traffic plans vs measured traffic: they must agree.

A :class:`TrafficPlan` built from the Algorithm 3 byte formulas predicts
what a solve *should* move (PCIe and peer bus); the device counters and
the profiler record what it *did* move.  These tests pin the two together
byte-for-byte for full eigensolver runs, single- and multi-device.
"""

import numpy as np
import pytest

from repro.core.workflow import PartitionedPlacement, Solve, hybrid_eigensolver
from repro.cuda.device import Device
from repro.cuda.profiler import Profiler
from repro.cuda.traffic import TrafficPlan
from repro.cusparse.matrices import coo_to_device
from repro.graph.laplacian import device_sym_normalize


def _build(sbm_graph):
    W, _ = sbm_graph
    dev = Device()
    dcoo = coo_to_device(dev, W.sorted_by_row())
    return dev, device_sym_normalize(dcoo), W.shape[0]


def step_roundtrip_bytes(n, itemsize=8):
    """Bytes one host-resident ``ido = 1`` moves (x up, y down)."""
    return 2 * n * itemsize


def step_halo_bytes(part, itemsize=8):
    """Peer-exchange bytes one partitioned SpMV moves over the bus."""
    return sum(part["halo_counts"]) * itemsize


def solve_plan(n, stats, itemsize=8):
    """The bus traffic of one uncheckpointed solve of ``stats``' shape.

    PCIe up: the start vector, then per restart the implicit-QR rotation
    ``Q`` (``m x k``) to every device, each at the storage ``itemsize``.
    PCIe down: the tridiagonal entries (``2m``) per restart, then the
    ``(n, k)`` Ritz block once.  Each fp64 refinement application
    (``stats.refine_steps`` of them; none in an fp64 solve) ships the
    ``(n, k)`` block up and its product down at *full* width.  The peer
    bus carries the one-time row-block distribution and one halo
    exchange per operator application.  Only byte totals are compared:
    a partitioned seed and each halo exchange split into per-device
    copies that the plan lists as one transfer.
    """
    m, k, vs, apps = stats.m, stats.k, itemsize, stats.refine_steps
    h2d = (
        (("seed", n * vs),)
        + (("Q", m * k * vs),) * (stats.n_restarts * stats.n_devices)
        + (("refine_block", n * k * 8),) * apps
    )
    d2h = (
        (("tridiag", 2 * m * vs),) * stats.n_restarts
        + (("ritz", n * k * vs),)
        + (("refine_product", n * k * 8),) * apps
    )
    p2p = ()
    if stats.partition is not None:
        part = stats.partition
        p2p = (("shards", part["shard_upload_bytes"]),) + (
            ("halo", step_halo_bytes(part, vs)),
        ) * part["n_matvec"]
    return TrafficPlan(h2d=h2d, d2h=d2h, p2p=p2p)


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
        # meter == plan: every byte is in the plan
        plan = solve_plan(n, stats)
        assert stats.bytes_h2d == plan.nbytes("h2d")
        assert stats.bytes_d2h == plan.nbytes("d2h")

    def test_elided_roundtrips_match_ledger(self, sbm_graph):
        dev, op, n = _build(sbm_graph)
        prof = Profiler(dev)
        prof.start()
        _, _, stats = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0, spmv_format="csr"
        )
        rep = prof.stop()
        assert (
            rep.transfers["bytes_elided"]
            == stats.n_op * step_roundtrip_bytes(n)
        )
        assert rep.transfers["transfers_elided"] == 2 * stats.n_op

    def test_resume_uploads_the_kept_factorization(
        self, sbm_graph, monkeypatch
    ):
        """A resume re-seeds the device with the checkpoint's kept basis
        and residual: the solve moves a clean solve's bytes plus that
        upload, at the storage width."""
        import repro.core.workflow as workflow
        from repro.chaos import FaultPlan, FaultSpec, ResiliencePolicy, chaos

        dev, op, n = _build(sbm_graph)
        _, _, clean = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0, spmv_format="csr"
        )
        resumed_from = []
        problem = workflow.SymEigProblem

        def spy(*args, **kw):
            resumed_from.append(kw["checkpoint"])
            return problem(*args, **kw)

        monkeypatch.setattr(workflow, "SymEigProblem", spy)
        # faults on a call and both its retries exhaust them mid-solve
        plan = FaultPlan([
            FaultSpec(site="cusparse.csrmv", fault="transient", nth=n)
            for n in (25, 26, 27)
        ])
        dev, op, _ = _build(sbm_graph)
        with chaos(plan):
            _, _, stats = hybrid_eigensolver(
                dev, op, k=6, tol=1e-8, seed=0, spmv_format="csr",
                policy=ResiliencePolicy(),
            )
        assert stats.n_resumes == 1 and stats.n_restarts == clean.n_restarts
        cp = resumed_from[-1]
        assert cp.j > 0  # past a restart: the kept block is not empty
        assert stats.bytes_h2d == (
            clean.bytes_h2d + (cp.V.size + cp.f.size) * 8
        )


class TestMultiDeviceConsistency:
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_three_buses_match_ledger(self, sbm_graph, p):
        dev, op, n = _build(sbm_graph)
        _, _, stats = hybrid_eigensolver(
            dev, op, k=6, tol=1e-8, seed=0, n_devices=p
        )
        assert stats.converged
        assert stats.n_devices == p
        part = stats.partition
        plan = solve_plan(n, stats)
        # PCIe up: scattered seed + per-restart Q broadcast to every GPU
        assert stats.bytes_h2d == plan.nbytes("h2d") == (
            n * 8 + stats.n_restarts * p * stats.m * stats.k * 8
        )
        # PCIe down: tridiagonal entries per restart + the final Ritz block
        assert stats.bytes_d2h == plan.nbytes("d2h")
        # peer bus: one-time shard distribution + one halo exchange per SpMV
        assert stats.bytes_p2p == plan.nbytes("p2p") == (
            part["shard_upload_bytes"]
            + part["n_matvec"] * step_halo_bytes(part)
        )
        assert part["step_halo_bytes"] == step_halo_bytes(part)

    def test_seed_scatter_sums_exactly(self, sbm_graph):
        dev, op, n = _build(sbm_graph)
        pl = PartitionedPlacement(Solve(dev, op, k=6), 3)
        split = pl.shard_split(n * 8)
        assert len(split) == 3
        assert sum(split) == n * 8
        # each slice follows its device's row block
        assert split[1:] == tuple(r * 8 for r in pl.row_counts[1:])

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
    """The plan's ``itemsize`` axis: every reduced-precision byte count
    must be the fp64 plan rescaled to the storage width, with the fp64
    refinement legs (the ``(n, k)`` block each way per operator
    application) priced at full width on top.  These pin the exact totals
    so a reintroduced hard-coded ``* 8`` anywhere in the metering or the
    plan fails loudly."""

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
        plan = solve_plan(n, stats, itemsize=vs)
        # PCIe up: seed + per-restart Q at storage width, then the fp64
        # refinement block up once per application
        assert stats.bytes_h2d == plan.nbytes("h2d") == (
            n * vs + stats.n_restarts * stats.m * stats.k * vs
            + apps * n * stats.k * 8
        )
        # PCIe down: tridiagonal + Ritz block at storage width, then the
        # fp64 refinement product down once per application
        assert stats.bytes_d2h == plan.nbytes("d2h") == (
            stats.n_restarts * 2 * stats.m * vs + n * stats.k * vs
            + apps * n * stats.k * 8
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
        apps = stats.refine_steps
        plan = solve_plan(n, stats, itemsize=vs)
        # halo entries cross the peer bus at the storage width
        assert part["step_halo_bytes"] == step_halo_bytes(part, vs)
        assert stats.bytes_p2p == plan.nbytes("p2p")
        # PCIe plan: storage-width seed/broadcast/results + fp64 legs
        assert stats.bytes_h2d == plan.nbytes("h2d") == (
            n * vs + stats.n_restarts * 2 * stats.m * stats.k * vs
            + apps * n * stats.k * 8
        )
        assert stats.bytes_d2h == plan.nbytes("d2h")

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
        plan32 = solve_plan(n, s32, itemsize=4)
        refine = sum(b for t, b in plan32.h2d if t == "refine_block")
        assert (s32.bytes_h2d - refine) * 2 == s64.bytes_h2d
        assert (s32.bytes_d2h - refine) * 2 == s64.bytes_d2h
