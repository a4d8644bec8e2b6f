"""Eigensolver checkpoint/restart: resume must be bit-identical."""

import numpy as np
import pytest

from repro.chaos import DISABLED, FaultPlan, FaultSpec, ResiliencePolicy
from repro.core.workflow import hybrid_eigensolver
from repro.cusparse.matrices import csr_to_device
from repro.errors import EigensolverError
from repro.linalg.eigsolver import SymEigProblem
from repro.linalg.rci import LanczosCheckpoint


def _solve(A, k=4, checkpoint=None, cps=None):
    prob = SymEigProblem(
        n=A.shape[0], k=k, seed=0, maxiter=300,
        checkpoint=checkpoint,
        checkpoint_cb=(cps.append if cps is not None else None),
    )
    while not prob.converged():
        prob.take_step()
        if prob.needs_matvec():
            prob.put_vector(A.matvec(prob.get_vector()))
    return prob.find_eigenvectors()


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, small_sym_csr):
        A = small_sym_csr
        cps = []
        theta_full, U_full = _solve(A, cps=cps)
        assert len(cps) >= 2, "solver should checkpoint every restart cycle"
        # resume from a mid-run snapshot and finish the same solve
        theta_res, U_res = _solve(A, checkpoint=cps[len(cps) // 2])
        assert np.array_equal(theta_full, theta_res)
        assert np.array_equal(U_full, U_res)

    def test_ritz_values_close_from_any_checkpoint(self, small_sym_csr):
        A = small_sym_csr
        cps = []
        theta_full, _ = _solve(A, cps=cps)
        for cp in cps:
            theta_res, _ = _solve(A, checkpoint=cp)
            np.testing.assert_allclose(theta_res, theta_full, atol=1e-8)

    def test_counters_are_cumulative_across_resume(self, small_sym_csr):
        A = small_sym_csr
        cps = []
        prob = SymEigProblem(
            n=A.shape[0], k=4, seed=0, maxiter=300, checkpoint_cb=cps.append
        )
        while not prob.converged():
            prob.take_step()
            if prob.needs_matvec():
                prob.put_vector(A.matvec(prob.get_vector()))
        prob.find_eigenvectors()
        full = prob.result
        cp = cps[-1]
        assert cp.n_op <= full.n_op
        assert cp.n_restarts <= full.n_restarts

        prob2 = SymEigProblem(n=A.shape[0], k=4, seed=0, maxiter=300,
                              checkpoint=cp)
        while not prob2.converged():
            prob2.take_step()
            if prob2.needs_matvec():
                prob2.put_vector(A.matvec(prob2.get_vector()))
        prob2.find_eigenvectors()
        assert prob2.result.n_op == full.n_op
        assert prob2.result.n_restarts == full.n_restarts

    def test_validate_rejects_mismatched_problem(self, small_sym_csr):
        A = small_sym_csr
        cps = []
        _solve(A, cps=cps)
        cp = cps[0]
        # validation happens when the driver generator first runs
        with pytest.raises(EigensolverError):
            SymEigProblem(n=A.shape[0], k=5, seed=0, checkpoint=cp).take_step()
        with pytest.raises(EigensolverError):
            SymEigProblem(
                n=A.shape[0] + 1, k=4, seed=0, checkpoint=cp
            ).take_step()

    def test_checkpoint_nbytes_positive(self, small_sym_csr):
        cps = []
        _solve(small_sym_csr, cps=cps)
        assert all(isinstance(cp, LanczosCheckpoint) for cp in cps)
        assert all(cp.nbytes > 0 for cp in cps)

    def test_restart_basis_is_read_only_and_not_the_workspace(
        self, small_sym_csr
    ):
        """A restart snapshot owns the rotated block: read-only, apart from
        every basis row the solve writes later, and unchanged by the rest
        of the solve."""
        A = small_sym_csr
        cps, seen = [], []

        def note(cp):
            state = prob._gen.gi_frame.f_locals["state"]
            # the cycle after a snapshot writes rows j.. of the basis
            seen.append(
                (np.shares_memory(cp.V, state.V[cp.j :]), cp.V.copy())
            )
            cps.append(cp)

        prob = SymEigProblem(n=A.shape[0], k=4, seed=0, checkpoint_cb=note)
        while not prob.converged():
            prob.take_step()
            if prob.needs_matvec():
                prob.put_vector(A.matvec(prob.get_vector()))
        restarts = cps[1:]
        assert restarts, "solver should restart on this operator"
        for cp, (shared, at_capture) in zip(restarts, seen[1:]):
            assert not cp.V.flags.writeable
            assert not shared
            assert cp.V.shape == (cp.j, cp.n)
            assert np.array_equal(cp.V, at_capture)
            with pytest.raises(ValueError):
                cp.V[0, 0] = 0.0

    def test_nbytes_counts_the_memory_kept_alive(self, small_sym_csr):
        """A restart snapshot's V views the first ``kp`` rows of its
        restart's ``(m, n)`` basis buffer, so the whole buffer is held (and
        counted)."""
        cps = []
        _solve(small_sym_csr, cps=cps)
        fresh, restarts = cps[0], cps[1:]
        assert fresh.nbytes == fresh.f.nbytes  # j = 0: no basis, no T
        for cp in restarts:
            small = cp.alpha.nbytes + cp.beta.nbytes + cp.f.nbytes
            assert cp.nbytes == cp.m * cp.n * 8 + small

    def test_resume_hands_its_block_through(self, small_sym_csr):
        cps = []
        _solve(small_sym_csr, cps=cps)
        cp = cps[len(cps) // 2]
        resumed = []
        _solve(small_sym_csr, checkpoint=cp, cps=resumed)
        assert resumed[0].V is cp.V
        assert resumed[0].j == cp.j and resumed[0].n_op == cp.n_op


class TestHybridResume:
    def test_midsolve_fault_resumes_from_checkpoint(
        self, device, small_sym_csr
    ):
        A = csr_to_device(device, small_sym_csr)
        clean_theta, clean_U, clean_stats = hybrid_eigensolver(
            device, A, k=4, seed=0, spmv_format="csr"
        )
        # three consecutive transients exhaust one round trip's retry
        # budget, forcing a checkpoint resume (not a fallback)
        plan = FaultPlan(
            [FaultSpec(site="cusparse.csrmv", fault="transient",
                       prob=1.0, max_fires=3)]
        )
        from repro.chaos import chaos

        with chaos(plan):
            theta, U, stats = hybrid_eigensolver(
                device, A, k=4, seed=0, policy=ResiliencePolicy(),
                spmv_format="csr",
            )
        assert plan.n_fired == 3
        assert stats.n_resumes == 1
        assert stats.fallback is None
        np.testing.assert_allclose(theta, clean_theta, atol=1e-8)
        A.free()

    def test_disabled_policy_lets_fault_escape(self, device, small_sym_csr):
        A = csr_to_device(device, small_sym_csr)
        plan = FaultPlan(
            [FaultSpec(site="cusparse.csrmv", fault="transient", nth=2)]
        )
        from repro.chaos import chaos
        from repro.errors import TransientKernelError

        with chaos(plan):
            with pytest.raises(TransientKernelError):
                hybrid_eigensolver(device, A, k=4, seed=0, policy=DISABLED,
                                   spmv_format="csr")
        A.free()
