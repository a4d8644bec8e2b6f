"""The implicitly restarted Lanczos driver vs scipy's ARPACK."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import EigensolverError
from repro.linalg.iram import irlm_generator
from repro.sparse.construct import random_sparse


def drive(gen, op):
    try:
        x = next(gen)
        while True:
            x = gen.send(op(x))
    except StopIteration as stop:
        return stop.value


def scipy_of(csr):
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "n,k,which",
        [(150, 5, "LA"), (250, 20, "LA"), (250, 20, "SA"),
         (200, 10, "LM"), (300, 30, "LA")],
    )
    def test_eigenvalues_match(self, rng, n, k, which):
        A = random_sparse(n, n, 0.06, rng=rng, symmetric=True).to_csr()
        res = drive(
            irlm_generator(n, k, which=which, tol=1e-10, seed=1), A.matvec
        )
        assert res.converged
        ref = spla.eigsh(scipy_of(A), k=k, which=which, return_eigenvectors=False)
        ref.sort()
        assert np.allclose(res.eigenvalues, ref, atol=1e-8)

    def test_eigenvectors_are_true_eigenvectors(self, rng):
        n, k = 200, 12
        A = random_sparse(n, n, 0.08, rng=rng, symmetric=True).to_csr()
        res = drive(irlm_generator(n, k, tol=1e-10, seed=2), A.matvec)
        S = scipy_of(A)
        resid = np.linalg.norm(
            S @ res.eigenvectors - res.eigenvectors * res.eigenvalues, axis=0
        )
        assert np.max(resid) < 1e-7
        G = res.eigenvectors.T @ res.eigenvectors
        assert np.allclose(G, np.eye(k), atol=1e-9)


class TestBehavior:
    def test_m_equals_n_is_exact(self, rng):
        A = rng.standard_normal((20, 20))
        A = (A + A.T) / 2
        res = drive(
            irlm_generator(20, 3, m=20, seed=0), lambda x: A @ x
        )
        ref = np.linalg.eigvalsh(A)[-3:]
        assert np.allclose(res.eigenvalues, ref, atol=1e-10)
        assert res.n_restarts == 0

    def test_restart_count_grows_for_small_m(self, rng):
        A = random_sparse(200, 200, 0.05, rng=rng, symmetric=True).to_csr()
        res_small = drive(
            irlm_generator(200, 8, m=18, tol=1e-10, seed=0), A.matvec
        )
        res_big = drive(
            irlm_generator(200, 8, m=60, tol=1e-10, seed=0), A.matvec
        )
        assert res_small.n_restarts >= res_big.n_restarts
        assert np.allclose(res_small.eigenvalues, res_big.eigenvalues, atol=1e-7)

    def test_maxiter_gives_unconverged_result(self, rng):
        A = random_sparse(300, 300, 0.03, rng=rng, symmetric=True).to_csr()
        res = drive(
            irlm_generator(300, 10, m=22, tol=1e-14, maxiter=1, seed=0), A.matvec
        )
        assert res.n_restarts <= 2
        # still returns the best available approximations
        assert res.eigenvalues.size == 10

    def test_v0_respected(self, rng):
        A = random_sparse(100, 100, 0.1, rng=rng, symmetric=True).to_csr()
        v0 = rng.standard_normal(100)
        r1 = drive(irlm_generator(100, 4, v0=v0, tol=1e-10), A.matvec)
        r2 = drive(irlm_generator(100, 4, v0=v0, tol=1e-10), A.matvec)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)

    def test_n_op_counts_matvecs(self, rng):
        A = random_sparse(80, 80, 0.2, rng=rng, symmetric=True).to_csr()
        calls = 0

        def counting(x):
            nonlocal calls
            calls += 1
            return A.matvec(x)

        res = drive(irlm_generator(80, 4, tol=1e-10, seed=0), counting)
        assert res.n_op == calls

    def test_one_sweep_per_restart(self, rng, monkeypatch):
        """Each restart applies all of its shifts in one sweep call."""
        import repro.linalg.iram as iram

        A = random_sparse(200, 200, 0.05, rng=rng, symmetric=True).to_csr()
        n_shifts = []
        sweep = iram.implicit_qr_sweep

        def counting(T, shifts, Q):
            n_shifts.append(len(shifts))
            sweep(T, shifts, Q)

        monkeypatch.setattr(iram, "implicit_qr_sweep", counting)
        res = drive(irlm_generator(200, 8, m=18, tol=1e-10, seed=0), A.matvec)
        assert res.n_restarts > 1
        assert len(n_shifts) == res.n_restarts
        # an exact-shift restart applies at least ceil((m - k) / 2) shifts
        assert min(n_shifts) >= (18 - 8 + 1) // 2

    def test_multiplicity_resolved(self, rng):
        # top eigenvalue with multiplicity 3
        d = np.concatenate([[5.0, 5.0, 5.0], rng.uniform(-1, 1, 47)])
        Q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
        A = Q @ np.diag(d) @ Q.T
        res = drive(
            irlm_generator(50, 3, m=20, tol=1e-10, seed=0), lambda x: A @ x
        )
        assert np.allclose(res.eigenvalues, 5.0, atol=1e-8)


class TestHostMemory:
    def test_one_rotated_block_per_restart(self):
        """The kept checkpoint views the rows of the restart's basis
        buffer, so at a restart the traced peak holds two ``(m, n)``
        buffers (the live basis, whose first rows the previous checkpoint
        holds, and the new one) plus a few vectors; copying snapshots adds
        a ``kp``-row block or two."""
        import gc
        import tracemalloc

        n, k, m = 20_000, 20, 41
        diag = np.random.default_rng(0).standard_normal(n)
        latest, kp = [], [0]

        def keep(cp):
            latest[:] = [cp]
            kp[0] = max(kp[0], cp.j)

        gc.collect()
        tracemalloc.start()
        try:
            res = drive(
                irlm_generator(n, k, m=m, seed=0, maxiter=4,
                               checkpoint_cb=keep),
                lambda x: diag * x,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_restarts == 4
        vec = n * 8
        bound = 2 * m * vec + 12 * vec
        assert peak < bound, (peak, bound)
        # one copied kp-row block would cross the bound
        assert peak + kp[0] * vec > bound


class TestValidation:
    def test_k_bounds(self):
        with pytest.raises(EigensolverError):
            next(irlm_generator(10, 0))
        with pytest.raises(EigensolverError):
            next(irlm_generator(10, 10))

    def test_m_bounds(self):
        with pytest.raises(EigensolverError):
            next(irlm_generator(10, 3, m=3))
        with pytest.raises(EigensolverError):
            next(irlm_generator(10, 3, m=11))

    def test_bad_which(self):
        gen = irlm_generator(50, 3, which="XX", m=10)
        with pytest.raises(EigensolverError):
            drive(gen, lambda x: x)

    def test_bad_v0_length(self):
        with pytest.raises(EigensolverError):
            next(irlm_generator(10, 2, v0=np.zeros(9)))
