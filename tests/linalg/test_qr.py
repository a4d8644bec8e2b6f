"""QR building blocks: Givens rotations and the implicit shift sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EigensolverError
from repro.linalg.qr import givens, implicit_qr_sweep
from repro.linalg.tridiag import tridiag_to_dense


class TestGivens:
    @pytest.mark.parametrize("a,b", [(3.0, 4.0), (-1.0, 2.0), (5.0, 0.0),
                                     (0.0, 7.0), (1e-300, 1.0)])
    def test_zeroes_second_component(self, a, b):
        c, s, r = givens(a, b)
        assert -s * a + c * b == pytest.approx(0.0, abs=1e-12)
        assert c * a + s * b == pytest.approx(r)
        assert c * c + s * s == pytest.approx(1.0)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_rotation_is_orthogonal(self, a, b):
        c, s, _ = givens(a, b)
        assert c * c + s * s == pytest.approx(1.0, abs=1e-9)


def per_shift_sweep(T, mu, Q):
    """The shift-by-shift bulge chase: one Givens chase per shift, each
    rotation a ``(2,2)@(2,w)`` and ``(w,2)@(2,2)ᵀ`` product on its window,
    the bulge scrubbed after the chase.  The oracle the pipelined sweep
    must reproduce bit for bit."""
    m = T.shape[0]
    if m < 2:
        return
    x = T[0, 0] - mu
    z = T[1, 0]
    for i in range(m - 1):
        c, s, _ = givens(x, z)
        lo = max(0, i - 1)
        hi = min(m, i + 3)
        G = np.array([[c, s], [-s, c]])
        T[i : i + 2, lo:hi] = G @ T[i : i + 2, lo:hi]
        T[lo:hi, i : i + 2] = T[lo:hi, i : i + 2] @ G.T
        qi = Q[:, i].copy()
        qj = Q[:, i + 1]
        Q[:, i] = c * qi + s * qj
        Q[:, i + 1] = -s * qi + c * qj
        if i < m - 2:
            x = T[i + 1, i]
            z = T[i + 2, i]
    if m > 2:
        idx = np.arange(m - 2)
        T[idx + 2, idx] = 0.0
        T[idx, idx + 2] = 0.0


def _random_tridiag(rng, m):
    return tridiag_to_dense(rng.standard_normal(m), rng.standard_normal(m - 1))


class TestShiftSteps:
    def test_implicit_matches_explicit_for_safe_shift(self, rng):
        T0 = _random_tridiag(rng, 9)
        mu = float(np.linalg.eigvalsh(T0).min()) - 2.0  # nonsingular shift
        T_i = T0.copy()
        Q_i = np.eye(9)
        implicit_qr_sweep(T_i, [mu], Q_i)
        Qe, _ = np.linalg.qr(T0 - mu * np.eye(9))
        sgn = np.sign(np.sum(Qe * Q_i, axis=0))
        assert np.allclose(Qe * sgn, Q_i, atol=1e-8)

    def test_implicit_stable_with_exact_shift(self, rng):
        """The case that breaks the explicit step (singular T - mu I)."""
        T0 = _random_tridiag(rng, 12)
        mu = float(np.linalg.eigvalsh(T0)[3])  # exact eigenvalue
        T = T0.copy()
        Q = np.eye(12)
        implicit_qr_sweep(T, [mu], Q)
        assert np.allclose(Q @ Q.T, np.eye(12), atol=1e-12)
        assert np.allclose(Q.T @ T0 @ Q, T, atol=1e-9)
        # result stays tridiagonal
        assert np.max(np.abs(np.triu(T, 2))) < 1e-9

    def test_implicit_preserves_spectrum(self, rng):
        T0 = _random_tridiag(rng, 10)
        w0 = np.linalg.eigvalsh(T0)
        T = T0.copy()
        Q = np.eye(10)
        implicit_qr_sweep(T, [0.123], Q)
        assert np.allclose(np.linalg.eigvalsh(T), w0, atol=1e-10)

    def test_implicit_trivial_size(self):
        T = np.array([[2.0]])
        Q = np.eye(1)
        implicit_qr_sweep(T, [1.0], Q)  # no-op, no crash
        assert T[0, 0] == 2.0

    def test_scalar_shift_is_rejected(self, rng):
        """The one-shift form ``implicit_qr_sweep(T, mu, Q)`` is gone."""
        T = _random_tridiag(rng, 5)
        with pytest.raises(EigensolverError, match="1-D"):
            implicit_qr_sweep(T, 0.5, np.eye(5))


def _sweep_case(m, n_shifts, case, seed=0):
    """A tridiagonal ``T`` and ``n_shifts`` shifts: exact shifts (Ritz
    values) on a random ``T``; ``zero-subdiag`` zeroes every third
    subdiagonal (``givens``' ``b == 0`` branch); ``shift-is-T00`` makes
    the first shift ``T[0, 0]`` (its ``a == 0`` branch)."""
    rng = np.random.default_rng([seed, m, n_shifts])
    alpha = rng.standard_normal(m)
    beta = rng.standard_normal(m - 1)
    if case == "zero-subdiag":
        beta[::3] = 0.0
    T = tridiag_to_dense(alpha, beta)
    shifts = rng.permutation(np.linalg.eigvalsh(T))[:n_shifts]
    if case == "shift-is-T00":
        shifts[0] = T[0, 0]
    return T, shifts


_GRID = sorted({
    (m, n)
    for m in (2, 3, 4, 5, 6, 7, 20, 101, 130)
    for n in (1, 2, m // 2, m - 1)
    if n >= 1
})


class TestPipelinedSweep:
    """All shifts in one pipelined chase give the shift-by-shift bits."""

    @pytest.mark.parametrize("case", ["exact", "zero-subdiag", "shift-is-T00"])
    @pytest.mark.parametrize("m,n_shifts", _GRID)
    def test_bit_identical_to_per_shift_sweeps(self, m, n_shifts, case):
        T0, shifts = _sweep_case(m, n_shifts, case)
        T_ref, Q_ref = T0.copy(), np.eye(m)
        for mu in shifts:
            per_shift_sweep(T_ref, float(mu), Q_ref)
        T, Q = T0.copy(), np.eye(m)
        implicit_qr_sweep(T, shifts, Q)
        assert np.array_equal(T, T_ref)
        assert np.array_equal(Q, Q_ref)
        # the bulge is scrubbed: T leaves exactly tridiagonal
        assert not np.triu(T, 2).any()
        assert not np.tril(T, -2).any()

    def test_rectangular_q(self, rng):
        """``Q`` may carry any number of rows (only its columns rotate)."""
        T0 = _random_tridiag(rng, 11)
        shifts = np.linalg.eigvalsh(T0)[:5]
        Q0 = rng.standard_normal((7, 11))
        T_ref, Q_ref = T0.copy(), Q0.copy()
        for mu in shifts:
            per_shift_sweep(T_ref, float(mu), Q_ref)
        T, Q = T0.copy(), Q0.copy()
        implicit_qr_sweep(T, shifts, Q)
        assert np.array_equal(T, T_ref)
        assert np.array_equal(Q, Q_ref)

    def test_no_shifts_is_a_no_op(self, rng):
        T0 = _random_tridiag(rng, 6)
        T, Q = T0.copy(), np.eye(6)
        implicit_qr_sweep(T, [], Q)
        assert np.array_equal(T, T0)
        assert np.array_equal(Q, np.eye(6))
