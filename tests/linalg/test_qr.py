"""QR building blocks: Givens rotations and the implicit shift sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestShiftSteps:
    def _random_tridiag(self, rng, m):
        return tridiag_to_dense(rng.standard_normal(m), rng.standard_normal(m - 1))

    def test_implicit_matches_explicit_for_safe_shift(self, rng):
        T0 = self._random_tridiag(rng, 9)
        mu = float(np.linalg.eigvalsh(T0).min()) - 2.0  # nonsingular shift
        T_i = T0.copy()
        Q_i = np.eye(9)
        implicit_qr_sweep(T_i, mu, Q_i)
        Qe, _ = np.linalg.qr(T0 - mu * np.eye(9))
        sgn = np.sign(np.sum(Qe * Q_i, axis=0))
        assert np.allclose(Qe * sgn, Q_i, atol=1e-8)

    def test_implicit_stable_with_exact_shift(self, rng):
        """The case that breaks the explicit step (singular T - mu I)."""
        T0 = self._random_tridiag(rng, 12)
        mu = float(np.linalg.eigvalsh(T0)[3])  # exact eigenvalue
        T = T0.copy()
        Q = np.eye(12)
        implicit_qr_sweep(T, mu, Q)
        assert np.allclose(Q @ Q.T, np.eye(12), atol=1e-12)
        assert np.allclose(Q.T @ T0 @ Q, T, atol=1e-9)
        # result stays tridiagonal
        assert np.max(np.abs(np.triu(T, 2))) < 1e-9

    def test_implicit_preserves_spectrum(self, rng):
        T0 = self._random_tridiag(rng, 10)
        w0 = np.linalg.eigvalsh(T0)
        T = T0.copy()
        Q = np.eye(10)
        implicit_qr_sweep(T, 0.123, Q)
        assert np.allclose(np.linalg.eigvalsh(T), w0, atol=1e-10)

    def test_implicit_trivial_size(self):
        T = np.array([[2.0]])
        Q = np.eye(1)
        implicit_qr_sweep(T, 1.0, Q)  # no-op, no crash
        assert T[0, 0] == 2.0
