"""Chebyshev graph-filter engine (`repro.compressive.filters`)."""

import math

import numpy as np
import pytest

from repro.compressive.filters import (
    DEFAULT_FILTER_ORDER,
    apply_chebyshev_filter,
    chebyshev_filter_coefficients,
    default_n_signals,
    filter_response,
    jackson_damping,
    random_signals,
)
from repro.errors import EigensolverError


def _sym(n, seed=3):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(-0.95, 1.0, n)
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T), lam, Q


class TestCoefficients:
    def test_step_response_approximated(self):
        """The damped expansion tracks the ideal step away from the
        transition band: ≈1 in the pass band, ≈0 deep in the stop band."""
        c = chebyshev_filter_coefficients(64, 0.5)
        lam = np.linspace(-1, 1, 401)
        h = filter_response(c, lam)
        assert np.all(h[lam > 0.65] > 0.9)
        assert np.all(np.abs(h[lam < 0.35]) < 0.1)

    def test_jackson_damping_monotone_transition(self):
        """Jackson kills the Gibbs overshoot: the response stays within
        [-eps, 1+eps] everywhere on the interval."""
        c = chebyshev_filter_coefficients(48, 0.3)
        h = filter_response(c, np.linspace(-1, 1, 1001))
        assert h.min() > -0.02
        assert h.max() < 1.02

    def test_undamped_expansion_overshoots(self):
        """Sanity: without damping the truncated expansion rings — the
        overshoot Jackson exists to remove is really there."""
        c = chebyshev_filter_coefficients(48, 0.3, damping="none")
        h = filter_response(c, np.linspace(-1, 1, 1001))
        assert h.max() > 1.02

    def test_sharper_with_order(self):
        lam = np.linspace(-1, 1, 801)
        widths = []
        for order in (16, 64, 256):
            c = chebyshev_filter_coefficients(order, 0.0)
            h = filter_response(c, lam)
            inside = lam[(h > 0.1) & (h < 0.9)]
            widths.append(inside.max() - inside.min())
        assert widths[0] > widths[1] > widths[2]

    def test_jackson_coefficients_shape_and_endpoints(self):
        g = jackson_damping(32)
        assert g.shape == (33,)
        assert g[0] == pytest.approx(1.0)
        assert g[-1] == pytest.approx(0.0, abs=0.01)
        assert np.all(np.diff(g) < 1e-12)  # monotone taper

    def test_validation(self):
        with pytest.raises(EigensolverError):
            chebyshev_filter_coefficients(0, 0.5)
        with pytest.raises(EigensolverError):
            chebyshev_filter_coefficients(8, 1.5)  # outside (lmin, lmax)
        with pytest.raises(EigensolverError):
            chebyshev_filter_coefficients(8, 0.5, damping="hann")


class TestApply:
    def test_matches_dense_eigendecomposition(self):
        """T_j recurrence on the operator == scalar response applied to
        each eigenvalue: Y = Q h(Λ) Qᵀ R up to truncation-free algebra."""
        A, lam, Q = _sym(40)
        c = chebyshev_filter_coefficients(24, 0.2)
        rng = np.random.default_rng(0)
        R = rng.standard_normal((40, 5))
        Y, n_apps = apply_chebyshev_filter(lambda B: A @ B, R, c)
        h = filter_response(c, lam)
        Y_ref = (Q * h) @ (Q.T @ R)
        assert n_apps == 24
        assert np.allclose(Y, Y_ref, atol=1e-10)

    def test_custom_interval_matches(self):
        A, lam, Q = _sym(40)
        A2 = 0.6 * A  # spectrum in [-0.6, 0.6], filtered on a wide domain
        c = chebyshev_filter_coefficients(24, 0.1, lmin=-1.5, lmax=1.5)
        R = np.eye(40, 3)
        Y, _ = apply_chebyshev_filter(lambda B: A2 @ B, R, c,
                                      lmin=-1.5, lmax=1.5)
        h = filter_response(c, 0.6 * lam, lmin=-1.5, lmax=1.5)
        assert np.allclose(Y, (Q * h) @ (Q.T @ R), atol=1e-10)

    def test_order_counts_applications(self):
        A, _, _ = _sym(20)
        calls = 0

        def ap(B):
            nonlocal calls
            calls += 1
            return A @ B

        c = chebyshev_filter_coefficients(17, 0.0)
        _, n_apps = apply_chebyshev_filter(ap, np.eye(20, 2), c)
        assert calls == n_apps == 17

    @pytest.mark.parametrize("product", ["fresh", "fp32", "read_only", "alias"])
    def test_bytes_match_the_out_of_place_recurrence(self, product):
        """The in-place updates give the out-of-place expressions' bytes,
        also when ``apply_block`` hands back a block the recurrence may
        not overwrite (a narrower dtype, a read-only view, its input)."""
        A, _, _ = _sym(40)
        apply_block = {
            "fresh": lambda B: A @ B,
            "fp32": lambda B: (A @ B).astype(np.float32),
            "read_only": lambda B: np.broadcast_to(A @ B, B.shape),
            "alias": lambda B: B,
        }[product]
        lmin, lmax = -1.1, 1.3  # alpha != 0, beta != 1
        c = chebyshev_filter_coefficients(24, 0.2, lmin=lmin, lmax=lmax)
        R = np.random.default_rng(5).standard_normal((40, 6))
        Y, n_apps = apply_chebyshev_filter(apply_block, R, c, lmin, lmax)

        alpha, beta = 0.5 * (lmax + lmin), 0.5 * (lmax - lmin)
        t_prev, Y_ref = R, c[0] * R
        t_cur = (apply_block(R) - alpha * R) / beta
        Y_ref = Y_ref + c[1] * t_cur
        for cj in c[2:]:
            t_next = 2.0 * (apply_block(t_cur) - alpha * t_cur) / beta - t_prev
            Y_ref = Y_ref + cj * t_next
            t_prev, t_cur = t_cur, t_next
        assert n_apps == 24
        assert Y.dtype == Y_ref.dtype == np.float64
        assert Y.tobytes() == Y_ref.tobytes()

    def test_degenerate_interval_raises(self):
        with pytest.raises(EigensolverError):
            apply_chebyshev_filter(lambda B: B, np.eye(4, 2),
                                   np.array([1.0, 0.5]), lmin=1.0, lmax=1.0)


class TestSignals:
    def test_seeded_and_stream_separated(self):
        a = random_signals(100, 8, seed=7)
        b = random_signals(100, 8, seed=7)
        c = random_signals(100, 8, seed=8)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()
        # stream separation: not the same stream the probe consumes
        probe_block = np.random.default_rng(7).standard_normal((100, 8))
        assert not np.allclose(a * math.sqrt(8), probe_block)

    def test_scaling(self):
        R = random_signals(4000, 16, seed=0)
        # E[|row|^2] = d · (1/d) = 1 after the 1/sqrt(d) scaling
        assert np.mean(np.sum(R * R, axis=1)) == pytest.approx(1.0, rel=0.1)

    def test_none_seed_non_deterministic(self):
        a = random_signals(50, 4, seed=None)
        b = random_signals(50, 4, seed=None)
        assert a.tobytes() != b.tobytes()

    def test_default_n_signals_scales_with_k(self):
        assert default_n_signals(2) == 16
        assert default_n_signals(20) == 2 * 20 + math.ceil(2 * math.log2(21))
        assert default_n_signals(100) > default_n_signals(10)

    def test_default_order_constant(self):
        assert DEFAULT_FILTER_ORDER == 48
