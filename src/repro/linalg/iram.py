"""The implicitly restarted Lanczos method (symmetric IRAM).

Implements the restart scheme of Sorensen (1992) as used by ARPACK's
``dsaupd``: build an m-step Lanczos factorization, compute the Ritz pairs of
the projected tridiagonal, test convergence with the ARPACK bound
``|beta_m * s_{m,i}| <= tol * |theta_i|``, and — while unconverged — apply
the unwanted Ritz values as exact polynomial-filter shifts via implicit
shifted QR steps on the tridiagonal (one pipelined sweep over all of a
restart's shifts), contract the factorization back to
``k+`` steps, and extend again.

The driver is a *generator*: every operator application suspends at a
``yield``, making the CPU/GPU split of the paper's Algorithm 3 a pure
call-protocol concern layered on top (see :mod:`repro.linalg.rci`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.errors import EigensolverError
from repro.linalg.lanczos import LanczosState, extend_factorization
from repro.linalg.qr import implicit_qr_sweep
from repro.linalg.rci import LanczosCheckpoint
from repro.linalg.tridiag import eigh_tridiagonal

_EPS = np.finfo(np.float64).eps


@dataclass
class IRLMResult:
    """Outcome of an implicitly restarted Lanczos run.

    Attributes
    ----------
    eigenvalues:
        The ``k`` converged Ritz values, ascending.
    eigenvectors:
        ``(n, k)`` matrix of Ritz vectors (columns match ``eigenvalues``).
    residual_norms:
        ARPACK-style error bounds ``|beta_m * s_{m,i}|`` at exit.
    n_op:
        Operator applications performed (the number of SpMVs, and hence of
        PCIe round-trips in the hybrid deployment).
    n_restarts:
        Implicit restarts performed.
    n_reorth:
        Lanczos steps that ran DGKS reorthogonalization.
    converged:
        Whether all ``k`` pairs met the tolerance.
    breakdowns:
        Exact Lanczos breakdowns recovered (invariant subspaces hit).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    n_op: int
    n_restarts: int
    n_reorth: int
    converged: bool
    breakdowns: int = 0


def _select(theta: np.ndarray, k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Partition Ritz value indices into (wanted, unwanted) for ``which``."""
    if which == "LA":
        order = np.argsort(theta)[::-1]
    elif which == "SA":
        order = np.argsort(theta)
    elif which == "LM":
        order = np.argsort(np.abs(theta))[::-1]
    elif which == "SM":
        order = np.argsort(np.abs(theta))
    else:
        raise EigensolverError(
            f"unknown which={which!r}; expected 'LA', 'SA', 'LM' or 'SM'"
        )
    return order[:k], order[k:]


def irlm_generator(
    n: int,
    k: int,
    which: str = "LA",
    m: int | None = None,
    tol: float = 0.0,
    maxiter: int | None = None,
    v0: np.ndarray | None = None,
    seed: int | None = 0,
    checkpoint: LanczosCheckpoint | None = None,
    checkpoint_cb: Callable[[LanczosCheckpoint], None] | None = None,
) -> Generator[np.ndarray, np.ndarray, IRLMResult]:
    """Create the IRLM driver generator.

    Yields the vector to multiply; receives ``OP @ x`` via ``send``; returns
    an :class:`IRLMResult` (as ``StopIteration.value``).

    Parameters
    ----------
    n:
        Operator dimension.
    k:
        Number of eigenpairs wanted (``0 < k < n``).
    which:
        Spectrum end: 'LA' largest algebraic (the pipeline's choice for
        D⁻¹W), 'SA', 'LM', 'SM'.
    m:
        Lanczos basis size; defaults to ``min(n, max(2k + 1, 20))`` — the
        paper's ``m = 2k`` heuristic with a floor for tiny ``k``.
    tol:
        Relative accuracy; ``0`` means machine epsilon (ARPACK convention).
    maxiter:
        Maximum implicit restarts (default 300, ARPACK-like).
    v0:
        Start vector (default: seeded random).
    checkpoint:
        Resume from this :class:`~repro.linalg.rci.LanczosCheckpoint`
        instead of starting fresh.  The problem parameters must match the
        ones the checkpoint was taken with; ``v0``/``seed`` are ignored in
        favor of the checkpointed factorization and RNG state, so the
        resumed run replays the interrupted cycle bit-identically (the
        operator being deterministic).
    checkpoint_cb:
        Called with a fresh snapshot at every restart boundary (including
        once before the first cycle).  A snapshot may be stored across the
        generator's lifetime: its basis block is the first ``kp`` rows of
        the restart's basis buffer, handed over read-only rather than
        copied.  The cycle that follows writes only rows ``kp`` and up,
        and the next restart writes a fresh buffer, so the block never
        changes; the snapshot keeps the whole ``(m, n)`` buffer alive.
    """
    if not 0 < k < n:
        raise EigensolverError(f"need 0 < k < n, got k={k}, n={n}")
    if m is None:
        m = min(n, max(2 * k + 1, 20))
    m = int(m)
    if m <= k:
        raise EigensolverError(f"basis size m={m} must exceed k={k}")
    if m > n:
        raise EigensolverError(f"basis size m={m} exceeds dimension n={n}")
    if maxiter is None:
        maxiter = 300
    eff_tol = tol if tol > 0 else _EPS
    rng = np.random.default_rng(seed)

    state = LanczosState.allocate(n, m)
    # the basis block the next snapshot takes over: the input checkpoint's
    # on a resume, the rotated block after each restart
    kept: np.ndarray | None = np.empty((0, n))
    if checkpoint is not None:
        checkpoint.validate(n, k, m, which)
        state.V[: checkpoint.j] = checkpoint.V
        state.alpha[: checkpoint.alpha.size] = checkpoint.alpha
        state.beta[: checkpoint.beta.size] = checkpoint.beta
        state.j = checkpoint.j
        state.f = checkpoint.f.copy()
        state.reorth_passes = checkpoint.reorth_passes
        state.breakdowns = checkpoint.breakdowns
        rng.bit_generator.state = copy.deepcopy(checkpoint.rng_state)
        n_op = checkpoint.n_op
        n_restarts = checkpoint.n_restarts
        kept = checkpoint.V
        checkpoint = None  # its block lives on in the first snapshot only
    else:
        if v0 is not None:
            v0 = np.asarray(v0, dtype=np.float64).ravel()
            if v0.size != n:
                raise EigensolverError(f"v0 has length {v0.size}, expected {n}")
            state.f = v0.copy()
        else:
            state.f = rng.standard_normal(n)
        n_op = 0
        n_restarts = 0
    exhausted = n_restarts >= maxiter

    def snapshot(V: np.ndarray) -> LanczosCheckpoint:
        # V holds the same values as state.V[:j] in storage nothing writes
        # again, so the snapshot owns it without a copy.  alpha/beta are
        # saved to length j (beta's last valid slot may hold a stale value
        # the extension's breakdown test reads; preserving it keeps the
        # resumed cycle bit-identical to the original).
        j = state.j
        return LanczosCheckpoint(
            n=n, k=k, m=m, which=which, j=j,
            V=V,
            alpha=state.alpha[:j].copy(),
            beta=state.beta[:j].copy(),
            f=np.array(state.f, dtype=np.float64),
            n_restarts=n_restarts,
            n_op=n_op,
            reorth_passes=state.reorth_passes,
            breakdowns=state.breakdowns,
            rng_state=copy.deepcopy(rng.bit_generator.state),
        )

    while True:
        if checkpoint_cb is not None:
            checkpoint_cb(snapshot(kept))
        # whoever holds the snapshot keeps its block alive, not the driver
        kept = None

        # ---- extend the factorization to m steps -----------------------
        ext = extend_factorization(state, m, rng)
        try:
            x = next(ext)
            while True:
                y = yield x
                n_op += 1
                x = ext.send(y)
        except StopIteration:
            pass

        # ---- Ritz decomposition of the projected tridiagonal -----------
        alpha, beta = state.tridiagonal()
        theta, S = eigh_tridiagonal(alpha, beta)
        assert S is not None
        beta_m = float(np.linalg.norm(state.f))
        wanted, unwanted = _select(theta, k, which)
        bounds = np.abs(beta_m * S[m - 1, wanted])
        tol_scale = np.maximum(np.abs(theta[wanted]), _EPS ** (2.0 / 3.0))
        conv_mask = bounds <= eff_tol * tol_scale
        nconv = int(np.count_nonzero(conv_mask))

        if nconv >= k or m >= n or n_restarts >= maxiter or exhausted:
            # assemble Ritz vectors X = Vᵀ S_wanted, ascending eigenvalues
            out_order = np.argsort(theta[wanted])
            sel = wanted[out_order]
            X = (S[:, sel].T @ state.basis()).T  # (n, k)
            return IRLMResult(
                eigenvalues=theta[sel].copy(),
                eigenvectors=X,
                residual_norms=np.abs(beta_m * S[m - 1, sel]),
                n_op=n_op,
                n_restarts=n_restarts,
                n_reorth=state.reorth_passes,
                converged=bool(nconv >= k or m >= n),
                breakdowns=state.breakdowns,
            )

        # ---- implicit restart with exact shifts -------------------------
        # ARPACK trick: roll converged pairs into the kept block so shifts
        # concentrate on the live part of the spectrum.
        kp = min(k + min(nconv, (m - k) // 2), m - 1)
        shift_idx = _select(theta, kp, which)[1]
        shifts = theta[shift_idx]

        T = np.diag(alpha)
        if m > 1:
            idx = np.arange(m - 1)
            T[idx, idx + 1] = beta
            T[idx + 1, idx] = beta
        Q = np.eye(m)
        implicit_qr_sweep(T, shifts, Q)

        new_alpha = np.diag(T).copy()
        new_beta = np.diag(T, -1).copy()

        # rows 0..kp of the rotated basis (kp+1 rows: kept block + link
        # row), written into a fresh basis buffer that the next cycle
        # extends from row kp on.  Every restart allocates a buffer of the
        # same (m, n) shape, so the heap can reuse the hole of the one it
        # frees; a separate (kp+1)-row block grew with kp, needed a larger
        # hole each time and, depending on where small allocations fell,
        # grew the heap well past what it held.
        V = np.empty_like(state.V)
        np.matmul(Q[:, : kp + 1].T, state.basis(), out=V[: kp + 1])
        f_new = V[kp] * T[kp, kp - 1] + state.f * Q[m - 1, kp - 1]

        state.V = V
        # the next snapshot owns the rotated block: no later step writes
        # rows below kp of this buffer (``setflags``: a ``flags.writeable``
        # write leaves a run-dependent number of small objects alive, which
        # moves traced peaks)
        kept = V[:kp]
        kept.setflags(write=False)
        state.alpha[:kp] = new_alpha[:kp]
        state.beta[: kp - 1] = new_beta[: kp - 1]
        state.j = kp
        state.f = f_new
        n_restarts += 1
        if n_restarts >= maxiter:
            exhausted = True
