"""The ``Prob`` object of the paper's Algorithm 3, and a one-call driver.

:class:`SymEigProblem` exposes exactly the interface the paper's hybrid
eigensolver loop is written against::

    Prob = SymEigProblem(n, k, which="LA")
    while not Prob.converged():
        Prob.take_step()
        if Prob.needs_matvec():
            x = Prob.get_vector()          # transfer H2D
            y = ...                         # cusparseDcsrmv on the GPU
            Prob.put_vector(y)              # transfer D2H
    theta, U = Prob.find_eigenvectors()

The object is a thin protocol adapter over the
:func:`~repro.linalg.iram.irlm_generator` coroutine; all numerics live
there.  :func:`eigsh` is the convenience driver for host-side use (tests,
baselines): it loops the protocol with a provided matvec callable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import EigensolverError, ReverseCommunicationError
from repro.linalg.iram import IRLMResult, irlm_generator
from repro.linalg.rci import LanczosCheckpoint, MatvecRequest, RCIStatus


class SymEigProblem:
    """Reverse-communication symmetric eigenproblem (ARPACK ``dsaupd`` style).

    Parameters mirror :func:`~repro.linalg.iram.irlm_generator`; pass
    ``checkpoint_cb`` to receive restart-boundary snapshots and
    ``checkpoint`` to resume a problem from one (see
    :class:`~repro.linalg.rci.LanczosCheckpoint`).  ``restart_cb`` fires at
    every implicit restart *as it happens* (argument: the 1-based restart
    count) — device-resident drivers use it to charge the restart's
    tridiagonal solve and basis update inline, at the simulated instant the
    host/device exchange actually occurs.
    """

    def __init__(
        self,
        n: int,
        k: int,
        which: str = "LA",
        m: int | None = None,
        tol: float = 0.0,
        maxiter: int | None = None,
        v0: np.ndarray | None = None,
        seed: int | None = 0,
            checkpoint: LanczosCheckpoint | None = None,
        checkpoint_cb: "Callable[[LanczosCheckpoint], None] | None" = None,
        restart_cb: "Callable[[int], None] | None" = None,
    ) -> None:
        self.n = int(n)
        self.k = int(k)
        self.which = which
        self.m = int(m) if m is not None else min(n, max(2 * k + 1, 20))
        self._restart_cb = restart_cb
        self._cycles_seen = 0
        self._user_checkpoint_cb = checkpoint_cb
        self._gen = irlm_generator(
            n=n, k=k, which=which, m=m, tol=tol, maxiter=maxiter,
            v0=v0, seed=seed,
            checkpoint=checkpoint, checkpoint_cb=self._on_checkpoint,
        )
        self._status = RCIStatus.INITIAL
        self._request: MatvecRequest | None = None
        self._pending_y: np.ndarray | None = None
        self._result: IRLMResult | None = None
        self._n_requests = 0

    def _on_checkpoint(self, cp: LanczosCheckpoint) -> None:
        # the generator snapshots at every restart boundary, including once
        # before the first cycle — only boundaries after that are restarts
        self._cycles_seen += 1
        if self._restart_cb is not None and self._cycles_seen > 1:
            self._restart_cb(self._cycles_seen - 1)
        if self._user_checkpoint_cb is not None:
            self._user_checkpoint_cb(cp)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    @property
    def status(self) -> RCIStatus:
        return self._status

    def converged(self) -> bool:
        """True once the driver has finished (Algorithm 3's loop guard)."""
        return self._status is RCIStatus.DONE

    def needs_matvec(self) -> bool:
        return self._status is RCIStatus.NEED_MATVEC

    def take_step(self) -> RCIStatus:
        """Advance the solver until it needs a product or finishes."""
        if self._status is RCIStatus.NEED_MATVEC:
            raise ReverseCommunicationError(
                "take_step called while a matvec request is outstanding; "
                "supply the product with put_vector first"
            )
        if self._status is RCIStatus.DONE:
            return self._status
        try:
            if self._status is RCIStatus.INITIAL:
                x = next(self._gen)
            else:  # HAVE_RESULT
                assert self._pending_y is not None
                y, self._pending_y = self._pending_y, None
                x = self._gen.send(y)
        except StopIteration as stop:
            self._result = stop.value
            self._status = RCIStatus.DONE
            self._request = None
            return self._status
        self._request = MatvecRequest(x=x, index=self._n_requests)
        self._n_requests += 1
        self._status = RCIStatus.NEED_MATVEC
        return self._status

    def get_vector(self) -> np.ndarray:
        """The vector awaiting multiplication (solver workspace view)."""
        if self._status is not RCIStatus.NEED_MATVEC or self._request is None:
            raise ReverseCommunicationError(
                f"get_vector called in state {self._status.value!r}; "
                "call take_step until a matvec is requested"
            )
        return self._request.x

    def put_vector(self, y: np.ndarray) -> None:
        """Supply ``OP @ x`` for the outstanding request."""
        if self._status is not RCIStatus.NEED_MATVEC:
            raise ReverseCommunicationError(
                f"put_vector called in state {self._status.value!r} "
                "with no outstanding request"
            )
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != self.n:
            raise ReverseCommunicationError(
                f"put_vector got length {y.size}, expected {self.n}"
            )
        self._pending_y = y.copy()
        self._request = None
        self._status = RCIStatus.HAVE_RESULT

    def find_eigenvectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, eigenvector columns) after convergence.

        The analogue of ARPACK's ``dseupd`` post-processing call.
        """
        if self._result is None:
            raise ReverseCommunicationError(
                "find_eigenvectors called before the iteration finished"
            )
        return self._result.eigenvalues, self._result.eigenvectors

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def result(self) -> IRLMResult:
        if self._result is None:
            raise ReverseCommunicationError("solver has not finished")
        return self._result

    @property
    def n_op(self) -> int:
        """Operator applications so far (== PCIe round trips in Alg. 3)."""
        return self._n_requests

    def __repr__(self) -> str:
        return (
            f"<SymEigProblem n={self.n} k={self.k} which={self.which!r} "
            f"m={self.m} status={self._status.value}>"
        )


def eigsh(
    matvec: Callable[[np.ndarray], np.ndarray] | object,
    n: int | None = None,
    k: int = 6,
    which: str = "LA",
    m: int | None = None,
    tol: float = 0.0,
    maxiter: int | None = None,
    v0: np.ndarray | None = None,
    seed: int | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Host-side convenience driver: solve with a callable or matrix.

    Parameters
    ----------
    matvec:
        Either a callable ``x -> OP @ x`` (requires ``n``) or an object with
        ``matvec`` and ``shape`` attributes (our sparse matrices).
    n:
        Dimension; inferred from ``matvec.shape`` when a matrix is passed.

    Returns
    -------
    (w, U):
        Eigenvalues ascending and eigenvector columns, like
        ``scipy.sparse.linalg.eigsh``.
    """
    if callable(matvec) and not hasattr(matvec, "shape"):
        if n is None:
            raise EigensolverError("n is required when passing a bare callable")
        apply_op = matvec
    else:
        shape = getattr(matvec, "shape", None)
        if shape is None or shape[0] != shape[1]:
            raise EigensolverError(f"operator must be square, got shape {shape}")
        n = shape[0]
        apply_op = matvec.matvec  # type: ignore[union-attr]

    prob = SymEigProblem(
        n=n, k=k, which=which, m=m, tol=tol, maxiter=maxiter,
        v0=v0, seed=seed,
    )
    while not prob.converged():
        prob.take_step()
        if prob.needs_matvec():
            prob.put_vector(apply_op(prob.get_vector()))
    return prob.find_eigenvectors()
