"""Reverse communication interface plumbing.

ARPACK's calling convention asks the *user* to perform every operator
application: ``dsaupd`` returns with ``ido = 1`` and pointers into its
workspace; the caller multiplies, stores the result, and calls back in.
The paper (Algorithm 3) exploits exactly this to run the multiplication on
the GPU while ARPACK runs on the CPU.

Here the same protocol is expressed over the IRLM generator: a
:class:`MatvecRequest` corresponds to one ``ido = 1`` return, and
:class:`RCIStatus` enumerates the driver states.

:class:`LanczosCheckpoint` is the resilience hook: the IRLM driver emits a
snapshot of its factorization at every restart boundary, so a device
failure mid-solve resumes from the last restart instead of from scratch —
on DTI-scale problems the RCI loop performs thousands of PCIe round trips,
which is too much work to lose to one transfer error.

Where each ``ido = 1`` product runs, and what it moves over the bus, is
the placement's business (:mod:`repro.core.workflow`), not the solver's;
the tests pin those bytes against :class:`~repro.cuda.traffic.TrafficPlan`
plans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import EigensolverError


class RCIStatus(enum.Enum):
    """State of the reverse-communication driver (the ``ido`` flag)."""

    #: driver not yet started
    INITIAL = "initial"
    #: a matvec has been requested; caller must get_vector/put_vector
    NEED_MATVEC = "need_matvec"
    #: the requested product has been supplied; take_step may proceed
    HAVE_RESULT = "have_result"
    #: iteration finished (converged or iteration limit)
    DONE = "done"


@dataclass
class MatvecRequest:
    """One pending operator application.

    Attributes
    ----------
    x:
        The vector to multiply.  This is a *view into solver workspace*
        (like ARPACK's ``workd(ipntr(1))``); callers must not mutate it.
    index:
        Running count of requests, 0-based.
    """

    x: np.ndarray
    index: int

    @property
    def n(self) -> int:
        return self.x.size


@dataclass
class LanczosCheckpoint:
    """A restartable snapshot of the IRLM driver at a restart boundary.

    Captures the kept block of the Lanczos factorization (``A V_j = V_j
    T_j + f e_jᵀ``), the iteration counters, and the RNG state — everything
    needed to recreate a generator that continues *bit-identically* with
    the same operator.  The basis block ``V`` is the restart's rotated
    block itself, not a copy of the solver's workspace: a read-only array
    nobody writes, which a resume reads and hands on to its own first
    snapshot.  ``alpha``, ``beta`` and ``f`` are copies.  A checkpoint
    stays valid while the live solver mutates its workspace.

    Attributes
    ----------
    n, k, m, which:
        Problem parameters; a resume validates them against the new
        driver's configuration.
    j:
        Completed Lanczos steps in the snapshot (``0`` for the pre-first-
        cycle checkpoint, ``k+`` after a restart contraction).
    V, alpha, beta:
        The kept basis rows ``(j, n)`` and tridiagonal entries.
    f:
        The residual vector (the start vector when ``j == 0``).
    n_restarts, n_op, reorth_passes, breakdowns:
        Counters restored so resumed statistics stay cumulative.
    rng_state:
        ``bit_generator.state`` of the driver RNG (breakdown recovery
        draws), restored on resume for exact reproducibility.
    """

    n: int
    k: int
    m: int
    which: str
    j: int
    V: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    f: np.ndarray
    n_restarts: int
    n_op: int
    reorth_passes: int
    breakdowns: int
    rng_state: dict

    def validate(self, n: int, k: int, m: int, which: str) -> None:
        """Reject a resume into a differently-configured problem."""
        if (self.n, self.k, self.m, self.which) != (n, k, m, which):
            raise EigensolverError(
                f"checkpoint is for (n={self.n}, k={self.k}, m={self.m}, "
                f"which={self.which!r}) but the solver was configured with "
                f"(n={n}, k={k}, m={m}, which={which!r})"
            )

    @property
    def nbytes(self) -> int:
        """Host memory the snapshot keeps alive: whole buffers, so a ``V``
        that views the first ``kp`` rows of its restart's ``(m, n)`` basis
        buffer counts the whole buffer."""
        total = 0
        for a in (self.V, self.alpha, self.beta, self.f):
            while isinstance(a.base, np.ndarray):  # up to the buffer's owner
                a = a.base
            total += a.nbytes
        return total
