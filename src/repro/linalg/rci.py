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

:class:`TransferLedger` is the bus-traffic plan for a placement of the
loop: with the iteration vector host-resident every ``ido = 1`` costs a 2n
round trip; device-resident, only the small tridiagonal state crosses at
restart boundaries and those round trips are elided.
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


@dataclass(frozen=True)
class TransferLedger:
    """PCIe traffic plan for one placement of the Algorithm 3 loop.

    The host-resident loop (the paper's original) moves the iteration
    vector both ways on every operator application; the device-resident
    loop keeps it on the GPU and only exchanges ARPACK's small host-side
    state at restart boundaries.  The ledger centralizes those byte counts
    so the driver, the profiler assertions, and the benchmark model all
    agree on what "should" cross the bus.

    With ``n_devices > 1`` the plan additionally covers the peer bus: one
    halo exchange per operator application (``halo_counts[d]`` x entries
    land on device ``d``, one peer copy per contributing (dst, src) pair),
    the one-time row-block distribution from device 0, a per-restart
    broadcast of the rotation ``Q`` to every device, and scattered
    seed/result slices whose per-device byte splits sum exactly to the
    single-device totals.

    Attributes
    ----------
    n, m, k:
        Problem dimension, Krylov subspace size, and wanted pairs.
    itemsize:
        Bytes per element of the iteration vectors at their *storage*
        precision (8 for the exact fp64 path, 4/2 for the reduced
        mixed-precision paths — every byte count below scales with it).
    n_devices:
        Devices the row-partitioned loop spans (1 = the pinned path).
    halo_counts:
        Per-device count of off-device x entries received per SpMV.
    halo_pairs:
        Peer copies issued per SpMV (nonzero (dst, src) pairs).
    row_counts:
        Rows owned per device (the partition's row blocks), so
        scatter/gather slices follow the real layout.  Required when
        ``n_devices > 1``.
    """

    n: int
    m: int
    k: int
    itemsize: int = 8
    n_devices: int = 1
    halo_counts: tuple = ()
    halo_pairs: int = 0
    row_counts: tuple = ()

    def step_roundtrip_bytes(self) -> int:
        """Bytes one host-resident ``ido = 1`` moves (x up, y down)."""
        return 2 * self.n * self.itemsize

    def restart_d2h_bytes(self) -> int:
        """Tridiagonal entries (alpha, beta) shipped down per restart."""
        return 2 * self.m * self.itemsize

    def restart_h2d_bytes(self) -> int:
        """The implicit-QR rotation product ``Q`` shipped up per restart."""
        return self.m * self.k * self.itemsize

    def result_d2h_bytes(self) -> int:
        """The Ritz vectors ``U`` coming down once at the end."""
        return self.n * self.k * self.itemsize

    def refine_apply_bytes(self) -> int:
        """One fp64 iterative-refinement block application, each way: the
        ``(n, k)`` block ships up and the product ships down at *full*
        width regardless of the solve's storage itemsize — refinement is
        the correction pass against the fp64 operator.  A refinement pass
        performs ``len(stats.refine_history) - 1`` applications: one for
        the residual measurement + in-span polish, one per subspace
        advance (``stats.refine_steps`` reports the same count)."""
        return self.n * self.k * 8

    def seed_h2d_bytes(self, checkpoint: "LanczosCheckpoint | None" = None) -> int:
        """Initial upload: the start vector, or the kept factorization
        (basis + residual) when resuming after a device failure.

        The checkpoint arrays live on the host in fp64, but what crosses
        the bus is the device-side *storage* representation — so the
        element counts are priced at the ledger's itemsize, not at the
        host arrays' width.
        """
        if checkpoint is not None:
            return (checkpoint.V.size + checkpoint.f.size) * self.itemsize
        return self.n * self.itemsize

    # -- multi-device (row-partitioned) plan ---------------------------
    def step_halo_bytes(self) -> int:
        """Peer-exchange bytes one partitioned SpMV moves over the bus."""
        return sum(self.halo_counts) * self.itemsize

    def step_halo_transfers(self) -> int:
        """Peer copies one partitioned SpMV issues."""
        return self.halo_pairs

    def restart_broadcast_bytes(self) -> int:
        """``Q`` shipped up per restart: one copy *per device* (each GPU
        rotates its own basis block)."""
        return self.n_devices * self.restart_h2d_bytes()

    def shard_split(self, total: int) -> tuple[int, ...]:
        """Split ``total`` bytes across the row blocks, exactly.

        Proportional to ``row_counts`` with the rounding remainder charged
        to device 0, so per-device scatter/gather slices always sum to the
        single-device total — the consistency tests rely on this.
        """
        if self.n_devices <= 1:
            return (total,)
        if len(self.row_counts) != self.n_devices:
            raise EigensolverError(
                f"shard_split over {self.n_devices} devices needs their "
                f"row_counts, got {self.row_counts!r}"
            )
        parts = [int(total * int(r) // self.n) for r in self.row_counts]
        parts[0] += total - sum(parts)
        return tuple(parts)

    def solve_p2p_bytes(self, n_matvecs: int, shard_upload_bytes: int) -> int:
        """Total peer-bus bytes a full partitioned solve moves: the
        one-time row-block distribution plus one halo exchange per
        operator application."""
        return shard_upload_bytes + n_matvecs * self.step_halo_bytes()
