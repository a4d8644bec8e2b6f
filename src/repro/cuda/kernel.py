"""Kernel objects and the launch machinery.

A :class:`Kernel` couples three things:

* a **body** — a Python function with signature ``body(tid, *args)`` where
  ``tid`` is the *contiguous range of threads* the launch covers, the slice
  ``slice(0, n_threads)``.  Bodies are written the way a CUDA kernel is
  written ("thread ``i`` handles element ``i``") but execute vectorized over
  all threads at once, which is the honest Python equivalent of SIMT
  execution.  Indexing an operand with ``tid`` gives a view, never a
  gathered copy, so a body costs its arithmetic; a body that needs the
  thread ids as numbers writes ``np.arange(n)[tid]``.  A body that
  gathers by index (thread ``e`` reading rows ``X[src[e]]``) works through
  the threads in cache-sized blocks, as
  :func:`~repro.graph.similarity.edge_similarity` does, so its host
  memory is a block's gather, not ``n_threads`` rows at once;
* a **cost descriptor** — ``cost(n_threads, *args) -> (flops, bytes)``
  describing the work one launch performs, fed to the device roofline model;
* a **kind** — ``"stream"``, ``"dense"`` or ``"gather"`` selecting which
  efficiency class the kernel belongs to.

:func:`launch` validates the grid/block configuration against device limits
(the analogue of ``cudaErrorInvalidConfiguration``), unwraps device operands,
executes the body, and charges simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chaos.runtime import chaos_check
from repro.cuda.device import Device
from repro.cuda.memory import DeviceArray
from repro.errors import InvalidKernelLaunch


@dataclass(frozen=True)
class LaunchConfig:
    """``<<<grid, block>>>`` launch parameters (1-D)."""

    grid: int
    block: int

    @property
    def n_threads(self) -> int:
        return self.grid * self.block

    def validate(self, device: Device) -> None:
        spec = device.spec
        if self.grid <= 0 or self.block <= 0:
            raise InvalidKernelLaunch(
                f"grid and block must be positive, got <<<{self.grid}, {self.block}>>>"
            )
        if self.block > spec.max_threads_per_block:
            raise InvalidKernelLaunch(
                f"block size {self.block} exceeds device limit "
                f"{spec.max_threads_per_block}"
            )
        if self.grid > spec.max_grid_dim_x:
            raise InvalidKernelLaunch(
                f"grid size {self.grid} exceeds device limit {spec.max_grid_dim_x}"
            )


class Kernel:
    """A named device kernel with a body and a cost descriptor."""

    def __init__(
        self,
        name: str,
        body: Callable[..., None],
        cost: Callable[..., tuple[float, float]],
        kind: str = "stream",
        itemsize: int = 8,
    ) -> None:
        if kind not in ("stream", "dense", "gather"):
            raise ValueError(f"unknown kernel kind {kind!r}")
        self.name = name
        self.body = body
        self.cost = cost
        self.kind = kind
        self.itemsize = itemsize

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r} kind={self.kind}>"


def kernel(
    name: str,
    cost: Callable[..., tuple[float, float]],
    kind: str = "stream",
    itemsize: int = 8,
) -> Callable[[Callable[..., None]], Kernel]:
    """Decorator form: ``@kernel("compute_average", cost=..., kind=...)``."""

    def wrap(body: Callable[..., None]) -> Kernel:
        return Kernel(name, body, cost, kind=kind, itemsize=itemsize)

    return wrap


def _find_device(args: tuple) -> Device:
    for a in args:
        if isinstance(a, DeviceArray):
            return a.device
    raise InvalidKernelLaunch(
        "kernel launch requires at least one DeviceArray operand to bind a device"
    )


def launch(
    k: Kernel,
    config: LaunchConfig | tuple[int, int],
    *args,
    n_threads: int | None = None,
) -> float:
    """Execute one kernel launch; returns the simulated duration in seconds.

    Parameters
    ----------
    k:
        The kernel to run.
    config:
        ``LaunchConfig`` or a ``(grid, block)`` pair.
    args:
        Kernel arguments.  ``DeviceArray`` operands are unwrapped to raw
        buffers for the body; all must live on the same device.
    n_threads:
        Logical thread count (0 ≤ n_threads ≤ grid·block).  Defaults to
        grid·block.  Bodies receive ``tid = slice(0, n_threads)``, so
        ``x[tid]`` is a view of the first ``n_threads`` elements and the
        trailing threads a real kernel would mask off never touch memory.
    """
    if not isinstance(config, LaunchConfig):
        config = LaunchConfig(*config)
    device = _find_device(args)
    config.validate(device)

    if n_threads is None:
        n_threads = config.n_threads
    if n_threads > config.n_threads:
        raise InvalidKernelLaunch(
            f"n_threads={n_threads} exceeds launch capacity {config.n_threads}"
        )
    if n_threads < 0:
        raise InvalidKernelLaunch(f"n_threads must be non-negative, got {n_threads}")

    unwrapped = []
    for a in args:
        if isinstance(a, DeviceArray):
            if a.device is not device:
                raise InvalidKernelLaunch("kernel operands on different devices")
            unwrapped.append(a.data)
        else:
            unwrapped.append(a)

    # fault site: a transient launch failure performs no work, so it is
    # consulted before the body touches any operand (retry stays safe)
    chaos_check(f"cuda.kernel:{k.name}", device)

    k.body(slice(0, n_threads), *unwrapped)

    flops, bytes_moved = k.cost(n_threads, *unwrapped)
    return device.charge_kernel(
        k.name, flops=flops, bytes_moved=bytes_moved, kind=k.kind, itemsize=k.itemsize
    )
