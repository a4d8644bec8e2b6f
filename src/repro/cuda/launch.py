"""Launch-configuration helpers: grid sizing."""

from __future__ import annotations

from repro.errors import InvalidKernelLaunch


def grid_1d(n_threads_needed: int, block_size: int = 256) -> tuple[int, int]:
    """Return ``(grid_dim, block_dim)`` covering at least ``n_threads_needed``.

    The idiomatic CUDA ``(N + B - 1) / B`` computation.
    """
    if n_threads_needed < 0:
        raise InvalidKernelLaunch(f"negative thread count: {n_threads_needed}")
    if block_size <= 0:
        raise InvalidKernelLaunch(f"non-positive block size: {block_size}")
    if n_threads_needed == 0:
        return 1, block_size
    return (n_threads_needed + block_size - 1) // block_size, block_size

