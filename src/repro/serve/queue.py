"""Admission control: the bounded request queue.

A production service must shed load *at the door* rather than letting an
unbounded backlog destroy every request's latency.  The queue admits up
to ``capacity`` waiting requests; a submission beyond that raises a typed
:class:`~repro.errors.AdmissionError` carrying capacity and occupancy, so
callers (and the replay harness) can distinguish backpressure from
failure.  Admission is evaluated at batch boundaries — the queue drains
when the batcher claims requests, so a rejection means the backlog never
dropped below capacity between the previous batch and this arrival.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import AdmissionError, ServiceError
from repro.serve.request import ClusterRequest


@dataclass
class QueueStats:
    admitted: int = 0
    rejected: int = 0
    #: high-water mark of queued requests
    max_occupancy: int = 0

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "max_occupancy": self.max_occupancy,
        }


class AdmissionQueue:
    """A bounded FIFO of :class:`ClusterRequest` with typed rejection."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ServiceError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[ClusterRequest] = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def submit(self, request: ClusterRequest) -> None:
        """Admit one request or raise :class:`AdmissionError` when full."""
        if len(self._queue) >= self.capacity:
            self.stats.rejected += 1
            raise AdmissionError(
                f"queue full ({len(self._queue)}/{self.capacity}); "
                f"request {request.request_id!r} rejected",
                capacity=self.capacity,
                occupancy=len(self._queue),
            )
        self._queue.append(request)
        self.stats.admitted += 1
        self.stats.max_occupancy = max(self.stats.max_occupancy, len(self._queue))

    def peek(self) -> ClusterRequest:
        if not self._queue:
            raise ServiceError("peek on an empty queue")
        return self._queue[0]

    def take(self, predicate, limit: int) -> list[ClusterRequest]:
        """Remove and return up to ``limit`` queued requests satisfying
        ``predicate``, preserving FIFO order among those taken.

        The head of the queue is always eligible by construction of the
        batcher (the predicate is derived from it), so head-of-line
        blocking cannot starve: every cycle serves at least the oldest
        waiting request.
        """
        taken: list[ClusterRequest] = []
        kept: deque[ClusterRequest] = deque()
        while self._queue:
            req = self._queue.popleft()
            if len(taken) < limit and predicate(req):
                taken.append(req)
            else:
                kept.append(req)
        self._queue = kept
        return taken
