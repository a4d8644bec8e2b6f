"""Micro-batching: coalescing compatible requests.

The batcher claims the oldest waiting request and every queued request
*compatible* with it (same operator key — same graph fingerprint and the
same Algorithm 2 parameters), up to ``max_batch``.  One graph upload +
Laplacian build then serves the whole batch; within the batch, requests
that also share an embedding key (same k/solver seed/tolerances) share a
single Lanczos solve and one k-means per distinct set of label knobs.

Compatibility is content-based (see :mod:`repro.serve.fingerprint`), so a
replayed trace in which the same dataset reference recurs batches exactly
like live traffic submitting the same in-memory graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServiceError
from repro.serve.queue import AdmissionQueue
from repro.serve.request import ClusterRequest


@dataclass
class Batch:
    """One scheduling unit: requests sharing an operator build."""

    batch_id: int
    #: the shared (fingerprint, operator, objective) key
    group_key: tuple
    requests: list[ClusterRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def embedding_groups(
        self, key_of: Callable[[ClusterRequest], tuple]
    ) -> dict[tuple, list[ClusterRequest]]:
        """Partition the batch by embedding key, preserving arrival order."""
        groups: dict[tuple, list[ClusterRequest]] = {}
        for req in self.requests:
            groups.setdefault(key_of(req), []).append(req)
        return groups


class BatcherStats:
    """Counters describing the batches formed so far."""

    def __init__(self) -> None:
        self.n_batches = 0
        self.total_batched = 0
        self.max_batch = 0

    @property
    def mean_batch_size(self) -> float:
        return self.total_batched / self.n_batches if self.n_batches else 0.0

    def as_dict(self) -> dict:
        return {
            "n_batches": self.n_batches,
            "total_batched": self.total_batched,
            "max_batch": self.max_batch,
            "mean_batch_size": self.mean_batch_size,
        }


class MicroBatcher:
    """Forms head-of-line batches of operator-compatible requests.

    Parameters
    ----------
    max_batch:
        Upper bound on requests per batch (admission to a batch, not to
        the service).

    The batcher holds no callback into its owner: the operator-key
    function arrives with each :meth:`form` call.  A stored callback
    bound to the service would close a reference cycle through it, and
    everything a replay built would then wait for the cyclic collector
    instead of being freed when the caller drops the service.
    """

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.stats = BatcherStats()
        self._next_id = 0

    def form(
        self, queue: AdmissionQueue, key_of: Callable[[ClusterRequest], tuple]
    ) -> Batch:
        """Claim the next batch from the queue (raises on an empty queue).

        ``key_of`` maps a request to its operator key; the service
        supplies it, since it owns workload resolution and fingerprinting.
        """
        head = queue.peek()
        key = key_of(head)
        requests = queue.take(lambda req: key_of(req) == key, self.max_batch)
        batch = Batch(batch_id=self._next_id, group_key=key, requests=requests)
        self._next_id += 1
        self.stats.n_batches += 1
        self.stats.total_batched += len(requests)
        self.stats.max_batch = max(self.stats.max_batch, len(requests))
        return batch
