"""Micro-batch formation over the admission queue."""

import pytest

from repro.errors import ServiceError
from repro.serve.batcher import MicroBatcher
from repro.serve.queue import AdmissionQueue


def _key_of(req):
    return req.operator_key(req.workload_fingerprint())


def _batcher(max_batch=4):
    return MicroBatcher(max_batch)


class TestMicroBatcher:
    def test_coalesces_compatible_requests(self, make_request):
        q = AdmissionQueue(capacity=8)
        for k in (2, 3, 4):
            q.submit(make_request(n_clusters=k))  # same graph, different k
        batch = _batcher().form(q, _key_of)
        assert len(batch) == 3
        assert not q

    def test_respects_max_batch(self, make_request):
        q = AdmissionQueue(capacity=8)
        for _ in range(5):
            q.submit(make_request())
        batcher = _batcher(max_batch=2)
        assert len(batcher.form(q, _key_of)) == 2
        assert len(q) == 3

    def test_incompatible_requests_left_queued(self, make_request, other_graph):
        q = AdmissionQueue(capacity=8)
        a = make_request()
        b = make_request(graph=other_graph)
        c = make_request()
        for r in (a, b, c):
            q.submit(r)
        batch = _batcher().form(q, _key_of)
        assert [r.request_id for r in batch.requests] == [
            a.request_id, c.request_id
        ]
        assert q.peek() is b  # head-of-line for the next cycle

    def test_head_of_line_always_served(self, make_request, other_graph):
        """The oldest waiting request is in every batch — no starvation."""
        q = AdmissionQueue(capacity=8)
        q.submit(make_request(graph=other_graph))
        q.submit(make_request())
        batch = _batcher().form(q, _key_of)
        assert len(batch) == 1  # the incompatible head got its own batch

    def test_embedding_groups_split_by_k(self, make_request):
        q = AdmissionQueue(capacity=8)
        for k in (3, 4, 3):
            q.submit(make_request(n_clusters=k))
        batch = _batcher().form(q, _key_of)
        groups = batch.embedding_groups(
            lambda r: r.embedding_key(r.workload_fingerprint())
        )
        assert sorted(len(v) for v in groups.values()) == [1, 2]

    def test_stats(self, make_request):
        q = AdmissionQueue(capacity=8)
        for _ in range(3):
            q.submit(make_request())
        batcher = _batcher(max_batch=2)
        batcher.form(q, _key_of)
        batcher.form(q, _key_of)
        assert batcher.stats.n_batches == 2
        assert batcher.stats.total_batched == 3
        assert batcher.stats.max_batch == 2
        assert batcher.stats.mean_batch_size == pytest.approx(1.5)

    def test_batch_ids_increment(self, make_request):
        q = AdmissionQueue(capacity=8)
        q.submit(make_request())
        q.submit(make_request())
        batcher = _batcher(max_batch=1)
        assert batcher.form(q, _key_of).batch_id == 0
        assert batcher.form(q, _key_of).batch_id == 1

    def test_bad_max_batch(self):
        with pytest.raises(ServiceError):
            _batcher(max_batch=0)
