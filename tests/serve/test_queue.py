"""Admission control: bounded queue with typed rejection."""

import pytest

from repro.errors import AdmissionError, ServiceError
from repro.serve.queue import AdmissionQueue


class TestAdmissionQueue:
    def test_fifo_order(self, make_request):
        q = AdmissionQueue(capacity=4)
        reqs = [make_request() for _ in range(3)]
        for r in reqs:
            q.submit(r)
        assert q.peek() is reqs[0]
        drained = q.take(lambda r: True, limit=len(q))
        assert [r.request_id for r in drained] == [
            r.request_id for r in reqs
        ]

    def test_rejection_is_typed_and_carries_occupancy(self, make_request):
        q = AdmissionQueue(capacity=2)
        q.submit(make_request())
        q.submit(make_request())
        with pytest.raises(AdmissionError) as exc:
            q.submit(make_request())
        assert exc.value.capacity == 2
        assert exc.value.occupancy == 2
        assert q.stats.rejected == 1
        assert q.stats.admitted == 2

    def test_take_preserves_untaken_order(self, make_request):
        q = AdmissionQueue(capacity=8)
        reqs = [make_request(n_clusters=2 + (i % 2)) for i in range(6)]
        for r in reqs:
            q.submit(r)
        taken = q.take(lambda r: r.config.n_clusters == 2, limit=2)
        assert [t.request_id for t in taken] == [
            reqs[0].request_id, reqs[2].request_id
        ]
        # untaken requests keep their relative order
        rest = q.take(lambda r: True, limit=len(q))
        assert [r.request_id for r in rest] == [
            reqs[1].request_id, reqs[3].request_id,
            reqs[4].request_id, reqs[5].request_id,
        ]

    def test_take_drains_capacity(self, make_request):
        q = AdmissionQueue(capacity=1)
        q.submit(make_request())
        q.take(lambda r: True, limit=1)
        q.submit(make_request())  # space freed, no rejection

    def test_max_occupancy_high_water(self, make_request):
        q = AdmissionQueue(capacity=4)
        q.submit(make_request())
        q.submit(make_request())
        q.take(lambda r: True, limit=2)
        q.submit(make_request())
        assert q.stats.max_occupancy == 2

    def test_peek_empty_raises(self):
        with pytest.raises(ServiceError):
            AdmissionQueue(capacity=1).peek()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ServiceError):
            AdmissionQueue(capacity=0)
