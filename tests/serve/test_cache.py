"""LRU model cache semantics."""

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.core.model import FittedSpectralModel
from repro.cuda.device import Device
from repro.errors import ServiceError
from repro.serve.cache import EmbeddingCache


def _entry(n=10, k=3):
    """A labels-only entry (what a ratiocut or compressive fit caches)."""
    return FittedSpectralModel(
        basis=np.zeros((n, k)),
        eigenvalues=np.zeros(k),
        degrees=None,
        centroids=np.zeros((k, k)),
        labels=np.zeros(n, dtype=np.int64),
        kept=np.arange(n),
        n_total=n,
        graph=None,
        anchors=None,
        config=ClusterConfig(n_clusters=k, objective="ratiocut"),
    )


class TestEmbeddingCache:
    def test_miss_then_hit(self):
        cache = EmbeddingCache(capacity=2)
        assert cache.get(("a",)) is None
        emb = _entry()
        assert cache.put(("a",), emb)
        assert cache.get(("a",)) is emb
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = EmbeddingCache(capacity=2)
        cache.put(("a",), _entry())
        cache.put(("b",), _entry())
        cache.get(("a",))  # refresh a → b is now LRU
        cache.put(("c",), _entry())
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache
        assert cache.stats.evictions == 1

    def test_bytes_tracking(self):
        cache = EmbeddingCache(capacity=1)
        e1, e2 = _entry(n=10), _entry(n=100)
        cache.put(("a",), e1)
        assert cache.stats.bytes_held == e1.nbytes
        cache.put(("b",), e2)  # evicts e1
        assert cache.stats.bytes_held == e2.nbytes

    def test_capacity_zero_disables(self):
        cache = EmbeddingCache(capacity=0)
        assert not cache.put(("a",), _entry())
        assert cache.get(("a",)) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServiceError):
            EmbeddingCache(capacity=-1)

    def test_hit_rate(self):
        cache = EmbeddingCache(capacity=4)
        assert cache.stats.hit_rate == 0.0
        cache.put(("a",), _entry())
        cache.get(("a",))
        cache.get(("b",))
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_clear(self):
        cache = EmbeddingCache(capacity=4)
        cache.put(("a",), _entry())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes_held == 0


def _model(n_anchor=8, k=3, d=None):
    """A minimal FittedSpectralModel for cache-accounting tests."""
    from repro.core.model import FittedSpectralModel
    from repro.sparse.construct import from_edge_list

    edges = np.array(
        [[i, (i + 1) % n_anchor] for i in range(n_anchor)], dtype=np.int64
    )
    graph = from_edge_list(edges, n_nodes=n_anchor).to_csr()
    return FittedSpectralModel(
        basis=np.zeros((n_anchor, k)),
        eigenvalues=np.ones(k),
        degrees=np.full(n_anchor, 2.0),
        centroids=np.zeros((k, k)),
        labels=np.zeros(n_anchor, dtype=np.int64),
        kept=np.arange(n_anchor, dtype=np.int64),
        n_total=n_anchor,
        graph=graph,
        anchors=None if d is None else np.zeros((n_anchor, d)),
        config=ClusterConfig(n_clusters=k),
    )


class TestMixedFitPredictLoad:
    """Labels-only entries and Nyström models share one LRU: eviction
    and accounting stay uniform."""

    def test_both_entry_kinds_coexist(self):
        cache = EmbeddingCache(capacity=4)
        cache.put(("fp", "ratiocut"), _entry())
        cache.put(("fp", "ncut"), _model())
        assert len(cache) == 2
        assert cache.get(("fp", "ratiocut")).graph is None
        assert cache.get(("fp", "ncut")).graph is not None

    def test_model_nbytes_feeds_accounting(self):
        cache = EmbeddingCache(capacity=4)
        m = _model(n_anchor=16, d=5)
        e = _entry(n=32)
        cache.put(("model", "a"), m)
        cache.put(("a",), e)
        assert cache.stats.bytes_held == m.nbytes + e.nbytes
        assert m.nbytes > _model(n_anchor=16).nbytes  # anchors counted

    def test_eviction_frees_the_resident_basis(self):
        """An evicted model releases the basis copy a ``keep_basis``
        predict left on the device."""
        device = Device()
        cache = EmbeddingCache(capacity=1)
        m = _model()
        cache.put(("model", "m"), m)
        pairs = np.array([[0, 1], [0, 2]])
        m.predict(
            weights_new=np.ones(2), pairs_new=pairs, device=device,
            keep_basis=True,
        )
        resident = m._resident[device]
        assert resident.is_valid
        cache.put(("model", "m2"), _model())
        assert not resident.is_valid and not m._resident

    def test_lru_order_spans_both_kinds(self):
        """A hot model keeps its slot while a stale labels-only entry
        evicts."""
        cache = EmbeddingCache(capacity=2)
        cache.put(("model", "m"), _model())
        cache.put(("e",), _entry())
        cache.get(("model", "m"))  # refresh: embedding is now LRU
        cache.put(("model", "m2"), _model())
        assert ("model", "m") in cache and ("model", "m2") in cache
        assert ("e",) not in cache
        assert cache.stats.bytes_held == sum(
            _model().nbytes for _ in range(2)
        )

    def test_hit_rate_counts_both_kinds(self):
        cache = EmbeddingCache(capacity=4)
        cache.put(("e",), _entry())
        cache.put(("model", "m"), _model())
        cache.get(("e",))
        cache.get(("model", "m"))
        cache.get(("model", "missing"))
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_service_taint_rule_is_callers_job(self):
        """The cache never inspects resilience — the service gates put();
        a tainted model inserted directly would be served.  Guard the
        contract: put/get round-trips whatever object it is handed."""
        cache = EmbeddingCache(capacity=1)
        m = _model()
        m.resilience = {"eigensolve": {"retries": 1}}
        cache.put(("model", "t"), m)
        assert cache.get(("model", "t")) is m
