"""The persistent cross-process cache: round-trips, staleness, taint."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.core.model import FittedSpectralModel
from repro.errors import ServiceError
from repro.serve.cache import EmbeddingCache
from repro.serve.persist import PersistentStore, canonical_key
from repro.serve.service import ClusterService, ServiceConfig


def _embedding(seed=0, n=40, k=3, resilience=None) -> FittedSpectralModel:
    """A labels-only entry (what a ratiocut or compressive fit caches)."""
    rng = np.random.default_rng(seed)
    return FittedSpectralModel(
        basis=rng.standard_normal((n, k)),
        eigenvalues=np.sort(rng.random(k)),
        degrees=None,
        centroids=rng.standard_normal((k, k)),
        labels=rng.integers(0, k, n),
        kept=np.arange(n, dtype=np.int64),
        n_total=n,
        graph=None,
        anchors=None,
        config=ClusterConfig(n_clusters=k, embedding="compressive"),
        resilience=dict(resilience or {}),
    )


def _fitted_model(small_graph):
    from repro.serve.request import DEFAULT_REQUEST_CONFIG, ClusterRequest

    req = ClusterRequest(
        request_id="m", graph=small_graph,
        config=replace(DEFAULT_REQUEST_CONFIG, n_clusters=4),
    )
    return req.estimator().fit(graph=small_graph)


def _rewrite_meta(path, edit) -> None:
    """Replace the metadata of a stored entry with ``edit(metadata)``."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = edit(json.loads(arrays["__meta__"].tobytes().decode()))
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _with_stored_params(path, params) -> None:
    """Rewrite the params in the metadata of a stored model entry."""
    _rewrite_meta(path, lambda meta: {**meta, "params": params})


#: (entry kind, edit of its stored metadata): what a foreign or garbled
#: writer could leave behind; each must load as an ``errors`` miss
GARBLED_META = [
    pytest.param("embedding", lambda m: [m], id="meta-list"),
    pytest.param("model", lambda m: 4, id="meta-number"),
    pytest.param("embedding", lambda m: {**m, "n_total": [m["n_total"]]},
                 id="n_total-list"),
    pytest.param("embedding",
                 lambda m: {k: v for k, v in m.items() if k != "graph_shape"},
                 id="graph_shape-missing"),
    pytest.param("model", lambda m: {**m, "n_total": [m["n_total"]]},
                 id="model-n_total-list"),
    pytest.param("model", lambda m: {**m, "graph_shape": 100},
                 id="graph_shape-number"),
    pytest.param("model", lambda m: {**m, "graph_shape": [[100], 100]},
                 id="graph_shape-nested"),
    pytest.param("model", lambda m: {**m, "n_refits": [0]},
                 id="n_refits-list"),
    pytest.param("model", lambda m: {**m, "drift_scale": {}},
                 id="drift_scale-object"),
    pytest.param("model", lambda m: {**m, "has_anchors": "yes"},
                 id="has_anchors-string"),
]


KEY = ("emb", "fp123", 3, 1e-8, True, None)


class TestStoreRoundTrip:
    def test_embedding_bit_identical(self, tmp_path):
        """A labels-only entry round-trips bit for bit, and comes back
        labels-only."""
        store = PersistentStore(tmp_path)
        emb = _embedding()
        nbytes = store.save(KEY, emb)
        assert nbytes > 0
        back = store.load(KEY)
        assert back is not None
        for name in ("embedding", "eigenvalues", "centroids", "labels",
                     "kept"):
            a, b = getattr(emb, name), getattr(back, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert back.n_total == emb.n_total
        assert back.config == emb.config
        assert back.graph is None and back.degrees is None
        assert back.anchors is None
        assert back.resilience == {}
        assert store.stats.saves == 1 and store.stats.loads == 1

    def test_saved_bytes_independent_of_wall_time(self, tmp_path, small_graph):
        """Two fits of one problem, which took different wall times,
        write byte-identical files (no timing is persisted)."""
        blobs = []
        for i in range(2):
            store = PersistentStore(tmp_path / str(i))
            store.save(KEY, _fitted_model(small_graph).model)
            blobs.append(store.path_for(KEY).read_bytes())
        assert blobs[0] == blobs[1]

    def test_model_bit_identical(self, tmp_path, small_graph):
        store = PersistentStore(tmp_path)
        model = _fitted_model(small_graph).model
        key = ("model", "fpm", 4)
        store.save(key, model)
        back = store.load(key)
        assert back is not None
        for name in ("basis", "eigenvalues", "degrees", "centroids",
                     "labels", "embedding", "kept"):
            a, b = getattr(model, name), getattr(back, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert np.array_equal(model.graph.indptr, back.graph.indptr)
        assert np.array_equal(model.graph.indices, back.graph.indices)
        assert np.array_equal(model.graph.data, back.graph.data)
        assert back.graph.shape == model.graph.shape
        assert back.n_total == model.n_total
        if model.anchors is None:
            assert back.anchors is None
        else:
            assert np.array_equal(model.anchors, back.anchors)

    def test_model_stores_basis_once(self, tmp_path, small_graph):
        """The embedding k-means clustered is the basis itself: the file
        holds no second copy and the loaded model aliases the two."""
        store = PersistentStore(tmp_path)
        model = _fitted_model(small_graph).model
        store.save(("m",), model)
        with np.load(store.path_for(("m",)), allow_pickle=False) as npz:
            assert "embedding" not in npz.files
            assert "basis" in npz.files
        back = store.load(("m",))
        assert back.embedding is back.basis
        assert back.basis.tobytes() == model.basis.tobytes()
        assert back.embedding.tobytes() == model.embedding.tobytes()

    def test_reloaded_model_predicts_identically(self, tmp_path, small_graph):
        from repro.cuda.device import Device

        store = PersistentStore(tmp_path)
        model = _fitted_model(small_graph).model
        store.save(("m",), model)
        back = store.load(("m",))
        rng = np.random.default_rng(7)
        pos = rng.integers(0, model.n_anchor, size=5)
        rows, cols, vals = [], [], []
        for i, p in enumerate(pos):
            c, v = model.graph.getrow(int(p))
            rows.append(np.full(c.size, i, dtype=np.int64))
            cols.append(model.kept[c])
            vals.append(v)
        payload = {
            "weights_new": np.concatenate(vals),
            "pairs_new": np.column_stack(
                [np.concatenate(rows), np.concatenate(cols)]
            ),
            "n_new": 5,
        }
        a = model.predict(device=Device(), **payload)
        b = back.predict(device=Device(), **payload)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.embedding, b.embedding)

    def test_missing_key_is_none(self, tmp_path):
        store = PersistentStore(tmp_path)
        assert store.load(("nothing",)) is None
        assert store.stats.errors == 0

    def test_unsupported_value_rejected(self, tmp_path):
        store = PersistentStore(tmp_path)
        with pytest.raises(ServiceError, match="cannot persist"):
            store.save(KEY, object())

    def test_non_serializable_key_rejected(self, tmp_path):
        store = PersistentStore(tmp_path)
        with pytest.raises(ServiceError, match="non-serializable"):
            store.save((object(),), _embedding())

    def test_canonical_key_distinguishes_types(self):
        # int vs float vs str must not alias
        assert canonical_key((1,)) != canonical_key((1.0,))
        assert canonical_key((1,)) != canonical_key(("1",))
        # tuples and nested tuples canonicalize stably
        assert canonical_key((("a", 2), None)) == canonical_key((("a", 2), None))


class TestStoreInvalidation:
    def test_format_version_mismatch_is_a_miss(self, tmp_path, monkeypatch):
        store = PersistentStore(tmp_path)
        store.save(KEY, _embedding())
        monkeypatch.setattr("repro.serve.persist.FORMAT_VERSION", 999)
        assert store.load(KEY) is None
        assert store.stats.stale == 1

    def test_v1_model_with_per_stage_device_params_is_stale(
        self, tmp_path, monkeypatch, small_graph
    ):
        """A version-1 model entry stores per-stage device knobs (eig/fit
        device counts, partition mode) the estimator no longer accepts; a
        refit from those params would raise, so loading the entry must
        count as stale instead of handing the model back."""
        from repro.core.pipeline import SpectralClustering

        model = _fitted_model(small_graph).model
        # the retired knob names are assembled from pieces so that a
        # search of the tree for them finds only the change history
        params = {k: v for k, v in asdict(model.config).items()
                  if k != "devices"}
        params.update({f"{stage}_devices": 1 for stage in ("eig", "fit")})
        params["partition_" + "mode"] = "nnz"
        with pytest.raises(TypeError):
            SpectralClustering(**params)
        key = ("model", "fpm", 4)
        store = PersistentStore(tmp_path)
        monkeypatch.setattr("repro.serve.persist.FORMAT_VERSION", 1)
        store.save(key, model)
        monkeypatch.undo()
        _with_stored_params(store.path_for(key), params)
        assert store.load(key) is None
        assert store.stats.stale == 1
        assert store.stats.errors == 0

    def test_previous_format_entry_is_stale(
        self, tmp_path, monkeypatch, small_graph
    ):
        """An entry written one format back stores knobs the config no
        longer declares; it counts as stale, not as an ``errors`` miss."""
        from repro.serve import persist

        model = _fitted_model(small_graph).model
        params = {**asdict(model.config), "similarity": "crosscorr",
                  "sigma": 1.0, "normalize_rows": False,
                  "handle_isolated": "remove", "kmeans_init": "k-means++",
                  "kmeans_update": "spmm", "kmeans_fused": True,
                  "lift": "interp"}
        key = ("model", "fpm", 4)
        store = PersistentStore(tmp_path)
        monkeypatch.setattr(
            "repro.serve.persist.FORMAT_VERSION", persist.FORMAT_VERSION - 1
        )
        store.save(key, model)
        monkeypatch.undo()
        _with_stored_params(store.path_for(key), params)
        assert store.load(key) is None
        assert store.stats.stale == 1
        assert store.stats.errors == 0

    def test_version4_embedding_entry_is_stale(self, tmp_path):
        """A version-4 store held a second entry kind, the bare embedding
        a fit request cached; such a file counts as stale, not as an
        error, and never comes back as a model."""
        store = PersistentStore(tmp_path)
        meta = {
            "format": 4, "kind": "embedding",
            "key": json.loads(canonical_key(KEY)), "n_total": 40,
            "timings_simulated": {"eigensolver": 0.5}, "eig_stats": {},
        }
        emb = _embedding()
        with open(store.path_for(KEY), "wb") as fh:
            np.savez(
                fh,
                __meta__=np.frombuffer(json.dumps(meta).encode(), np.uint8),
                embedding=emb.basis, eigenvalues=emb.eigenvalues,
                kept=emb.kept,
            )
        assert store.load(KEY) is None
        assert store.stats.stale == 1 and store.stats.errors == 0

    @pytest.mark.parametrize("add, drop", [
        ({"eig_" + "devices": 1}, ()),  # a knob the config does not declare
        ({"precision": "fp8"}, ()),  # a value the config rejects
        ({}, ("n_clusters",)),  # a required knob gone
    ], ids=["unknown-knob", "invalid-value", "missing-knob"])
    def test_current_model_with_invalid_params_is_an_error_miss(
        self, tmp_path, small_graph, add, drop
    ):
        """A current-format model entry whose params no longer validate as
        a ClusterConfig is a miss counted in ``errors``: handing it back
        would only defer the failure to the model's first refit."""
        model = _fitted_model(small_graph).model
        params = {
            k: v for k, v in {**asdict(model.config), **add}.items()
            if k not in drop
        }
        key = ("model", "fpm", 4)
        store = PersistentStore(tmp_path)
        store.save(key, model)
        _with_stored_params(store.path_for(key), params)
        assert store.load(key) is None
        assert store.stats.errors == 1
        assert store.stats.stale == 0
        # the untouched entry still loads with an equal config
        store.save(key, model)
        assert store.load(key).config == model.config

    @pytest.mark.parametrize("kind, edit", GARBLED_META)
    def test_garbled_metadata_is_an_error_miss(
        self, tmp_path, small_graph, kind, edit
    ):
        """``load`` never raises: metadata of the wrong shape or a field
        of the wrong type is a miss counted in ``errors``."""
        store = PersistentStore(tmp_path)
        value = _embedding() if kind == "embedding" else _fitted_model(
            small_graph
        ).model
        store.save(KEY, value)
        _rewrite_meta(store.path_for(KEY), edit)
        assert store.load(KEY) is None
        assert store.stats.errors == 1 and store.stats.loads == 0

    def test_embedded_key_verified(self, tmp_path):
        import shutil

        store = PersistentStore(tmp_path)
        store.save(KEY, _embedding())
        other = ("emb", "other-fp", 3, 1e-8, True, None)
        # a foreign file squatting on another key's path never aliases
        shutil.copy(store.path_for(KEY), store.path_for(other))
        assert store.load(other) is None
        assert store.stats.stale == 1

    def test_corrupt_file_is_a_miss_not_a_crash(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.save(KEY, _embedding())
        store.path_for(KEY).write_bytes(b"not an npz")
        assert store.load(KEY) is None
        assert store.stats.errors == 1

    @pytest.mark.parametrize("kind", ["embedding", "model"])
    @pytest.mark.parametrize("frac", [0.3, 0.6, 0.9, 0.99])
    def test_truncated_entry_is_an_error_miss(
        self, tmp_path, small_graph, kind, frac
    ):
        """A write cut short (a crash mid-save, a full disk) leaves a
        truncated zip: ``load`` counts it as an error and misses."""
        store = PersistentStore(tmp_path)
        value = _embedding() if kind == "embedding" else _fitted_model(
            small_graph
        ).model
        store.save(KEY, value)
        path = store.path_for(KEY)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * frac)])
        assert store.load(KEY) is None
        assert store.stats.errors == 1 and store.stats.loads == 0

    def test_damaged_member_is_an_error_miss(self, tmp_path):
        """A member whose bytes rot in place fails its read (a bad CRC
        or a short stream), not the whole service."""
        store = PersistentStore(tmp_path)
        store.save(KEY, _embedding())
        path = store.path_for(KEY)
        blob = bytearray(path.read_bytes())
        at = blob.index(b"basis.npy") + 200
        blob[at:at + 64] = bytes(64)
        path.write_bytes(bytes(blob))
        assert store.load(KEY) is None
        assert store.stats.errors == 1

    def test_tainted_artifact_refused(self, tmp_path):
        store = PersistentStore(tmp_path)
        with pytest.raises(ServiceError, match="tainted"):
            store.save(KEY, _embedding(resilience={"eigensolver": 1}))
        assert KEY not in store


class TestTwoTierCache:
    def test_write_through_and_disk_warm_hit(self, tmp_path):
        store = PersistentStore(tmp_path)
        warm = EmbeddingCache(capacity=4, store=store)
        emb = _embedding()
        assert warm.put(KEY, emb)
        assert warm.stats.disk_writes == 1
        assert warm.stats.disk_bytes_written > 0

        # a "restarted process": fresh LRU, same directory
        cold = EmbeddingCache(capacity=4, store=PersistentStore(tmp_path))
        back = cold.get(KEY)
        assert back is not None
        assert np.array_equal(back.embedding, emb.embedding)
        assert cold.stats.hits == 1 and cold.stats.disk_hits == 1
        # re-admitted to memory: the next hit never touches disk
        again = cold.get(KEY)
        assert again is back
        assert cold.stats.hits == 2 and cold.stats.disk_hits == 1

    def test_eviction_keeps_disk_copy(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = EmbeddingCache(capacity=1, store=store)
        e1, e2 = _embedding(1), _embedding(2)
        cache.put(("k1",), e1)
        cache.put(("k2",), e2)  # evicts k1 from memory
        assert ("k1",) not in cache
        assert cache.stats.evictions == 1
        back = cache.get(("k1",))  # disk-warm re-admission
        assert back is not None
        assert np.array_equal(back.embedding, e1.embedding)
        assert cache.stats.disk_hits == 1

    def test_nbytes_accounting_through_disk_round_trip(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = EmbeddingCache(capacity=2, store=store)
        e1, e2, e3 = _embedding(1), _embedding(2), _embedding(3)
        cache.put(("k1",), e1)
        cache.put(("k2",), e2)
        cache.put(("k3",), e3)  # evicts k1
        assert cache.stats.bytes_held == e2.nbytes + e3.nbytes
        back = cache.get(("k1",))  # disk hit evicts k2 on re-admission
        assert back is not None
        assert cache.stats.bytes_held == back.nbytes + e3.nbytes
        assert len(cache) == 2

    def test_tainted_entry_never_written(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = EmbeddingCache(capacity=4, store=store)
        emb = _embedding(resilience={"kmeans": 2})
        assert cache.put(KEY, emb)  # memory residency is fine
        assert cache.stats.taint_skipped == 1
        assert cache.stats.disk_writes == 0
        assert KEY not in store
        # a fresh process finds nothing: taint never crosses processes
        cold = EmbeddingCache(capacity=4, store=PersistentStore(tmp_path))
        assert cold.get(KEY) is None

    def test_capacity_zero_disables_disk_tier_too(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = EmbeddingCache(capacity=0, store=store)
        assert not cache.put(KEY, _embedding())
        assert cache.get(KEY) is None
        assert store.stats.saves == 0 and store.stats.loads == 0

    def test_clear_keeps_disk(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = EmbeddingCache(capacity=4, store=store)
        cache.put(KEY, _embedding())
        cache.clear()
        assert len(cache) == 0
        assert cache.get(KEY) is not None  # disk-warm
        assert cache.stats.disk_hits == 1


class TestServiceWarmRestart:
    def _config(self, tmp_path, **kw):
        return ServiceConfig(
            n_devices=1, streams_per_device=2, max_batch=4,
            cache_dir=str(tmp_path / "store"), **kw,
        )

    def test_restarted_service_warms_from_disk(
        self, tmp_path, make_request, make_predict
    ):
        trace = [
            make_request(arrival=0.0, request_id="f0"),
            make_request(arrival=0.0, request_id="f1"),
            make_predict(arrival=0.0, request_id="p0"),
            make_predict(arrival=1.0, request_id="p1"),
        ]
        first = ClusterService(self._config(tmp_path))
        r1, rep1 = first.process(trace)
        # one entry serves both fits and both predicts
        assert rep1.cache["disk_writes"] == 1
        assert rep1.cache["disk_hits"] == 0

        second = ClusterService(self._config(tmp_path))
        r2, rep2 = second.process(trace)
        assert rep2.cache["disk_hits"] == 1
        # the restarted process pays no cold fit and no eigensolve
        assert rep2.predict["cold_fits"] == 0
        assert rep2.predict["model_hits"] == rep2.predict["ok"]
        names = [ev.name for ev in second.scheduler.schedule]
        assert not any("eigensolve" in n for n in names)
        assert not any("coldfit" in n for n in names)
        # disk-warm responses are bit-identical to the cold process's
        for a, b in zip(r1, r2):
            assert a.request_id == b.request_id
            assert a.ok and b.ok
            assert np.array_equal(a.labels, b.labels)

    def test_mixed_fit_predict_eviction_under_persistence(
        self, tmp_path, make_request, make_predict, small_graph, other_graph
    ):
        """Two problems churn a one-entry LRU; disk keeps both, and the
        predict finds its fit's entry there."""
        trace = [
            make_request(arrival=0.0, request_id="f0"),
            make_request(arrival=5.0, request_id="g0", graph=other_graph,
                         n_clusters=3),
            make_predict(arrival=10.0, request_id="p0"),
        ]
        svc = ClusterService(self._config(tmp_path, cache_entries=1))
        responses, report = svc.process(trace)
        assert all(r.ok for r in responses)
        # capacity-1 LRU churned, but every clean artifact reached disk
        assert report.cache["evictions"] >= 2
        assert report.cache["disk_writes"] == 2
        assert report.cache["disk_hits"] == 1  # p0 rides on f0's entry
        store = PersistentStore(tmp_path / "store")
        assert len(store) == 2

        # a restart serves all three shapes disk-warm
        svc2 = ClusterService(self._config(tmp_path, cache_entries=1))
        r2, rep2 = svc2.process(trace)
        assert rep2.cache["disk_hits"] >= 3
        for a, b in zip(responses, r2):
            assert np.array_equal(a.labels, b.labels)

    def test_chaos_fit_stays_out_of_the_store(
        self, tmp_path, make_request
    ):
        """A recovered (tainted) model must never reach disk."""
        trace = [make_request(arrival=0.0, request_id="c0", chaos=1234)]
        svc = ClusterService(self._config(tmp_path))
        responses, report = svc.process(trace)
        resp = responses[0]
        if resp.ok and resp.resilience:
            assert report.cache["disk_writes"] == 0
            assert len(PersistentStore(tmp_path / "store")) == 0
