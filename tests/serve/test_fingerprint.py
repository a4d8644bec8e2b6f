"""Content fingerprints: workload identity for batching and caching."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.serve.fingerprint import (
    EMBEDDING_KEY_FIELDS,
    LABEL_FIELDS,
    UNKEYED_FIELDS,
    embedding_key,
    graph_fingerprint,
    operator_key,
    points_fingerprint,
    same_labels,
)
from repro.serve.request import DEFAULT_REQUEST_CONFIG

_COMPRESSIVE = {"embedding": "compressive"}

#: a valid non-default value for every ClusterConfig field, with the base
#: knobs it is changed from (the compressive knobs act only there)
FIELD_CHANGES = {
    "n_clusters": ({}, 5),
    "operator": ({}, "rw"),
    "objective": ({}, "ratiocut"),
    "m": ({}, 32),
    "eig_tol": ({}, 1e-6),
    "eig_maxiter": ({}, 10),
    "eig_residency": ({}, "host"),
    "eig_spmv_format": ({}, "ell"),
    "devices": ({}, 2),
    "precision": ({}, "fp32"),
    "embedding": ({}, "power"),
    "filter_order": (_COMPRESSIVE, 96),
    "n_signals": (_COMPRESSIVE, 8),
    "sample_frac": (_COMPRESSIVE, 0.5),
    "kmeans_max_iter": ({}, 50),
    "seed": ({}, 1),
}


class TestGraphFingerprint:
    def test_deterministic(self, small_sym_csr):
        assert graph_fingerprint(small_sym_csr) == graph_fingerprint(small_sym_csr)

    def test_format_invariant(self, small_sym_csr):
        """COO and CSR forms of the same graph fingerprint equally."""
        coo = small_sym_csr.to_coo()
        assert graph_fingerprint(coo) == graph_fingerprint(small_sym_csr)

    def test_value_sensitive(self, small_sym_csr):
        fp = graph_fingerprint(small_sym_csr)
        other = small_sym_csr.to_coo()
        other.data = other.data.copy()
        other.data[0] *= 2.0
        assert graph_fingerprint(other) != fp

    def test_structure_sensitive(self, rng):
        from repro.sparse.construct import random_sparse

        a = random_sparse(40, 40, 0.2, rng=np.random.default_rng(1),
                          symmetric=True)
        b = random_sparse(40, 40, 0.2, rng=np.random.default_rng(2),
                          symmetric=True)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_is_hex_string(self, small_sym_csr):
        fp = graph_fingerprint(small_sym_csr)
        assert isinstance(fp, str) and len(fp) == 64
        int(fp, 16)  # parses as hex


class TestPointsFingerprint:
    def test_sensitive_to_all_inputs(self, rng):
        X = rng.random((20, 4))
        edges = np.array([[0, 1], [1, 2], [3, 4]], dtype=np.int64)
        base = points_fingerprint(X, edges)
        assert points_fingerprint(X, edges) == base
        assert points_fingerprint(X * 1.01, edges) != base
        assert points_fingerprint(X, edges[:-1]) != base


class TestCompositeKeys:
    def test_operator_key_partitions(self):
        a = operator_key("fp", "sym", "ncut")
        assert a == operator_key("fp", "sym", "ncut")
        assert a != operator_key("fp", "rw", "ncut")
        assert a != operator_key("fp", "sym", "ratiocut")
        assert a != operator_key("other", "sym", "ncut")

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(ClusterConfig)]
    )
    def test_every_field_has_one_key_role(self, name):
        """Each config field is in exactly one of the embedding key, the
        label fields or the unkeyed table; changing it changes exactly
        what its role says: the key, or only which labels are reusable."""
        roles = [
            role for role in (EMBEDDING_KEY_FIELDS, LABEL_FIELDS,
                              UNKEYED_FIELDS)
            if name in role
        ]
        assert len(roles) == 1, name
        base_knobs, value = FIELD_CHANGES[name]
        base = replace(DEFAULT_REQUEST_CONFIG, **base_knobs)
        changed = replace(base, **{name: value})
        assert getattr(base, name) != value
        key_changed = embedding_key("fp", changed) != embedding_key("fp", base)
        labels_changed = not same_labels(base, changed)
        if roles[0] is EMBEDDING_KEY_FIELDS:
            assert key_changed
        elif roles[0] is LABEL_FIELDS:
            assert not key_changed and labels_changed
        else:
            assert not key_changed and not labels_changed

    def test_default_request_key(self):
        """The key tuples are value-identical to the per-argument form
        they replaced."""
        emb = embedding_key("fp", DEFAULT_REQUEST_CONFIG)
        assert emb == (
            "fp", "sym", "ncut", 2, None, 1e-08, None, 0, "fp64", "lanczos",
            None, None,
        )
        comp = replace(DEFAULT_REQUEST_CONFIG, n_clusters=5, **_COMPRESSIVE)
        assert embedding_key("fp", comp)[-2:] == (48, 16)

    def test_requests_sharing_operator_but_not_embedding(self, make_request):
        """Different k shares the operator key but not the cache key."""
        a, b = make_request(n_clusters=3), make_request(n_clusters=5)
        fp = a.workload_fingerprint()
        assert fp == b.workload_fingerprint()
        assert a.operator_key(fp) == b.operator_key(fp)
        assert a.embedding_key(fp) != b.embedding_key(fp)


class TestCompressiveKeyPartitioning:
    """embedding='compressive' entries must never collide with exact or
    power entries for the same workload, while the bit-identical
    placement knobs (devices / eig_residency) stay excluded."""

    def test_tiers_partition_for_same_workload(self, make_request):
        exact = make_request()
        power = make_request(embedding="power")
        comp = make_request(embedding="compressive")
        fp = exact.workload_fingerprint()
        keys = {
            exact.embedding_key(fp),
            power.embedding_key(fp),
            comp.embedding_key(fp),
        }
        assert len(keys) == 3
        # ...while all three share the operator build
        assert exact.operator_key(fp) == comp.operator_key(fp)

    def test_filter_knobs_partition_compressive_entries(self, make_request):
        a = make_request(embedding="compressive")
        b = make_request(embedding="compressive", filter_order=96)
        c = make_request(embedding="compressive", n_signals=8)
        fp = a.workload_fingerprint()
        assert len({a.embedding_key(fp), b.embedding_key(fp),
                    c.embedding_key(fp)}) == 3

    def test_explicit_defaults_share_a_slot(self, make_request):
        """filter_order=None and filter_order=<engine default> are the
        same embedding — the key canonicalizes, so they share a slot."""
        from repro.compressive.filters import (
            DEFAULT_FILTER_ORDER,
            default_n_signals,
        )

        a = make_request(embedding="compressive")
        b = make_request(
            embedding="compressive",
            filter_order=DEFAULT_FILTER_ORDER,
            n_signals=default_n_signals(4),
        )
        fp = a.workload_fingerprint()
        assert a.embedding_key(fp) == b.embedding_key(fp)

    def test_filter_knobs_inert_outside_compressive(self, make_request):
        """On lanczos/power requests the compressive knobs do not touch
        the key (they are inert in the computation too)."""
        a = make_request()
        b = make_request(filter_order=96, n_signals=8)
        fp = a.workload_fingerprint()
        assert a.embedding_key(fp) == b.embedding_key(fp)

    def test_stage4_knobs_excluded(self, make_request):
        """sample_frac acts after the embedding is built; two requests
        differing only there share the embedding slot."""
        a = make_request(embedding="compressive")
        b = make_request(embedding="compressive", sample_frac=0.5)
        fp = a.workload_fingerprint()
        assert a.embedding_key(fp) == b.embedding_key(fp)

    def test_devices_still_excluded(self, make_request):
        a = make_request(embedding="compressive")
        b = make_request(embedding="compressive", devices=2)
        fp = a.workload_fingerprint()
        assert a.embedding_key(fp) == b.embedding_key(fp)


class TestModelKey:
    """The one cache key: fit and predict requests share it, the label
    knobs stay outside it, and so do the predict knobs."""

    def test_fit_and_predict_share_one_key(self, make_request):
        """A predict looks up the very key its fit request caches under."""
        from repro.serve.request import PredictRequest

        fit = make_request()
        fp = fit.workload_fingerprint()
        pred = PredictRequest(request_id="p", fit=fit)
        assert pred.fit.embedding_key(fp) == fit.embedding_key(fp)

    def test_kmeans_knobs_partition(self, make_request):
        """kmeans_max_iter separates labels, not solves: the key is
        shared, the labels are not."""
        a = make_request()
        b = make_request(kmeans_max_iter=50)
        fp = a.workload_fingerprint()
        assert a.embedding_key(fp) == b.embedding_key(fp)
        assert not same_labels(a.config, b.config)
        assert same_labels(a.config, make_request().config)

    def test_predict_knobs_outside_key(self, make_request):
        """Two predicts differing in payload / deadline / priority against
        the same fit spec share one cached model."""
        from repro.serve.request import PredictRequest

        fit = make_request()
        fp = fit.workload_fingerprint()
        a = PredictRequest(request_id="pa", fit=fit, n_new=4, priority=2,
                           deadline=1.0, arrival=0.5)
        b = PredictRequest(request_id="pb", fit=fit, n_new=64, new_seed=9)
        assert a.fit.embedding_key(fp) == b.fit.embedding_key(fp)
