"""JSONL request traces: round-trip fidelity and strict parsing."""

import hashlib
import json
from dataclasses import fields, replace

import pytest

from repro.core.config import ClusterConfig
from repro.errors import TraceFormatError
from repro.serve.request import DEFAULT_REQUEST_CONFIG, ClusterRequest
from repro.serve.traceio import (
    read_trace,
    request_from_dict,
    request_to_dict,
    synthetic_predict_trace,
    synthetic_trace,
    write_trace,
)

#: every knob away from its request default; ``devices > 1`` needs the
#: device residency and a CSR format, so it gets a second config
_ALL_CHANGED = replace(
    DEFAULT_REQUEST_CONFIG, n_clusters=5, operator="rw", objective="ratiocut",
    m=32, eig_tol=1e-6, eig_maxiter=10, eig_residency="host",
    eig_spmv_format="ell", precision="fp32", embedding="power",
    filter_order=96, n_signals=8, sample_frac=0.5, kmeans_max_iter=50,
    seed=1,
)
_MULTI_DEVICE = replace(
    _ALL_CHANGED, devices=2, eig_residency="device", eig_spmv_format="csr"
)

#: SHA-256 of the traces ``repro serve --synthetic 20 --emit-trace`` writes
#: (fit-only, and ``--workload-mix 0.5``); replay traces must stay
#: byte-stable across releases
_FIT_TRACE_SHA256 = (
    "d2415a7366fc65aaed27149bcef97ea4311a047827c583fb37be698a214dd9f6"
)
_MIX_TRACE_SHA256 = (
    "0bca47c2861fa926855ef2fb77d2fce3d0581dde40e3aff00842c7f7b9330e07"
)


class TestTraceRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        reqs = synthetic_trace(n_requests=8, chaos_every=3, seed=42)
        path = tmp_path / "trace.jsonl"
        write_trace(reqs, path)
        back = read_trace(path)
        assert len(back) == len(reqs)
        for a, b in zip(reqs, back):
            assert request_to_dict(a) == request_to_dict(b)

    def test_every_config_field_round_trips(self, tmp_path):
        """Each ClusterConfig field is a trace key: a request with every
        knob changed replays with an equal config and equal cache keys."""
        changed = {
            f.name for cfg in (_ALL_CHANGED, _MULTI_DEVICE)
            for f in fields(ClusterConfig)
            if getattr(cfg, f.name) != getattr(DEFAULT_REQUEST_CONFIG, f.name)
        }
        assert changed == {f.name for f in fields(ClusterConfig)}
        reqs = [
            ClusterRequest(
                request_id=f"r{i}", arrival=0.5, dataset="fb", scale=0.2,
                data_seed=3, config=cfg, chaos=7, no_resilience=True,
            )
            for i, cfg in enumerate((_ALL_CHANGED, _MULTI_DEVICE))
        ]
        path = tmp_path / "trace.jsonl"
        write_trace(reqs, path)
        for a, b in zip(reqs, read_trace(path), strict=True):
            assert b.config == a.config
            assert b.embedding_key("fp") == a.embedding_key("fp")
            assert request_to_dict(b) == request_to_dict(a)

    def test_synthetic_trace_bytes_stable(self, tmp_path):
        for trace, digest in (
            (synthetic_trace(n_requests=20), _FIT_TRACE_SHA256),
            (synthetic_predict_trace(n_requests=20, predict_fraction=0.5),
             _MIX_TRACE_SHA256),
        ):
            path = tmp_path / "trace.jsonl"
            write_trace(trace, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_defaults_omitted_from_lines(self):
        req = ClusterRequest(request_id="r1", dataset="syn200")
        d = request_to_dict(req)
        assert set(d) == {"request_id", "dataset"}

    def test_by_value_request_not_serializable(self, small_graph):
        req = ClusterRequest(request_id="r1", graph=small_graph)
        with pytest.raises(TraceFormatError):
            request_to_dict(req)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '# a comment\n\n{"request_id": "a", "dataset": "syn200"}\n'
        )
        assert len(read_trace(path)) == 1


class TestTraceParsing:
    def test_unknown_field_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown trace fields"):
            request_from_dict(
                {"request_id": "a", "dataset": "syn200", "n_cluster": 3}
            )

    def test_missing_required_fields(self):
        with pytest.raises(TraceFormatError):
            request_from_dict({"dataset": "syn200"})
        with pytest.raises(TraceFormatError):
            request_from_dict({"request_id": "a"})

    def test_invalid_knob_value_rejected(self):
        with pytest.raises(TraceFormatError, match="precision"):
            request_from_dict(
                {"request_id": "a", "dataset": "syn200", "precision": "fp8"}
            )

    def test_non_integer_chaos_rejected(self):
        with pytest.raises(TraceFormatError, match="chaos"):
            request_from_dict(
                {"request_id": "a", "dataset": "syn200", "chaos": "boom"}
            )

    def test_invalid_json_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"request_id": "a", "dataset": "syn200"}\n{oops\n')
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(path)


class TestSyntheticTrace:
    def test_arrivals_monotone_nonnegative(self):
        reqs = synthetic_trace(n_requests=20)
        arrivals = [r.arrival for r in reqs]
        assert all(a >= 0 for a in arrivals)
        assert arrivals == sorted(arrivals)

    def test_deterministic_by_seed(self):
        a = synthetic_trace(n_requests=10, seed=5)
        b = synthetic_trace(n_requests=10, seed=5)
        assert [request_to_dict(x) for x in a] == [request_to_dict(x) for x in b]

    def test_chaos_every_arms_subset(self):
        reqs = synthetic_trace(n_requests=12, chaos_every=4)
        armed = [r for r in reqs if r.chaos is not None]
        assert len(armed) == 3
        assert all(isinstance(r.chaos, int) for r in armed)

    def test_workloads_repeat_for_cache_pressure(self):
        reqs = synthetic_trace(n_requests=12)
        keys = {(r.dataset, r.scale, r.data_seed, r.config.n_clusters) for r in reqs}
        assert len(keys) < len(reqs)  # repeats exist by construction
