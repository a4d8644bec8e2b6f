"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``repro`` layer *where
their callers look them up* (``repro.core.pipeline.kmeans_device``, not
``repro.kmeans.gpu.kmeans_device``), records one span per call and
restores the originals afterwards.  The library itself is not modified:
the wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.restore`.

A span is ``(id, name, parent, op, start, end)`` on the
``time.perf_counter`` clock.  Spans stay in memory until
:meth:`Tracer.write_jsonl`.  A generator function (the Lanczos
``extend_factorization`` step suspends at every operator application)
gets one span per resumption, so the caller's work between resumptions
is not charged to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict


def _count_eigensolve(result, add) -> None:
    stats = result[2]
    add("linalg.n_op", stats.n_op)
    add("linalg.n_restarts", stats.n_restarts)
    add("cusparse.spmv_bytes", stats.spmv_bytes)


def _count_compressive(result, add) -> None:
    add("cusparse.spmv_bytes", result[1].spmv_bytes)


def _count_lloyd(result, add) -> None:
    add("kmeans.lloyd_iters", result.n_iter)


#: (span name, owner, attribute, counter).  ``owner`` is a module path,
#: or ``module:Class`` for a method; one span name may cover several
#: lookup sites of the same function.
SITES = (
    ("datasets.load_dataset", "repro.datasets", "load_dataset", None),
    ("datasets.load_dataset", "repro.datasets.registry", "load_dataset", None),
    ("graph.build_similarity_device", "repro.core.pipeline",
     "build_similarity_device", None),
    ("core.hybrid_eigensolver", "repro.core.pipeline", "hybrid_eigensolver",
     _count_eigensolve),
    ("core.predict", "repro.core.model:FittedSpectralModel", "predict", None),
    ("linalg.implicit_qr_sweep", "repro.linalg.iram", "implicit_qr_sweep", None),
    ("linalg.extend_factorization", "repro.linalg.iram",
     "extend_factorization", None),
    ("linalg.dgks_orthogonalize", "repro.linalg.lanczos",
     "dgks_orthogonalize", None),
    ("linalg.estimate_spectral_interval", "repro.compressive.engine",
     "estimate_spectral_interval", None),
    ("cusparse.spmv_any", "repro.core.workflow", "spmv_any", None),
    ("cusparse.spmm_any", "repro.core.workflow", "spmm_any", None),
    ("cusparse.spmm_any", "repro.compressive.engine", "spmm_any", None),
    ("cusparse.spmm_any", "repro.kmeans.gpu", "spmm_any", None),
    ("cusparse.convert_for_spmv", "repro.core.workflow", "convert_for_spmv", None),
    ("cusparse.convert_for_spmv", "repro.compressive.engine",
     "convert_for_spmv", None),
    ("cusparse.convert_for_spmv", "repro.kmeans.gpu", "convert_for_spmv", None),
    ("kmeans.kmeans_device", "repro.core.pipeline", "kmeans_device",
     _count_lloyd),
    ("kmeans.kmeans_plus_plus_device", "repro.kmeans.gpu",
     "kmeans_plus_plus_device", None),
    ("compressive.compressive_embedding", "repro.core.pipeline",
     "compressive_embedding", _count_compressive),
    ("compressive.apply_chebyshev_filter", "repro.compressive.engine",
     "apply_chebyshev_filter", None),
    ("compressive.lift_labels_device", "repro.core.pipeline",
     "lift_labels_device", None),
    ("serve.scheduler_run", "repro.serve.scheduler:StreamScheduler", "run", None),
    ("hw.timeline_record", "repro.hw.timeline:Timeline", "record", None),
)

#: span name -> the per-op aggregates reported as per-layer metrics
SPAN_METRICS = (
    ("graph.build_similarity_device", ("calls", "self_s")),
    ("core.hybrid_eigensolver", ("self_s",)),
    ("core.predict", ("calls", "self_s")),
    ("linalg.implicit_qr_sweep", ("calls", "self_s")),
    ("linalg.dgks_orthogonalize", ("calls", "self_s")),
    ("linalg.extend_factorization", ("self_s",)),
    ("linalg.estimate_spectral_interval", ("self_s",)),
    ("cusparse.spmv_any", ("calls", "self_s")),
    ("cusparse.spmm_any", ("calls", "self_s")),
    ("cusparse.convert_for_spmv", ("self_s",)),
    ("kmeans.kmeans_device", ("calls", "self_s")),
    ("kmeans.kmeans_plus_plus_device", ("self_s",)),
    ("compressive.compressive_embedding", ("self_s",)),
    ("compressive.apply_chebyshev_filter", ("self_s",)),
    ("compressive.lift_labels_device", ("self_s",)),
    ("serve.scheduler_run", ("calls", "self_s")),
    ("hw.timeline_record", ("calls", "total_s")),
)

#: counters the SITES hooks accumulate, reported per op
COUNTERS = (
    "linalg.n_op", "linalg.n_restarts", "cusparse.spmv_bytes",
    "kmeans.lloyd_iters",
)

SETUP_OP = "setup"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans around the :data:`SITES` while installed."""

    def __init__(self) -> None:
        #: [id, name, parent id or None, op, start, end]
        self.spans: list[list] = []
        #: op -> counter name -> value
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for name, owner, attr, counter in SITES:
            obj = _resolve(owner)
            # a class attribute is read from the class dict so restore()
            # puts back exactly what was there
            orig = vars(obj)[attr] if inspect.isclass(obj) else getattr(obj, attr)
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self._wrap(name, orig, counter))

    def restore(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # ------------------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, parent, self.op, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _exit(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    def _add(self, key: str, value) -> None:
        self.counts[self.op][key] += float(value)

    def _wrap(self, name, fn, counter):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self._resume_spans(name, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if counter is not None:
                counter(result, self._add)
            return result

        return traced

    def _resume_spans(self, name, gen):
        """``yield from gen`` with one span per resumption of ``gen``."""
        value, error = None, None
        while True:
            rec = self._enter(name)
            try:
                out = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit(rec)
            value, error = None, None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen on resume
                error = exc

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        The traced program is single-threaded, so a span's children never
        overlap and their summed durations are the covered time.
        """
        child = [0.0] * len(self.spans)
        for _sid, _name, parent, _op, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            max(0.0, (end - start) - child[sid])
            for sid, _name, _parent, _op, start, end in self.spans
        ]

    def aggregate(self) -> dict:
        """op -> span name -> {"calls", "total_s", "self_s"}."""
        out: dict = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        )
        for rec, self_s in zip(self.spans, self.self_times()):
            _sid, name, _parent, op, start, end = rec
            slot = out[op][name]
            slot["calls"] += 1
            slot["total_s"] += end - start
            slot["self_s"] += self_s
        return out

    def write_jsonl(self, path) -> None:
        epoch = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for rec, self_s in zip(self.spans, self.self_times()):
                sid, name, parent, op, start, end = rec
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "op": op,
                    "start": start - epoch, "end": end - epoch,
                    "self_s": self_s,
                }) + "\n")


def per_layer_metrics(tracer: Tracer, ops: list[str]) -> dict:
    """Per-op means over the traced ``ops`` of every span metric and
    counter, plus the set-up time spent in ``load_dataset``."""
    agg = tracer.aggregate()
    n = len(ops)
    metrics = {
        "datasets.load_dataset.total_s": agg[SETUP_OP]["datasets.load_dataset"][
            "total_s"
        ],
    }
    for name, fields in SPAN_METRICS:
        for field in fields:
            metrics[f"{name}.{field}"] = sum(agg[op][name][field] for op in ops) / n
    for key in COUNTERS:
        metrics[key] = sum(tracer.counts[op][key] for op in ops) / n
    return metrics
