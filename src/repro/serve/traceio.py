"""Replayable request traces: JSONL persistence + synthetic generators.

A trace is one JSON object per line: a by-reference
:class:`~repro.serve.request.ClusterRequest` (datasets are named, never
inlined, so traces are small and content-addressing still works on
replay), or — with ``"kind": "predict"`` — a
:class:`~repro.serve.request.PredictRequest` whose fit spec nests as a
``"fit"`` sub-object and whose payload is the by-reference synthetic
form (``n_new``/``new_seed``).  Unknown keys are rejected so a typo'd
field fails loudly rather than silently falling back to a default.

The lines stay flat: every :class:`~repro.core.config.ClusterConfig`
field is a trace key beside the request's own keys, and a line names
only the knobs that differ from
:data:`~repro.serve.request.DEFAULT_REQUEST_CONFIG`.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

from repro.core.config import ClusterConfig
from repro.errors import ClusteringError, TraceFormatError
from repro.serve.request import (
    DEFAULT_REQUEST_CONFIG,
    ClusterRequest,
    PredictRequest,
)

#: a trace request's own JSONL keys (chaos is a seed, not a plan)
_REQUEST_FIELDS = (
    "request_id", "arrival", "dataset", "scale", "data_seed", "chaos",
    "no_resilience",
)
#: the estimator knobs, one JSONL key per config field
_KNOBS = tuple(f.name for f in fields(ClusterConfig))
_FIELDS = _REQUEST_FIELDS + _KNOBS

#: JSONL fields accepted for a predict trace entry
_PREDICT_FIELDS = (
    "kind", "request_id", "arrival", "fit", "n_new", "new_seed",
    "deadline", "priority", "chaos", "no_resilience",
)


def request_to_dict(req: ClusterRequest) -> dict:
    """JSON-serializable form of a by-reference request."""
    if req.dataset is None:
        raise TraceFormatError(
            f"request {req.request_id!r} carries an in-memory workload; "
            "only dataset-by-reference requests are trace-serializable"
        )
    if req.chaos is not None and not isinstance(req.chaos, int):
        raise TraceFormatError(
            f"request {req.request_id!r}: only integer chaos seeds are "
            "trace-serializable"
        )
    defaults = ClusterRequest(request_id="", dataset=req.dataset)
    out = {"request_id": req.request_id, "dataset": req.dataset}
    for obj, default, names in (
        (req, defaults, _REQUEST_FIELDS),
        (req.config, DEFAULT_REQUEST_CONFIG, _KNOBS),
    ):
        for name in names:
            value = getattr(obj, name)
            if name not in out and value != getattr(default, name):
                out[name] = value
    return out


def predict_to_dict(req: PredictRequest) -> dict:
    """JSON-serializable form of a synthetic-payload predict request."""
    if not req.synthetic_payload:
        raise TraceFormatError(
            f"predict {req.request_id!r} carries a by-value payload; only "
            "synthetic (n_new/new_seed) predicts are trace-serializable"
        )
    if req.chaos is not None and not isinstance(req.chaos, int):
        raise TraceFormatError(
            f"predict {req.request_id!r}: only integer chaos seeds are "
            "trace-serializable"
        )
    fit_dict = request_to_dict(req.fit)
    defaults = PredictRequest(request_id="", fit=req.fit)
    out = {
        "kind": "predict",
        "request_id": req.request_id,
        "fit": fit_dict,
    }
    for name in _PREDICT_FIELDS:
        if name in ("kind", "request_id", "fit"):
            continue
        value = getattr(req, name)
        if value != getattr(defaults, name):
            out[name] = value
    return out


def predict_from_dict(obj: dict, lineno: int | None = None) -> PredictRequest:
    """Parse one predict trace entry."""
    where = f" (line {lineno})" if lineno is not None else ""
    unknown = sorted(set(obj) - set(_PREDICT_FIELDS))
    if unknown:
        raise TraceFormatError(
            f"unknown predict trace fields {unknown}{where}"
        )
    if "request_id" not in obj:
        raise TraceFormatError(f"predict trace entry missing request_id{where}")
    fit_obj = obj.get("fit")
    if not isinstance(fit_obj, dict):
        raise TraceFormatError(
            f"predict trace entry {obj['request_id']!r} missing its fit "
            f"spec{where}"
        )
    chaos = obj.get("chaos")
    if chaos is not None and not isinstance(chaos, int):
        raise TraceFormatError(
            f"predict trace entry {obj['request_id']!r}: chaos must be an "
            f"integer seed{where}"
        )
    fields = {k: v for k, v in obj.items() if k not in ("kind", "fit")}
    fields["fit"] = request_from_dict(fit_obj, lineno=lineno)
    try:
        return PredictRequest(**fields)
    except TypeError as err:
        raise TraceFormatError(f"bad predict trace entry{where}: {err}") from err


def request_from_dict(obj: dict, lineno: int | None = None) -> ClusterRequest:
    """Parse one trace entry, rejecting unknown or malformed fields."""
    where = f" (line {lineno})" if lineno is not None else ""
    if not isinstance(obj, dict):
        raise TraceFormatError(f"trace entry must be an object{where}")
    if obj.get("kind") == "predict":
        return predict_from_dict(obj, lineno=lineno)
    unknown = sorted(set(obj) - set(_FIELDS))
    if unknown:
        raise TraceFormatError(f"unknown trace fields {unknown}{where}")
    if "request_id" not in obj:
        raise TraceFormatError(f"trace entry missing request_id{where}")
    if "dataset" not in obj:
        raise TraceFormatError(
            f"trace entry {obj['request_id']!r} missing dataset{where}"
        )
    chaos = obj.get("chaos")
    if chaos is not None and not isinstance(chaos, int):
        raise TraceFormatError(
            f"trace entry {obj['request_id']!r}: chaos must be an integer "
            f"seed{where}"
        )
    knobs = {name: obj[name] for name in _KNOBS if name in obj}
    rest = {k: v for k, v in obj.items() if k not in knobs}
    try:
        return ClusterRequest(
            **rest, config=replace(DEFAULT_REQUEST_CONFIG, **knobs)
        )
    except (TypeError, ClusteringError) as err:
        raise TraceFormatError(f"bad trace entry{where}: {err}") from err


def write_trace(requests, path) -> None:
    """Write requests to ``path`` as JSONL (by-reference requests only)."""
    with open(path, "w", encoding="utf-8") as fh:
        for req in requests:
            obj = (
                predict_to_dict(req) if isinstance(req, PredictRequest)
                else request_to_dict(req)
            )
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_trace(path) -> list:
    """Parse a JSONL trace file into requests (order preserved).

    Entries tagged ``"kind": "predict"`` come back as
    :class:`PredictRequest`; everything else as :class:`ClusterRequest`.
    """
    requests: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise TraceFormatError(
                    f"invalid JSON on line {lineno}: {err}"
                ) from err
            requests.append(request_from_dict(obj, lineno=lineno))
    return requests


def synthetic_trace(
    n_requests: int = 24,
    datasets: tuple = (("syn200", 0.1), ("fb", 0.3)),
    mean_interarrival: float = 0.002,
    k_choices: tuple = (2, 3, 4),
    chaos_every: int = 0,
    seed: int = 0,
) -> list[ClusterRequest]:
    """A bursty synthetic workload that exercises batching and caching.

    Workloads cycle through ``datasets`` (each a ``(name, scale)`` pair
    with a fixed generator seed), so the same graph fingerprint recurs
    throughout the trace — exactly the traffic shape micro-batching and
    the model cache exist for.  ``k_choices`` varies ``n_clusters``
    across requests sharing a graph; ``chaos_every > 0`` arms every
    n-th request with a deterministic fault seed.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_interarrival, size=n_requests))
    requests: list[ClusterRequest] = []
    for i in range(n_requests):
        name, scale = datasets[i % len(datasets)]
        requests.append(ClusterRequest(
            request_id=f"r{i:04d}",
            arrival=float(arrivals[i]),
            dataset=name,
            scale=scale,
            data_seed=0,
            config=replace(
                DEFAULT_REQUEST_CONFIG,
                n_clusters=int(k_choices[(i // len(datasets)) % len(k_choices)]),
            ),
            chaos=(
                int(1000 + i) if chaos_every and (i + 1) % chaos_every == 0
                else None
            ),
        ))
    return requests


def synthetic_predict_trace(
    n_requests: int = 40,
    datasets: tuple = (("syn200", 0.1), ("fb", 0.3)),
    predict_fraction: float = 0.9,
    mean_interarrival: float = 0.002,
    k_choices: tuple = (2, 3),
    n_new: int = 8,
    deadline_slack: float | None = 0.25,
    deadline_every: int = 3,
    chaos_every: int = 0,
    seed: int = 0,
) -> list:
    """A predict-heavy serving workload: few fit specs, many predicts.

    ``predict_fraction`` of the trace (rounded) are
    :class:`PredictRequest` entries; the rest are plain fits.  All
    predicts cycle through the same small set of fit specs (``datasets``
    × ``k_choices``), so after one cold fit per spec the model cache
    serves every subsequent predict warm — the fit-once-predict-many
    traffic shape the fast lane exists for.  Every ``deadline_every``-th
    predict carries a deadline (``arrival + deadline_slack``; the default
    of 3 matches the historical trace byte-for-byte, 1 makes every
    predict deadline-carrying — the deadline-heavy workload the
    preemption bench uses) and priorities cycle 0-2, exercising the
    deadline/priority dispatch order; ``chaos_every > 0`` arms every
    n-th predict with a deterministic fault seed.
    """
    import numpy as np

    if not 0.0 <= predict_fraction <= 1.0:
        raise TraceFormatError(
            f"predict_fraction must be in [0, 1], got {predict_fraction}"
        )
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_interarrival, size=n_requests))
    n_predict = int(round(n_requests * predict_fraction))
    is_predict = np.zeros(n_requests, dtype=bool)
    is_predict[:n_predict] = True
    rng.shuffle(is_predict)

    specs = [
        (name, scale, int(k))
        for name, scale in datasets for k in k_choices
    ]
    requests: list = []
    p = 0  # predict counter (drives spec cycling, deadlines, priorities)
    for i in range(n_requests):
        name, scale, k = specs[(p if is_predict[i] else i) % len(specs)]
        if is_predict[i]:
            chaos = (
                int(2000 + i)
                if chaos_every and (p + 1) % chaos_every == 0 else None
            )
            requests.append(PredictRequest(
                request_id=f"p{i:04d}",
                arrival=float(arrivals[i]),
                fit=ClusterRequest(
                    request_id=f"p{i:04d}/fit",
                    dataset=name,
                    scale=scale,
                    data_seed=0,
                    config=replace(DEFAULT_REQUEST_CONFIG, n_clusters=k),
                ),
                n_new=n_new,
                new_seed=p,
                deadline=(
                    float(arrivals[i] + deadline_slack)
                    if deadline_slack is not None
                    and deadline_every > 0
                    and p % deadline_every == 0 else None
                ),
                priority=p % 3,
                chaos=chaos,
            ))
            p += 1
        else:
            requests.append(ClusterRequest(
                request_id=f"r{i:04d}",
                arrival=float(arrivals[i]),
                dataset=name,
                scale=scale,
                data_seed=0,
                config=replace(DEFAULT_REQUEST_CONFIG, n_clusters=k),
            ))
    return requests
