"""The clustering service: admission → micro-batching → scheduling.

:class:`ClusterService` drives a replayable, discrete-event serving loop
over the simulated platform:

1. **Admission** — arrivals are admitted to a bounded
   :class:`~repro.serve.queue.AdmissionQueue` in arrival order; overflow
   gets a typed ``rejected`` response (backpressure, not failure).
   Admission is evaluated at batch boundaries: while a batch is in
   flight, newly arrived requests queue up and are admitted (or shed)
   when the service clock reaches them.
2. **Micro-batching** — the :class:`~repro.serve.batcher.MicroBatcher`
   claims the oldest request plus every compatible queued request (same
   graph fingerprint and Algorithm 2 parameters).  The batch shares one
   graph upload + Laplacian build; embedding-compatible subgroups (same
   k, solver seed, tolerances) share one Lanczos solve; every request
   runs its own k-means.
3. **Embedding cache** — before any device work, each subgroup consults
   the LRU :class:`~repro.serve.cache.EmbeddingCache`; a hit skips
   stages 1-3 entirely and is bit-identical to a cold run by
   construction of the key.  Only fault-free computations are inserted.
4. **Scheduling** — units execute through the
   :class:`~repro.serve.scheduler.StreamScheduler`, which lays their
   cost-model durations onto ``n_devices × streams_per_device`` lanes;
   latency/throughput/occupancy are read off the overlapped schedule.

Fault isolation
---------------
Each request's chaos plan is scoped to the units it *leads* (shared
stages run under the FIFO leader's plan) plus its own k-means.  When a
shared unit fails terminally, the leader gets a ``failed`` response and
the unit is retried for the remaining members without the poisoned plan —
a faulted job can therefore degrade (resilience recovers, recorded in its
response) or fail alone, but never corrupts its batch-mates' results.

The predict fast lane
---------------------
:class:`~repro.serve.request.PredictRequest` bypasses admission and
micro-batching entirely: a predict never waits for a batch to form and
is never shed by the bounded queue.  Ready predicts dispatch in
deadline/priority order (:meth:`StreamScheduler.dispatch_order`) with
``ready_at`` equal to their arrival, so an idle stream serves them while
heavy fit batches occupy the other lanes.  The fitted model is shared
through the same LRU cache as the embeddings under
:func:`~repro.serve.fingerprint.model_key` (fit identity only — predict
knobs stay outside the key): a miss charges one cold fit, every
subsequent predict against that fit pays only the Nyström extension.
A cold fit that recovered from injected faults is tainted and never
cached, exactly like the embedding-cache rule.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro.chaos.runtime import chaos as _chaos_scope
from repro.core.result import EmbeddingResult, StageTimings
from repro.cuda.profiler import Profiler, merge_reports
from repro.errors import AdmissionError, ClusteringError, ReproError, ServiceError
from repro.hw.spec import GPUSpec, K20C, PCIE_X16_GEN2, PCIeSpec
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.cache import EmbeddingCache
from repro.serve.metrics import ServiceReport, build_report
from repro.serve.persist import PersistentStore
from repro.serve.queue import AdmissionQueue
from repro.serve.request import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    ClusterRequest,
    ClusterResponse,
    PredictRequest,
    PredictResponse,
)
from repro.serve.scheduler import StreamScheduler

#: count fields of :class:`ServiceConfig` and the least value each takes
_COUNTS = {
    "queue_capacity": 1,
    "max_batch": 1,
    "n_devices": 1,
    "streams_per_device": 1,
    "cache_entries": 0,
}


@dataclass
class ServiceConfig:
    """Tunables of one service instance.

    Every count field must be an ``int`` (``bool`` is not one) at or
    above its least value; anything else raises
    :class:`~repro.errors.ServiceError` naming the field.
    """

    queue_capacity: int = 64
    max_batch: int = 8
    n_devices: int = 1
    streams_per_device: int = 2
    cache_entries: int = 32
    spec: GPUSpec = K20C
    pcie: PCIeSpec = PCIE_X16_GEN2
    #: EDF preemption at stage boundaries (off = observational deadlines)
    preemption: bool = True
    #: directory for the persistent cache tier; None keeps the cache
    #: in-process only
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        for name, least in _COUNTS.items():
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < least
            ):
                raise ServiceError(
                    f"{name} must be an int >= {least}, got {value!r}"
                )


@dataclass
class _OperatorBuild:
    """Stages 1-2 output shared by a batch (device-resident)."""

    dcsr: object
    shift: float
    deg_kept: np.ndarray
    kept: np.ndarray
    n_total: int
    timings: StageTimings
    resilience: dict
    profile: object

    @property
    def n(self) -> int:
        return self.dcsr.shape[0]


class ClusterService:
    """An async-style clustering service over the simulated platform.

    The service is replay-driven: :meth:`process` consumes a list of
    :class:`~repro.serve.request.ClusterRequest` (arrivals on the
    simulated clock) and returns per-request responses plus a
    :class:`~repro.serve.metrics.ServiceReport`.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.scheduler = StreamScheduler(
            n_devices=self.config.n_devices,
            streams_per_device=self.config.streams_per_device,
            spec=self.config.spec,
            pcie=self.config.pcie,
            preemption=self.config.preemption,
        )
        self.queue = AdmissionQueue(self.config.queue_capacity)
        store = (
            PersistentStore(self.config.cache_dir)
            if self.config.cache_dir is not None else None
        )
        self.cache = EmbeddingCache(self.config.cache_entries, store=store)
        self.batcher = MicroBatcher(self.config.max_batch)
        #: request_id -> content fingerprint (filled at admission)
        self._fps: dict[str, str] = {}
        #: request_id -> the one FaultPlan instance scoped to its units
        self._plans: dict[str, object] = {}
        #: memoized dataset resolution
        self._datasets: dict[tuple, object] = {}
        #: (dataset, scale, seed) -> content fingerprint
        self._fp_by_ref: dict[tuple, str] = {}
        #: embedding key -> simulated time its cached entry became available
        self._cache_ready: dict[tuple, float] = {}
        #: response finalizers for units whose placement may still be
        #: rewritten by a preemption; run once the schedule is final
        self._deferred: list = []

    # ------------------------------------------------------------------
    # workload resolution
    # ------------------------------------------------------------------
    def _resolve(self, req: ClusterRequest):
        """``(graph, X, edges)`` for a request, loading dataset refs once."""
        if req.dataset is None:
            return req.graph, req.X, req.edges
        key = (req.dataset, req.scale, req.data_seed)
        if key not in self._datasets:
            from repro.datasets.registry import load_dataset

            self._datasets[key] = load_dataset(
                req.dataset, scale=req.scale, seed=req.data_seed
            )
        ds = self._datasets[key]
        return ds.graph, ds.points, ds.edges

    def _fingerprint_of(self, req: ClusterRequest) -> str:
        """Content fingerprint of a fit spec (memoized for dataset refs)."""
        from repro.serve.fingerprint import graph_fingerprint, points_fingerprint

        ref = None
        if req.dataset is not None:
            ref = (req.dataset, req.scale, req.data_seed)
            fp = self._fp_by_ref.get(ref)
            if fp is not None:
                return fp
        graph, X, edges = self._resolve(req)
        if graph is not None:
            fp = graph_fingerprint(graph)
        else:
            fp = points_fingerprint(X, edges)
        if ref is not None:
            self._fp_by_ref[ref] = fp
        return fp

    def _fingerprint(self, req: ClusterRequest) -> str:
        fp = self._fps.get(req.request_id)
        if fp is None:
            fp = self._fingerprint_of(req)
            self._fps[req.request_id] = fp
        return fp

    def _operator_key(self, req: ClusterRequest) -> tuple:
        return req.operator_key(self._fingerprint(req))

    def _plan(self, req: ClusterRequest):
        if req.request_id not in self._plans:
            self._plans[req.request_id] = req.fault_plan()
        return self._plans[req.request_id]

    def _scoped(self, req: ClusterRequest, fn):
        """Wrap a unit so it executes under ``req``'s chaos plan."""
        plan = self._plan(req)

        def wrapped(dev):
            scope = (
                _chaos_scope(plan) if plan is not None
                else contextlib.nullcontext()
            )
            with scope:
                return fn(dev)

        return wrapped

    # ------------------------------------------------------------------
    # the replay loop
    # ------------------------------------------------------------------
    def process(
        self, requests: list
    ) -> tuple[list, ServiceReport]:
        """Serve a full request trace; returns (responses, report).

        ``requests`` may mix :class:`ClusterRequest` (admission → batch →
        schedule) and :class:`PredictRequest` (the fast lane).  Responses
        come back in request order.  The service clock starts at 0 and
        only ever advances: to the next arrival when idle, past each
        batch's completion otherwise.  Ready predicts are always drained
        — in deadline/priority order — before the next fit batch forms.
        """
        fits = [r for r in requests if isinstance(r, ClusterRequest)]
        preds = [r for r in requests if isinstance(r, PredictRequest)]
        if len(fits) + len(preds) != len(requests):
            raise ServiceError(
                "requests must be ClusterRequest or PredictRequest instances"
            )
        # stable sorts: equal arrivals keep submission order (arrival
        # index), never request-id lexicography
        pending = sorted(fits, key=lambda r: r.arrival)
        ppending = sorted(preds, key=lambda r: r.arrival)
        seen: set[str] = set()
        for req in pending + ppending:
            if req.request_id in seen:
                raise ServiceError(f"duplicate request_id {req.request_id!r}")
            seen.add(req.request_id)
        responses: dict[str, object] = {}
        clock = 0.0
        i = j = 0
        while i < len(pending) or j < len(ppending) or self.queue:
            # fast lane first: every arrived predict dispatches before the
            # next batch forms, ordered by priority, then deadline urgency
            arrived: list[PredictRequest] = []
            while j < len(ppending) and ppending[j].arrival <= clock:
                arrived.append(ppending[j])
                j += 1
            for preq in self.scheduler.dispatch_order(arrived):
                self._serve_predict(preq, responses)
            while i < len(pending) and pending[i].arrival <= clock:
                req = pending[i]
                i += 1
                try:
                    self._fingerprint(req)  # resolve + fingerprint up front
                    self.queue.submit(req)
                except AdmissionError as err:
                    responses[req.request_id] = ClusterResponse(
                        request_id=req.request_id,
                        status=STATUS_REJECTED,
                        arrival=req.arrival,
                        batch_start=req.arrival,
                        completed=req.arrival,
                        error=str(err),
                    )
                except ReproError as err:
                    responses[req.request_id] = ClusterResponse(
                        request_id=req.request_id,
                        status=STATUS_FAILED,
                        arrival=req.arrival,
                        batch_start=req.arrival,
                        completed=req.arrival,
                        error=f"{type(err).__name__}: {err}",
                    )
            if not self.queue:
                upcoming = []
                if i < len(pending):
                    upcoming.append(pending[i].arrival)
                if j < len(ppending):
                    upcoming.append(ppending[j].arrival)
                if upcoming:
                    clock = max(clock, min(upcoming))
                    continue
                break
            batch = self.batcher.form(self.queue, self._operator_key)
            self._serve_batch(batch, clock, responses)
            # dispatch the next batch as soon as any lane frees up (or
            # immediately, if a lane is already idle) — batches are
            # independent, so a multi-stream pool drains them concurrently
            clock = max(clock, min(s.free_at for s in self.scheduler.lanes))

        # the schedule is final: no more units will be placed, so no
        # preemption can rewrite a span — finalize deferred responses
        for finalize in self._deferred:
            finalize()
        self._deferred.clear()

        ordered = [responses[r.request_id] for r in requests]
        profile = merge_reports(
            Profiler(dev).snapshot() for dev in self.scheduler.devices
        )
        report = build_report(
            ordered, self.scheduler, self.queue.stats, self.batcher.stats,
            self.cache.stats, profile,
        )
        return ordered, report

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def _fail(self, responses, req, err, batch, t_batch, completed) -> None:
        responses[req.request_id] = ClusterResponse(
            request_id=req.request_id,
            status=STATUS_FAILED,
            arrival=req.arrival,
            batch_start=t_batch,
            completed=completed,
            batch_id=batch.batch_id,
            batch_size=len(batch),
            error=f"{type(err).__name__}: {err}",
        )

    def _serve_batch(self, batch: Batch, t_batch: float, responses) -> float:
        """Serve one batch; returns the simulated completion time."""
        fp = batch.group_key[0]
        groups = batch.embedding_groups(lambda r: r.embedding_key(fp))

        # --- consult the cache per embedding group -----------------------
        cached: dict[tuple, EmbeddingResult] = {}
        misses: list[tuple] = []
        for key in groups:
            hit = self.cache.get(key)
            if hit is not None:
                cached[key] = hit
            else:
                misses.append(key)

        batch_end = t_batch
        op: _OperatorBuild | None = None
        op_unit = None
        dead: set[str] = set()

        try:
            # --- shared stages 1-2 (only if some group must solve) -------
            if misses:
                miss_members = [
                    r for key in misses for r in groups[key]
                ]
                order = {r.request_id: j for j, r in enumerate(batch.requests)}
                miss_members.sort(key=lambda r: order[r.request_id])
                while miss_members:
                    leader = miss_members[0]
                    unit = self.scheduler.run(
                        f"b{batch.batch_id}:operator",
                        ready_at=t_batch,
                        fn=self._scoped(leader, self._build_fn(leader)),
                    )
                    batch_end = max(batch_end, unit.end)
                    if unit.ok:
                        op = unit.value
                        op_unit = unit
                        break
                    self._fail(
                        responses, leader, unit.error, batch, t_batch, unit.end
                    )
                    dead.add(leader.request_id)
                    miss_members = miss_members[1:]
                if op is None:
                    # every miss-group member failed leading the build;
                    # cache-hit groups still get served below
                    misses = []

            # --- stage 3 per embedding group -----------------------------
            # a hit can piggyback on an entry whose solve is still in
            # flight on another lane: k-means then waits for availability
            ready: dict[tuple, float] = {
                key: max(t_batch, self._cache_ready.get(key, t_batch))
                for key in cached
            }
            solved: dict[tuple, EmbeddingResult] = {}
            for key in misses:
                members = [
                    r for r in groups[key] if r.request_id not in dead
                ]
                while members:
                    leader = members[0]
                    k = leader.config.n_clusters
                    if op.n <= k:
                        err = ClusteringError(
                            f"only {op.n} non-isolated nodes for "
                            f"k={k} clusters"
                        )
                        self._fail(
                            responses, leader, err, batch, t_batch, op_unit.end
                        )
                        dead.add(leader.request_id)
                        members = members[1:]
                        continue
                    unit = self.scheduler.run(
                        f"b{batch.batch_id}:eigensolve[k={k}]",
                        ready_at=op_unit.end,
                        fn=self._scoped(leader, self._solve_fn(leader, op)),
                        device=self.scheduler.devices[op_unit.device_index],
                        # a row-partitioned solve pins one lane per GPU it
                        # spans (gang-scheduled from a common start)
                        width=min(
                            max(1, leader.config.devices),
                            len(self.scheduler.lanes),
                        ),
                    )
                    batch_end = max(batch_end, unit.end)
                    if unit.ok:
                        emb = unit.value
                        solved[key] = emb
                        ready[key] = unit.end
                        if not emb.resilience and not op.resilience:
                            if self.cache.put(key, emb):
                                self._cache_ready[key] = unit.end
                        break
                    self._fail(
                        responses, leader, unit.error, batch, t_batch, unit.end
                    )
                    dead.add(leader.request_id)
                    members = members[1:]

            # --- stage 4 per request -------------------------------------
            for key, members in groups.items():
                emb = cached.get(key) or solved.get(key)
                if emb is None:
                    continue  # group never produced an embedding
                for req in members:
                    if req.request_id in dead:
                        continue
                    unit = self.scheduler.run(
                        f"b{batch.batch_id}:kmeans[{req.request_id}]",
                        ready_at=ready[key],
                        fn=self._scoped(req, self._kmeans_fn(req, emb)),
                        # the canonical preemption victim: a deadline
                        # predict may suspend it at a Lloyd-iteration
                        # boundary or jump in front of it before it starts
                        preemptible=True,
                    )
                    batch_end = max(batch_end, unit.end)
                    if not unit.ok:
                        # preemption may still shift this unit: read its
                        # end time only once the schedule is final
                        self._deferred.append(
                            lambda u=unit, r=req: self._fail(
                                responses, r, u.error, batch, t_batch, u.end
                            )
                        )
                        continue
                    km, km_timings, km_resil = unit.value
                    labels_full = np.full(emb.n_total, -1, dtype=np.int64)
                    labels_full[emb.kept] = km.labels
                    timings = StageTimings(
                        simulated=dict(emb.timings.simulated),
                        wall=dict(emb.timings.wall),
                    ) if key in solved else StageTimings()
                    timings.simulated.update(km_timings.simulated)
                    timings.wall.update(km_timings.wall)
                    resilience = dict(emb.resilience) if key in solved else {}
                    resilience.update(km_resil)

                    # results are final (arithmetic already executed), but
                    # a later preemption may still push the placement —
                    # defer only the completion-time read
                    def _finish(
                        u=unit, r=req, labels=labels_full, e=emb,
                        hit=key in cached, tm=timings, rs=resilience,
                    ):
                        responses[r.request_id] = ClusterResponse(
                            request_id=r.request_id,
                            status=STATUS_OK,
                            labels=labels,
                            eigenvalues=e.eigenvalues,
                            embedding=e.embedding,
                            cache_hit=hit,
                            batch_id=batch.batch_id,
                            batch_size=len(batch),
                            arrival=r.arrival,
                            batch_start=t_batch,
                            completed=u.end,
                            timings=tm,
                            resilience=rs,
                        )

                    self._deferred.append(_finish)
        finally:
            if op is not None:
                op.dcsr.free()
        return batch_end

    # ------------------------------------------------------------------
    # unit builders (arithmetic identical to SpectralClustering.fit)
    # ------------------------------------------------------------------
    def _build_fn(self, leader: ClusterRequest):
        graph, X, edges = self._resolve(leader)
        est = leader.estimator()
        policy = leader.policy()

        def run(dev) -> _OperatorBuild:
            prof = Profiler(dev)
            prof.start()
            timings = StageTimings()
            resil: dict = {}
            dcoo, n_total, kept = est._similarity_stage(
                dev, policy, X, edges, graph, timings, resil
            )
            try:
                dcsr, shift, deg_kept = est._operator_stage(
                    dev, policy, dcoo, timings, resil
                )
            finally:
                dcoo.free()
            return _OperatorBuild(
                dcsr=dcsr, shift=shift, deg_kept=deg_kept, kept=kept,
                n_total=n_total, timings=timings, resilience=resil,
                profile=prof.stop(),
            )

        return run

    def _solve_fn(self, leader: ClusterRequest, op: _OperatorBuild):
        est = leader.estimator()
        policy = leader.policy()

        def run(dev) -> EmbeddingResult:
            prof = Profiler(dev)
            prof.start()
            timings = StageTimings()
            resil: dict = {}
            theta, embedding, stats = est._eigensolver_stage(
                dev, policy, op.dcsr, op.shift, op.deg_kept, timings, resil,
                free_operator=False,
            )
            # fold the shared build into the group's embedding record so a
            # later cache hit reports the full provenance
            timings.simulated = {**op.timings.simulated, **timings.simulated}
            timings.wall = {**op.timings.wall, **timings.wall}
            return EmbeddingResult(
                embedding=embedding,
                eigenvalues=theta,
                kept=op.kept,
                n_total=op.n_total,
                timings=timings,
                profile=merge_reports([op.profile, prof.stop()]),
                eig_stats=stats.as_dict(),
                resilience={**op.resilience, **resil},
            )

        return run

    def _kmeans_fn(self, req: ClusterRequest, emb: EmbeddingResult):
        est = req.estimator()
        policy = req.policy()

        def run(dev):
            timings = StageTimings()
            resil: dict = {}
            km = est._kmeans_stage(dev, policy, emb.embedding, timings, resil)
            return km, timings, resil

        return run

    # ------------------------------------------------------------------
    # the predict fast lane
    # ------------------------------------------------------------------
    def _fail_predict(self, responses, preq, err, completed) -> None:
        responses[preq.request_id] = PredictResponse(
            request_id=preq.request_id,
            status=STATUS_FAILED,
            arrival=preq.arrival,
            start=preq.arrival,
            completed=completed,
            deadline=preq.deadline,
            priority=preq.priority,
            error=f"{type(err).__name__}: {err}",
        )

    def _serve_predict(self, preq: PredictRequest, responses) -> None:
        """Serve one fast-lane predict: model cache → (cold fit) → Nyström.

        The predict bypasses the admission queue and the batcher; its
        units dispatch with ``ready_at = arrival`` so an idle stream
        picks them up immediately, even while a fit batch holds the
        other lanes.
        """
        fit = preq.fit
        try:
            fp = self._fingerprint_of(fit)
            key = fit.model_key(fp)
        except ReproError as err:
            self._fail_predict(responses, preq, err, preq.arrival)
            return

        model = self.cache.get(key)
        model_hit = model is not None
        cold_fit = False
        cold_unit = None
        cold_resilience: dict = {}
        ready = preq.arrival
        if model_hit:
            # piggyback on an entry whose fit may still be in flight
            ready = max(ready, self._cache_ready.get(key, ready))
        else:
            cold_unit = self.scheduler.run(
                f"predict[{preq.request_id}]:coldfit",
                ready_at=preq.arrival,
                fn=self._scoped(preq, self._coldfit_fn(fit)),
                priority=preq.priority,
                # a cold fit suspends at its Lanczos-restart boundaries;
                # on failure nothing consumes its end time, so it stays a
                # live preemption victim — defer reading its times
                preemptible=True,
            )
            if not cold_unit.ok:
                self._deferred.append(
                    lambda u=cold_unit: self._fail_predict(
                        responses, preq, u.error, u.end
                    )
                )
                return
            result = cold_unit.value
            model = result.model
            if model is None:
                err = ClusteringError(
                    "fit parameterization has no Nyström extension "
                    "(ratiocut objective or compressive embedding)"
                )
                # the response consumes the fit's end time: freeze it
                self.scheduler.retire(cold_unit)
                self._fail_predict(responses, preq, err, cold_unit.end)
                return
            cold_fit = True
            cold_resilience = dict(result.resilience)
            # downstream work consumes the fit's end time: freeze the
            # span so no later preemption can rewrite it
            self.scheduler.retire(cold_unit)
            ready = cold_unit.end
            # taint rule: a fit that recovered from faults never caches
            if not result.resilience:
                if self.cache.put(key, model):
                    self._cache_ready[key] = cold_unit.end

        try:
            payload = self._predict_payload(preq, model)
        except ReproError as err:
            self._fail_predict(responses, preq, err, ready)
            return

        unit = self.scheduler.run(
            f"predict[{preq.request_id}]",
            ready_at=ready,
            fn=self._scoped(preq, self._predict_fn(preq, model, payload)),
            priority=preq.priority,
            deadline=preq.deadline,
            # a predict with no deadline is a final-stage unit: nothing
            # reads its times until response finalization, so an urgent
            # deadline predict may jump the queue ahead of it
            preemptible=preq.deadline is None,
            depends_on=(cold_unit,) if cold_unit is not None else (),
        )

        def _finish(
            u=unit, r=preq, hit=model_hit, cold=cold_fit, rs=cold_resilience
        ):
            if not u.ok:
                self._fail_predict(responses, r, u.error, u.end)
                return
            pres = u.value
            responses[r.request_id] = PredictResponse(
                request_id=r.request_id,
                status=STATUS_OK,
                labels=pres.labels,
                embedding=pres.embedding,
                model_hit=hit,
                cold_fit=cold,
                ledger_ok=pres.ledger_ok,
                n_new=pres.n_new,
                arrival=r.arrival,
                start=u.start,
                completed=u.end,
                deadline=r.deadline,
                priority=r.priority,
                # the cold fit's recovery record rides along: it explains
                # why the model was (not) cached and flags the response
                # degraded
                resilience={**rs, **pres.resilience},
            )

        if preq.deadline is None:
            # the placement may still shift under later preemptions —
            # finalize once the schedule is settled
            self._deferred.append(_finish)
        else:
            _finish()

    def _coldfit_fn(self, fit: ClusterRequest):
        graph, X, edges = self._resolve(fit)

        def run(dev):
            est = fit.estimator(device=dev)
            if graph is not None:
                return est.fit(graph=graph)
            return est.fit(X=X, edges=edges)

        return run

    def _predict_fn(self, preq: PredictRequest, model, payload: dict):
        policy = preq.policy()

        def run(dev):
            return model.predict(device=dev, policy=policy, **payload)

        return run

    def _predict_payload(self, preq: PredictRequest, model) -> dict:
        """Kwargs for :meth:`FittedSpectralModel.predict`.

        By-value payloads pass through.  Synthetic payloads derive
        deterministically from ``new_seed``: each new vertex clones the
        anchor neighborhood of one fitted vertex — feature rows with a
        small multiplicative jitter after a point-input fit (feature
        path), the vertex's similarity row verbatim after a graph-input
        fit (weights path).
        """
        if not preq.synthetic_payload:
            payload = {"pairs_new": preq.pairs_new}
            if preq.X_new is not None:
                payload["X_new"] = preq.X_new
            else:
                payload["weights_new"] = preq.weights_new
            return payload
        rng = np.random.default_rng(preq.new_seed)
        n_new = int(preq.n_new)
        pos = rng.integers(0, model.n_anchor, size=n_new)
        rows_l, cols_l, vals_l = [], [], []
        for i, p in enumerate(pos):
            cols_p, vals_p = model.graph.getrow(int(p))
            rows_l.append(np.full(cols_p.size, i, dtype=np.int64))
            cols_l.append(model.kept[cols_p])
            vals_l.append(vals_p)
        pairs = np.column_stack([
            np.concatenate(rows_l), np.concatenate(cols_l),
        ])
        if model.anchors is not None:
            jitter = 1.0 + 1e-4 * rng.standard_normal(
                (n_new, model.anchors.shape[1])
            )
            return {
                "X_new": model.anchors[pos] * jitter,
                "pairs_new": pairs,
                "n_new": n_new,
            }
        return {
            "weights_new": np.concatenate(vals_l),
            "pairs_new": pairs,
            "n_new": n_new,
        }


# ----------------------------------------------------------------------
# baselines and verification
# ----------------------------------------------------------------------
def run_sequential(
    requests: list[ClusterRequest],
    spec: GPUSpec = K20C,
    pcie: PCIeSpec = PCIE_X16_GEN2,
) -> tuple[list[ClusterResponse], ServiceReport]:
    """One-request-at-a-time baseline: no batching, no cache, one stream.

    Implemented as a degenerate :class:`ClusterService` (max_batch=1,
    cache disabled, one device, one stream, queue sized to the trace) so
    the arithmetic path is identical and the comparison isolates exactly
    the serving-layer levers: batching, caching, and multi-stream overlap.
    """
    service = ClusterService(ServiceConfig(
        queue_capacity=max(1, len(requests)),
        max_batch=1,
        n_devices=1,
        streams_per_device=1,
        cache_entries=0,
        spec=spec,
        pcie=pcie,
    ))
    return service.process(requests)


def verify_against_cold(
    responses: list[ClusterResponse],
    requests: list[ClusterRequest],
) -> list[str]:
    """Check every ok response against a cold single-request fit.

    Re-runs each served request through ``SpectralClustering.fit`` on a
    fresh device and compares labels and embeddings bit for bit.  Returns
    human-readable mismatch lines (empty = verified).  Requests that
    failed or were rejected in the service are skipped, as are chaos
    requests (a cold run replays the same fault schedule from a different
    site sequence, so recovery paths may legitimately differ).
    """
    by_id = {r.request_id: r for r in requests}
    service = ClusterService()  # fresh resolver for cold runs
    problems: list[str] = []
    for resp in responses:
        if not resp.ok:
            continue
        req = by_id[resp.request_id]
        if not isinstance(req, ClusterRequest):
            continue  # predict parity is audited by its transfer ledger
        if req.chaos is not None:
            continue
        graph, X, edges = service._resolve(req)
        est = req.estimator()
        cold = (
            est.fit(graph=graph) if graph is not None
            else est.fit(X=X, edges=edges)
        )
        if not np.array_equal(cold.labels, resp.labels):
            problems.append(
                f"{resp.request_id}: labels differ from cold run "
                f"(cache_hit={resp.cache_hit})"
            )
        if not np.array_equal(cold.embedding, resp.embedding):
            problems.append(
                f"{resp.request_id}: embedding differs from cold run "
                f"(cache_hit={resp.cache_hit})"
            )
    return problems
