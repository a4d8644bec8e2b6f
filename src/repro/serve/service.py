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
   k, solver seed, tolerances) share one Lanczos solve and one k-means
   per distinct set of label knobs (``kmeans_max_iter``,
   ``sample_frac``).
3. **Model cache** — before any device work, each subgroup consults the
   LRU :class:`~repro.serve.cache.EmbeddingCache`, whose one entry per
   solved problem is the fitted model.  A hit skips stages 1-4 entirely
   (other label knobs rerun only k-means on the cached embedding) and
   is bit-identical to a cold run by construction of the key.  Only
   fault-free computations are inserted.
4. **Scheduling** — units execute through the
   :class:`~repro.serve.scheduler.StreamScheduler`, which lays their
   cost-model durations onto ``n_devices × streams_per_device`` lanes;
   latency/throughput/occupancy are read off the overlapped schedule.

Fault isolation
---------------
Each request's chaos plan is scoped to the units it *leads* (shared
stages run under the FIFO leader's plan) plus any k-means run for its
labels (a cache hit that reuses the entry's labels runs none).  When a
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
heavy fit batches occupy the other lanes.  Fit and predict requests
share one cache entry per problem under
:func:`~repro.serve.fingerprint.embedding_key` (fit identity only —
predict knobs stay outside the key): a predict against a problem a fit
batch (or an earlier predict) solved pays only the Nyström extension,
and a miss builds the entry as a fit batch does, as a group of one
whose units may be preempted.  A cached model keeps its basis resident
on the device, so a device predict uploads only its own payload.  A
fit that recovered from injected faults is tainted and never cached.
A predict against a ratiocut or compressive fit, which has no Nyström
extension, fails at arrival.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from repro.chaos.runtime import chaos as _chaos_scope
from repro.core.model import NO_NYSTROM, FittedSpectralModel, has_nystrom
from repro.core.result import StageTimings
from repro.cuda.profiler import Profiler, merge_reports
from repro.errors import AdmissionError, ClusteringError, ReproError, ServiceError
from repro.hw.spec import GPUSpec, K20C, PCIE_X16_GEN2, PCIeSpec
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.cache import EmbeddingCache
from repro.serve.fingerprint import same_labels
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
    """Stages 1-2 output shared by a batch (device-resident), plus the
    host inputs a fitted model keeps: the graph mirror (None when no
    group can predict) and the point input (None for graph input)."""

    dcsr: object
    shift: float
    deg_kept: np.ndarray
    kept: np.ndarray
    n_total: int
    graph: object
    points: np.ndarray | None
    timings: StageTimings
    resilience: dict

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
        #: embedding key -> the unit whose end made its cached entry
        #: available (absent for an entry loaded from disk); holds only
        #: keys the cache can still return
        self._entry_units: dict[tuple, object] = {}
        #: response finalizers for units whose placement may still be
        #: rewritten by a preemption; run once the schedule is final
        self._deferred: list = []

    # ------------------------------------------------------------------
    # the embedding cache and the units that made its entries
    # ------------------------------------------------------------------
    def _lookup(self, key: tuple):
        """``(entry, unit)``: the cached model under ``key`` (``None`` on
        a miss) and the unit whose end made it available."""
        entry = self.cache.get(key)
        unit = self._entry_units.get(key) if entry is not None else None
        # a disk hit re-admits its entry and may evict another
        self._forget_evicted()
        return entry, unit

    def _cache_put(self, key: tuple, model, unit) -> bool:
        """Cache ``model``, made available by ``unit``'s end."""
        if not self.cache.put(key, model):
            return False
        self._entry_units[key] = unit
        self._forget_evicted()
        return True

    def _forget_evicted(self) -> None:
        """Drop the units of the entries the cache has evicted for good.

        With a persistent store an evicted entry stays on disk (every
        entry put here is clean, so it was written through), and a later
        lookup can bring it back: its unit must stay, or a response
        served from it would not wait for the fit that made it.
        """
        if self.cache.store is not None:
            return
        for key in [k for k in self._entry_units if k not in self.cache]:
            del self._entry_units[key]

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

    def _serve_batch(self, batch: Batch, t_batch: float, responses) -> None:
        """Serve one batch's embedding groups (:meth:`_serve_groups`);
        each response is written once the schedule is final."""
        fp = batch.group_key[0]

        def serve(req, model, unit, timings, resilience, hit, _resident):
            def finish():
                responses[req.request_id] = ClusterResponse(
                    request_id=req.request_id,
                    status=STATUS_OK,
                    labels=model.labels,
                    eigenvalues=model.eigenvalues,
                    embedding=model.embedding,
                    cache_hit=hit,
                    batch_id=batch.batch_id,
                    batch_size=len(batch),
                    arrival=req.arrival,
                    batch_start=t_batch,
                    completed=max(t_batch, unit.end) if unit else t_batch,
                    timings=timings,
                    resilience=resilience,
                )

            # the results are final, but a later preemption may still push
            # ``unit``: read its end only once the schedule has settled
            self._deferred.append(finish)

        self._serve_groups(
            f"b{batch.batch_id}", t_batch, batch.requests,
            batch.embedding_groups(lambda r: r.embedding_key(fp)),
            serve,
            lambda req, err, end: self._fail(
                responses, req, err, batch, t_batch, end
            ),
            preemptible=False,
        )

    def _serve_groups(
        self, tag, ready_at, requests, groups, serve, fail, preemptible
    ) -> None:
        """The one path that builds and caches entries: serve the
        embedding groups (``groups``: key -> members in the FIFO order of
        ``requests``) of one operator key.

        A group the cache holds reuses its entry.  The groups it misses
        share one operator build (stages 1-2) and run one eigensolve each
        (stage 3); stage 4 is :meth:`_serve_labels`.  A shared unit runs
        under its leader's chaos plan, the first member still alive: when
        it fails terminally, the leader fails alone and the unit reruns
        for the next member.  Units are named ``{tag}:<stage>`` and start
        no earlier than ``ready_at``.

        ``serve(req, model, unit, timings, resilience, hit, resident)``
        takes each member's labels, available at ``unit``'s end (at once
        when ``unit`` is None); ``resident`` says whether ``model`` is the
        cached entry.  ``fail(req, err, completed)`` takes each member
        that failed, once the schedule is final.  ``preemptible`` says
        whether a deadline unit may suspend the solves at their
        Lanczos-restart boundaries (a predict's, on one lane) or not (a
        fit batch's, gang-scheduled over ``devices`` lanes).
        """
        cached = {key: self._lookup(key) for key in groups}
        misses = [key for key, (entry, _) in cached.items() if entry is None]
        dead: set[str] = set()

        def failed(req, err, unit):
            dead.add(req.request_id)
            # preemption may still shift ``unit``: read its end time only
            # once the schedule is final
            self._deferred.append(lambda: fail(req, err, unit.end))

        op: _OperatorBuild | None = None
        op_unit = None
        try:
            # --- shared stages 1-2 (only if some group must solve) -------
            if misses:
                order = {r.request_id: j for j, r in enumerate(requests)}
                miss_members = sorted(
                    (r for key in misses for r in groups[key]),
                    key=lambda r: order[r.request_id],
                )
                # one host graph mirror serves every group that can predict
                keep_graph = any(has_nystrom(r.config) for r in miss_members)
                for leader in miss_members:
                    unit = self.scheduler.run(
                        f"{tag}:operator",
                        ready_at=ready_at,
                        fn=self._scoped(
                            leader, self._build_fn(leader, keep_graph)
                        ),
                        preemptible=preemptible,
                    )
                    if unit.ok:
                        op, op_unit = unit.take(), unit
                        break
                    failed(leader, unit.error, unit)

            # --- stage 3 per embedding group -----------------------------
            solved: dict[tuple, tuple] = {}
            for key in misses if op is not None else ():
                for leader in groups[key]:
                    if leader.request_id in dead:
                        continue
                    k = leader.config.n_clusters
                    if op.n <= k:
                        failed(leader, ClusteringError(
                            f"only {op.n} non-isolated nodes for "
                            f"k={k} clusters"
                        ), op_unit)
                        continue
                    unit = self.scheduler.run(
                        f"{tag}:eigensolve[k={k}]",
                        ready_at=op_unit.end,
                        fn=self._scoped(leader, self._solve_fn(leader, op)),
                        device=self.scheduler.devices[op_unit.device_index],
                        # a row-partitioned solve pins one lane per GPU it
                        # spans (gang-scheduled from a common start), but
                        # only a one-lane unit can be suspended
                        width=1 if preemptible else min(
                            max(1, leader.config.devices),
                            len(self.scheduler.lanes),
                        ),
                        preemptible=preemptible,
                        depends_on=(op_unit,),
                    )
                    if unit.ok:
                        solved[key] = (unit,) + unit.take()
                        break
                    failed(leader, unit.error, unit)

            # --- stage 4 per embedding group -----------------------------
            for key, members in groups.items():
                self._serve_labels(
                    tag, ready_at, key, members, *cached[key],
                    solved.get(key), op, dead, serve, failed,
                )
        finally:
            if op is not None:
                op.dcsr.free()

    def _serve_labels(
        self, tag, ready_at, key, members, entry, entry_unit, solve, op,
        dead, serve, failed,
    ) -> None:
        """Stage 4 of one embedding group: each member's labels.

        A member reuses the labels of ``entry`` (the cached model, or
        the one this group's first clean k-means just built) when its
        label knobs equal the entry's; only the others run k-means, and
        a model relabelled from a cached entry is served, not cached.
        The first clean k-means of a group that solved here builds the
        entry and caches it — unless a fault fired anywhere on its path
        (the taint rule).
        """
        hit = resident = entry is not None
        entry_timings = None
        if hit:
            embedding, theta = entry.embedding, entry.eigenvalues
            base_timings, base_resil = StageTimings(), {}
        elif solve is not None:
            solve_unit, theta, embedding, base_timings, base_resil = solve
        else:
            return  # the group never produced an embedding
        for req in members:
            if req.request_id in dead:
                continue
            if entry is not None and same_labels(entry.config, req.config):
                serve(
                    req, entry, entry_unit,
                    StageTimings() if hit else entry_timings, {}, hit,
                    resident,
                )
                continue
            after = entry_unit if hit else solve_unit
            unit = self.scheduler.run(
                f"{tag}:kmeans[{req.request_id}]",
                ready_at=max(ready_at, after.end) if after else ready_at,
                fn=self._scoped(req, self._kmeans_fn(req, embedding)),
                # the canonical preemption victim: a deadline predict may
                # suspend it at a Lloyd-iteration boundary or jump in
                # front of it before it starts
                preemptible=True,
                depends_on=(after,) if after else (),
            )
            if not unit.ok:
                failed(req, unit.error, unit)
                continue
            km, km_timings, km_resil = unit.take()
            timings = StageTimings(
                simulated={**base_timings.simulated, **km_timings.simulated},
                wall={**base_timings.wall, **km_timings.wall},
            )
            resilience = {**base_resil, **km_resil}
            if hit:
                model = entry.relabeled(req.config, km, resilience)
            else:
                model = FittedSpectralModel.from_stages(
                    req.config, km, theta, embedding, op.kept, op.n_total,
                    degrees=op.deg_kept, graph=op.graph, points=op.points,
                    resilience=resilience,
                )
            if entry is None and not resilience:
                # the group's first clean labels become its entry
                entry, entry_unit, entry_timings = model, unit, timings
                resident = self._cache_put(key, model, unit)
            serve(
                req, model, unit, timings, resilience, hit,
                resident and model is entry,
            )

    # ------------------------------------------------------------------
    # unit builders (arithmetic identical to SpectralClustering.fit)
    # ------------------------------------------------------------------
    def _build_fn(self, leader: ClusterRequest, keep_graph: bool):
        graph, X, edges = self._resolve(leader)
        est = leader.estimator()
        policy = leader.policy()

        def run(dev) -> _OperatorBuild:
            timings = StageTimings()
            resil: dict = {}
            dcoo, n_total, kept, graph_host = est._similarity_stage(
                dev, policy, X, edges, graph, timings, resil,
                keep_graph=keep_graph,
            )
            try:
                dcsr, shift, deg_kept = est._operator_stage(
                    dev, policy, dcoo, timings, resil
                )
            finally:
                dcoo.free()
            return _OperatorBuild(
                dcsr=dcsr, shift=shift, deg_kept=deg_kept, kept=kept,
                n_total=n_total, graph=graph_host, points=X,
                timings=timings, resilience=resil,
            )

        return run

    def _solve_fn(self, leader: ClusterRequest, op: _OperatorBuild):
        est = leader.estimator()
        policy = leader.policy()

        def run(dev):
            """``(eigenvalues, embedding, timings, resilience)``, the
            timings and resilience folding in the shared build's."""
            timings = StageTimings()
            resil: dict = {}
            theta, embedding, _stats = est._eigensolver_stage(
                dev, policy, op.dcsr, op.shift, op.deg_kept, timings, resil,
                free_operator=False,
            )
            timings.simulated = {**op.timings.simulated, **timings.simulated}
            timings.wall = {**op.timings.wall, **timings.wall}
            return theta, embedding, timings, {**op.resilience, **resil}

        return run

    def _kmeans_fn(self, req: ClusterRequest, embedding: np.ndarray):
        est = req.estimator()
        policy = req.policy()

        def run(dev):
            timings = StageTimings()
            resil: dict = {}
            km = est._kmeans_stage(dev, policy, embedding, timings, resil)
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
        """Serve one fast-lane predict: its fit's entry → Nyström.

        The predict bypasses the admission queue and the batcher; its
        units dispatch with ``ready_at = arrival`` so an idle stream
        picks them up immediately, even while a fit batch holds the
        other lanes.  Its fit is a group of one through
        :meth:`_serve_groups`, the path a fit batch takes: a miss runs
        the operator build, the eigensolve and the k-means as units of
        their own, each preemptible, and the Nyström unit waits for the
        one that made its model.  A fit parameterization with no Nyström
        extension fails at arrival, before any unit runs.
        """
        fit = preq.fit
        try:
            if not has_nystrom(fit.config):
                raise ClusteringError(NO_NYSTROM)
            key = fit.embedding_key(self._fingerprint_of(fit))
        except ReproError as err:
            self._fail_predict(responses, preq, err, preq.arrival)
            return

        # the fit's units run under the fit spec's chaos plan if it has
        # one; else under the predict's, which its Nyström unit continues
        member = replace(
            fit, request_id=preq.request_id,
            chaos=preq.chaos if fit.chaos is None else fit.chaos,
        )
        served = []
        self._serve_groups(
            f"predict[{preq.request_id}]", preq.arrival, [member],
            {key: [member]},
            lambda *labels: served.append(labels),
            lambda _req, err, end: self._fail_predict(
                responses, preq, err, end
            ),
            preemptible=True,
        )
        if fit.chaos is not None:
            # the Nyström unit runs under the predict's own plan
            self._plans.pop(preq.request_id, None)
        if not served:
            return  # the failure is written once the schedule is final
        _, model, after, _, resilience, hit, keep_basis = served[0]
        ready = preq.arrival
        if after is not None:
            # retired before its end is read, so no later preemption can
            # move it
            self.scheduler.retire(after)
            ready = max(ready, after.end)
        try:
            payload = self._predict_payload(preq, model)
        except ReproError as err:
            self._fail_predict(responses, preq, err, ready)
            return

        unit = self.scheduler.run(
            f"predict[{preq.request_id}]",
            ready_at=ready,
            fn=self._scoped(
                preq, self._predict_fn(preq, model, payload, keep_basis)
            ),
            priority=preq.priority,
            deadline=preq.deadline,
            # a predict with no deadline is a final-stage unit: nothing
            # reads its times until response finalization, so an urgent
            # deadline predict may jump the queue ahead of it
            preemptible=preq.deadline is None,
        )

        def _finish(u=unit, r=preq, rs=resilience):
            if not u.ok:
                self._fail_predict(responses, r, u.error, u.end)
                return
            pres = u.take()
            responses[r.request_id] = PredictResponse(
                request_id=r.request_id,
                status=STATUS_OK,
                labels=pres.labels,
                embedding=pres.embedding,
                model_hit=hit,
                cold_fit=not hit,
                ledger_ok=pres.ledger_ok,
                n_new=pres.n_new,
                arrival=r.arrival,
                start=u.start,
                completed=u.end,
                deadline=r.deadline,
                priority=r.priority,
                # the recovery record of the fit or k-means run for this
                # predict rides along: it explains why the model was
                # (not) cached and flags the response degraded
                resilience={**rs, **pres.resilience},
            )

        if preq.deadline is None:
            # the placement may still shift under later preemptions —
            # finalize once the schedule is settled
            self._deferred.append(_finish)
        else:
            _finish()

    def _predict_fn(
        self, preq: PredictRequest, model, payload: dict, keep_basis: bool
    ):
        policy = preq.policy()

        def run(dev):
            return model.predict(
                device=dev, policy=policy, keep_basis=keep_basis, **payload
            )

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
    responses: list,
    requests: list,
) -> list[str]:
    """Check every ok response against a cold single-request fit.

    Re-runs each served fit request — and the fit behind each served
    predict — through ``SpectralClustering.fit`` on a fresh device.  A
    fit's labels and embedding must equal the cold run's bit for bit; a
    predict's must equal the cold model's host-path predict on the same
    payload.  Returns human-readable mismatch lines (empty = verified).
    Requests that failed or were rejected in the service are skipped, as
    are chaos requests (a cold run replays the same fault schedule from a
    different site sequence, so recovery paths may legitimately differ).
    One cold fit serves every response whose fit has the same workload
    content and the same config.
    """
    by_id = {r.request_id: r for r in requests}
    service = ClusterService()  # fresh resolver for cold runs
    colds: dict[tuple, object] = {}
    problems: list[str] = []
    for resp in responses:
        if not resp.ok:
            continue
        req = by_id[resp.request_id]
        fit = req.fit if isinstance(req, PredictRequest) else req
        if req.chaos is not None or fit.chaos is not None:
            continue
        spec = (service._fingerprint_of(fit), fit.config)
        if spec not in colds:
            graph, X, edges = service._resolve(fit)
            est = fit.estimator()
            colds[spec] = (
                est.fit(graph=graph) if graph is not None
                else est.fit(X=X, edges=edges)
            )
        cold = colds[spec]
        if isinstance(req, PredictRequest):
            payload = service._predict_payload(req, cold.model)
            cold = cold.model.predict(**payload)
            hit = f"model_hit={resp.model_hit}"
        else:
            hit = f"cache_hit={resp.cache_hit}"
        if not np.array_equal(cold.labels, resp.labels):
            problems.append(
                f"{resp.request_id}: labels differ from cold run ({hit})"
            )
        if not np.array_equal(cold.embedding, resp.embedding):
            problems.append(
                f"{resp.request_id}: embedding differs from cold run ({hit})"
            )
    return problems
