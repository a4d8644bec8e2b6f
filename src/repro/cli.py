"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Cluster one Table II workload with the hybrid pipeline and print the
    stage timings + quality.
``compare``
    The three-column CUDA/Matlab/Python comparison (Tables III-VI layout)
    with the paper-scale projection.
``serve``
    Replay (or synthesize) a request trace through the clustering
    service: micro-batching, model cache, multi-stream scheduling.
``datasets``
    List the registered workloads with paper-scale statistics.
"""

from __future__ import annotations

import argparse
import json
import sys


def _emit_json(payload: dict, dest: str) -> None:
    """Write a JSON payload to a path, or to stdout when dest is '-'."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_datasets(_args) -> int:
    from repro.datasets.registry import DATASETS, PAPER_STATS

    print(f"{'name':<10}{'paper nodes':>12}{'paper edges':>12}{'clusters':>10}")
    print("-" * 44)
    for name in sorted(DATASETS):
        s = PAPER_STATS[name]
        print(f"{name:<10}{s['nodes']:>12}{s['edges']:>12}{s['clusters']:>10}")
    return 0


def _load_workload(args):
    """Resolve the dataset argument: a registry name or an ``.npz`` path."""
    if str(args.dataset).endswith(".npz"):
        from repro.datasets.io import load_problem

        return load_problem(args.dataset)
    from repro.datasets.registry import load_dataset

    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _cmd_run(args) -> int:
    from repro.chaos.retry import DISABLED
    from repro.core.pipeline import SpectralClustering
    from repro.metrics.external import adjusted_rand_index

    ds = _load_workload(args)
    k = args.clusters if args.clusters else ds.n_clusters
    sc = SpectralClustering(
        n_clusters=k, eig_tol=args.tol, seed=args.seed,
        devices=args.devices,
        precision=args.precision, embedding=args.embedding,
        filter_order=args.filter_order, n_signals=args.n_signals,
        sample_frac=args.sample_frac,
        chaos=args.chaos,
        resilience=DISABLED if args.no_resilience else None,
    )
    if ds.points is not None:
        res = sc.fit(X=ds.points, edges=ds.edges)
    else:
        res = sc.fit(graph=ds.graph)
    ari = None
    if ds.labels is not None and k == ds.n_clusters:
        ari = adjusted_rand_index(res.labels, ds.labels)
    labels_path = None
    if args.labels_out:
        import numpy as np

        labels_path = args.labels_out
        np.save(labels_path, res.labels)
    if args.json:
        payload = {
            "dataset": str(args.dataset),
            "scale": args.scale,
            "seed": args.seed,
            "n_clusters": int(res.n_clusters),
            "n_nodes": int(res.labels.size),
            "n_kept": int(res.kept.size),
            "labels_path": labels_path,
            "timings": {
                "simulated_s": dict(res.timings.simulated),
                "wall_s": dict(res.timings.wall),
                "total_simulated_s": res.timings.total_simulated(),
            },
            "profile": {
                "communication_s": res.profile.communication,
                "computation_s": res.profile.computation,
                "kernel_launches": res.profile.kernel_launches,
                "allocator": dict(res.profile.allocator),
                "transfers": dict(res.profile.transfers),
            },
            "eig_stats": dict(res.eig_stats),
            "resilience": {
                "stages": dict(res.resilience),
                "degraded_stages": list(res.degraded_stages),
                "fault_events_fired": len(res.fault_events),
            },
            "ari": ari,
        }
        _emit_json(payload, args.json)
        if args.json != "-":
            print(f"wrote {args.json}")
    else:
        print(res.summary())
        if ari is not None:
            print(f"ARI vs ground truth: {ari:.3f}")
        if labels_path:
            print(f"labels written to {labels_path}")
    return 0


def _cmd_serve(args) -> int:
    from repro.errors import ServiceError
    from repro.serve import (
        ClusterService,
        PredictResponse,
        ServiceConfig,
        read_trace,
        synthetic_predict_trace,
        synthetic_trace,
        verify_against_cold,
        write_trace,
    )

    if bool(args.trace) == bool(args.synthetic):
        raise ServiceError("provide exactly one of --trace FILE or "
                           "--synthetic N")
    if args.workload_mix is not None and not 0.0 <= args.workload_mix <= 1.0:
        raise ServiceError(
            f"--workload-mix must be in [0, 1], got {args.workload_mix}"
        )
    if args.trace:
        requests = read_trace(args.trace)
    elif args.workload_mix is not None:
        requests = synthetic_predict_trace(
            n_requests=args.synthetic,
            predict_fraction=args.workload_mix,
            mean_interarrival=args.mean_interarrival,
            chaos_every=args.chaos_every,
            seed=args.seed,
        )
    else:
        requests = synthetic_trace(
            n_requests=args.synthetic,
            mean_interarrival=args.mean_interarrival,
            chaos_every=args.chaos_every,
            seed=args.seed,
        )
    if args.emit_trace:
        write_trace(requests, args.emit_trace)
        print(f"trace written to {args.emit_trace}", file=sys.stderr)

    service = ClusterService(ServiceConfig(
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        n_devices=args.devices,
        streams_per_device=args.streams,
        cache_entries=args.cache_capacity,
        preemption=not args.no_preemption,
        cache_dir=args.cache_dir,
    ))
    responses, report = service.process(requests)

    verification = None
    if args.verify_cold:
        problems = verify_against_cold(responses, requests)
        verification = {"checked": True, "mismatches": problems}
        if problems:
            for line in problems:
                print(f"verify-cold MISMATCH: {line}", file=sys.stderr)
        else:
            print("verify-cold: all served responses bit-identical to "
                  "cold runs", file=sys.stderr)

    if args.json:
        import hashlib

        import numpy as np

        def labels_sha256(r):
            # a content digest of the label vector, so two processes (a
            # cold and a disk-warm run) can assert bit-identity without
            # shipping the arrays
            if getattr(r, "labels", None) is None:
                return None
            return hashlib.sha256(
                np.ascontiguousarray(r.labels).tobytes()
            ).hexdigest()

        payload = report.as_dict()
        payload["responses"] = [
            {
                "request_id": r.request_id,
                "status": r.status,
                "kind": "predict",
                "model_hit": r.model_hit,
                "cold_fit": r.cold_fit,
                "ledger_ok": r.ledger_ok,
                "deadline_met": r.deadline_met,
                "latency_s": r.latency,
                "service_s": r.service_time,
                "labels_sha256": labels_sha256(r),
                "error": r.error,
            }
            if isinstance(r, PredictResponse) else
            {
                "request_id": r.request_id,
                "status": r.status,
                "cache_hit": r.cache_hit,
                "batch_id": r.batch_id,
                "batch_size": r.batch_size,
                "queue_wait_s": r.queue_wait,
                "latency_s": r.latency,
                "labels_sha256": labels_sha256(r),
                "error": r.error,
            }
            for r in responses
        ]
        if verification is not None:
            payload["verification"] = verification
        _emit_json(payload, args.json)
        if args.json != "-":
            print(f"wrote {args.json}")
    else:
        print(report.format_report())
    return 1 if (verification and verification["mismatches"]) else 0


def _cmd_compare(args) -> int:
    from repro.bench.report import format_comparison, format_paper_check
    from repro.bench.runner import run_comparison

    r = run_comparison(
        args.dataset, scale=args.scale, seed=args.seed, eig_tol=args.tol
    )
    print(format_comparison(r))
    print()
    print(format_paper_check(r))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.core.config import PIPELINE_EMBEDDINGS, PRECISIONS

    p = argparse.ArgumentParser(
        prog="repro",
        description="fastsc-py: hybrid CPU-GPU spectral clustering (simulated)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list Table II workloads").set_defaults(
        fn=_cmd_datasets
    )

    def common(sp):
        sp.add_argument(
            "dataset",
            help="a registered workload (dti, fb, dblp, syn200) or the "
            "path of an .npz problem file written by save_problem",
        )
        sp.add_argument("--scale", type=float, default=0.05,
                        help="workload size relative to the paper (default 0.05)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="eigensolver tolerance")

    run_p = sub.add_parser("run", help="cluster one workload")
    common(run_p)
    run_p.add_argument("--clusters", type=int, default=0,
                       help="override the dataset's cluster count")
    run_p.add_argument("--devices", type=int, default=1,
                       help="simulated devices the embedding solve is "
                       "sharded over (nnz-balanced row blocks); k-means runs "
                       "on the primary device and results match --devices 1")
    run_p.add_argument("--precision", default="fp64",
                       choices=PRECISIONS,
                       help="eigensolver storage precision; reduced modes "
                       "accumulate in fp64 and finish with fp64 iterative "
                       "refinement (fp64 stays bit-identical)")
    run_p.add_argument("--embedding", default="lanczos",
                       choices=PIPELINE_EMBEDDINGS,
                       help="spectral embedding algorithm: full IRLM, the "
                       "block power iteration (pure repeated SpMM), or the "
                       "compressive tier (Chebyshev graph filtering of "
                       "random signals + downsampled k-means)")
    run_p.add_argument("--filter-order", type=int, default=None,
                       metavar="P",
                       help="compressive: Chebyshev polynomial degree "
                       "(default 48)")
    run_p.add_argument("--n-signals", type=int, default=None, metavar="D",
                       help="compressive: random-signal sketch width "
                       "(default 2k + O(log k))")
    run_p.add_argument("--sample-frac", type=float, default=None,
                       metavar="F",
                       help="compressive: fraction of vertices k-means "
                       "sees before the label lift (default "
                       "O(k log k / n), capped at 1)")
    run_p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="inject a deterministic fault schedule derived "
                       "from SEED (see repro.chaos)")
    run_p.add_argument("--no-resilience", action="store_true",
                       help="let injected faults propagate instead of "
                       "retrying/degrading/falling back")
    run_p.add_argument("--json", metavar="PATH",
                       help="write a machine-readable result (per-stage "
                       "timings, resilience summary) to PATH, or '-' for "
                       "stdout")
    run_p.add_argument("--labels-out", metavar="PATH",
                       help="save the label vector to PATH as .npy")
    run_p.set_defaults(fn=_cmd_run)

    srv_p = sub.add_parser(
        "serve", help="replay a request trace through the clustering service"
    )
    srv_p.add_argument("--trace", metavar="FILE",
                       help="JSONL request trace to replay")
    srv_p.add_argument("--synthetic", type=int, default=0, metavar="N",
                       help="generate a synthetic N-request trace instead")
    srv_p.add_argument("--workload-mix", type=float, default=None,
                       metavar="FRAC",
                       help="with --synthetic: generate a predict-heavy "
                       "trace where FRAC of the requests are out-of-sample "
                       "predicts served from cached fitted models (e.g. "
                       "0.9 = 90%% predicts, 10%% fits)")
    srv_p.add_argument("--emit-trace", metavar="PATH",
                       help="also write the replayed trace to PATH (JSONL)")
    srv_p.add_argument("--mean-interarrival", type=float, default=0.002,
                       help="synthetic mean inter-arrival gap in simulated "
                       "seconds (default 0.002)")
    srv_p.add_argument("--chaos-every", type=int, default=0, metavar="N",
                       help="arm every Nth synthetic request with a fault "
                       "seed (0 = no chaos)")
    srv_p.add_argument("--seed", type=int, default=0,
                       help="synthetic trace generator seed")
    srv_p.add_argument("--devices", type=int, default=1,
                       help="simulated devices in the pool (default 1)")
    srv_p.add_argument("--streams", type=int, default=2,
                       help="streams per device (default 2)")
    srv_p.add_argument("--queue-capacity", type=int, default=64,
                       help="admission queue bound (default 64)")
    srv_p.add_argument("--max-batch", type=int, default=8,
                       help="micro-batch size cap (default 8)")
    srv_p.add_argument("--cache-capacity", type=int, default=32,
                       help="model cache entries, 0 disables (default 32)")
    srv_p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persist the embedding/model cache to DIR so a "
                       "restarted service warms from disk (default: "
                       "in-process only)")
    srv_p.add_argument("--no-preemption", action="store_true",
                       help="disable EDF preemption at stage boundaries "
                       "(deadlines become observational, as before)")
    srv_p.add_argument("--verify-cold", action="store_true",
                       help="re-run every served request cold and assert "
                       "bit-identical labels and embeddings")
    srv_p.add_argument("--json", metavar="PATH",
                       help="write the service report (+ per-request facts) "
                       "to PATH, or '-' for stdout")
    srv_p.set_defaults(fn=_cmd_serve)

    cmp_p = sub.add_parser("compare", help="CUDA vs Matlab vs Python columns")
    common(cmp_p)
    cmp_p.set_defaults(fn=_cmd_compare)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
