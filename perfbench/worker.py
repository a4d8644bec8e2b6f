"""One workload in one fresh process: set-up, warm-up, timed ops, checks.

Started by ``run.py`` with the environment it pins (one BLAS/OpenMP
thread, fixed hash seed, ``PYTHONPATH=src``); prints one JSON object on
its last line of standard output.  Not meant to be run by hand.

Modes
-----
``--setup-only``  time the set-up (import + input generation) and exit.
``--record``      run a single op and print its digest and ARI.
default           warm-up op, then timed ops for ``--seconds``; with
                  ``--trace 1`` the second half of the time runs traced.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: the worker stays on one CPU: op-to-op wall noise on a 2-vCPU VM fell
#: from 12-14% to 5-9% (coefficient of variation over six serve replays)
#: once the process stopped migrating between CPUs
PINNED_CPU = max(os.sched_getaffinity(0))
#: below this many timed ops a run keeps going past ``--seconds``
MIN_OPS = 3


def _op_or_failure(wl, inputs, seed):
    """Run one op; an exception counts as a failed op, never aborts."""
    from workloads import Op

    gc.collect()  # every op starts from the same collector state
    try:
        return wl.run(inputs, seed)
    except Exception:  # the op boundary: record and keep measuring
        traceback.print_exc(file=sys.stderr)
        return Op(wall_s=float("nan"), modeled_s=float("nan"), digest="",
                  ari=float("nan"), failed=1, problems=["op raised"])


def _timed_ops(wl, inputs, seed, seconds, min_ops, tracer=None):
    """Closed loop: the next op starts when the previous one returns."""
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = f"op{len(ops)}"
        ops.append(_op_or_failure(wl, inputs, seed))
    return ops


def _check(ops, expected) -> list[str]:
    """Cross-op identity and the recorded digest/ARI; one line per issue."""
    problems = []
    digests = {op.digest for op in ops if op.digest}
    if len(digests) > 1:
        problems.append(f"label digests differ across ops: {sorted(digests)}")
    if expected is not None:
        for i, op in enumerate(ops):
            if op.digest and op.digest != expected["digest"]:
                problems.append(f"op {i}: digest {op.digest[:12]} != recorded "
                                f"{expected['digest'][:12]}")
            if op.digest and op.ari != expected["ari"]:
                problems.append(f"op {i}: ari {op.ari!r} != recorded "
                                f"{expected['ari']!r}")
    return problems


def _expected(workload: str, seed: int):
    path = HERE / "expected.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    os.sched_setaffinity(0, {PINNED_CPU})
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # the set-up is traced for load_dataset
    inputs = wl.setup(args.seed)
    if tracer is not None:
        tracer.restore()
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.record:
        op = wl.run(inputs, args.seed)
        print(json.dumps({"digest": op.digest, "ari": op.ari,
                          "failed": op.failed, "problems": op.problems}))
        return 0

    warm = _op_or_failure(wl, inputs, args.seed)
    if tracer is None:
        ops = _timed_ops(wl, inputs, args.seed, args.seconds, MIN_OPS)
    else:  # the untraced half is the baseline of the tracing overhead
        ops = _timed_ops(wl, inputs, args.seed, args.seconds / 2, 1)
    out: dict = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}

    traced = []
    if tracer is not None:
        tracer.install()
        try:
            traced = _timed_ops(wl, inputs, args.seed, args.seconds / 2, 1,
                                tracer=tracer)
        finally:
            tracer.restore()
        traced_ops = [f"op{i}" for i in range(len(traced))]
        layer = per_layer_metrics(tracer, traced_ops)
        done = [op for op in traced if op.layer]
        for key in done[0].layer if done else ():
            layer[key] = statistics.fmean(op.layer[key] for op in done)
        layer["trace.overhead_ratio"] = (
            statistics.median(op.wall_s for op in traced)
            / statistics.median(op.wall_s for op in ops)
        )
        out["per_layer"] = layer
        out["n_spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
    elif hasattr(wl, "max_rps_at_slo"):
        rps, steps = wl.max_rps_at_slo(args.seed, ops[0].meets_slo)
        out["max_rps_at_slo"] = rps
        out["rps_search"] = steps

    checked = [warm] + ops + traced
    expected = _expected(args.workload, args.seed)
    problems = _check(checked, expected)
    for op in checked:
        problems.extend(op.problems)
    attempted = sum(op.attempted for op in checked)
    failed = sum(op.failed for op in checked)
    if problems and not failed:
        # a cross-op or recorded-value mismatch fails every op of the run
        failed = attempted
    out.update({
        "ops": [asdict(op) for op in ops],
        "warmup_wall_s": warm.wall_s,
        "traced_wall_s": [op.wall_s for op in traced],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "recorded": expected is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu": PINNED_CPU,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
