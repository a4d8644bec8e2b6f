"""Benchmark entry point: one workload per fresh process, both clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-dti --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --workload serve-mixed --seed 0 --trace 1
    python3 perfbench/run.py --record 0-31,1000               # refresh expected.json

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a traced run and writes
the spans to ``perfbench/out/``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up is timed in this many fresh processes (the worker's own + extra)
SETUP_SAMPLES = 4
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170
#: one thread everywhere: the op is driven by a single thread, and the
#: numbers do not depend on how many cores BLAS would grab.  glibc keeps
#: large temporaries on its heap instead of mapping fresh pages for each:
#: in a VM the page faults of those mappings cost a varying 10-40% of
#: the compressive op (368k minor faults per two ops, 3.7 s of system time).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "1073741824",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    "MALLOC_TOP_PAD_": "268435456",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str]) -> dict:
    """Run ``worker.py`` in a fresh process; return its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            timeout=WORKER_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S}s: {args}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {args}")
    return json.loads(lines[-1])


def _machine() -> dict:
    """Run metadata: core count, versions and a calibration loop.

    The calibration wall time normalizes wall metrics across machines;
    it is recorded beside each run, never reported as a metric.
    """
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def calibrate() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        a = np.arange(200_000, dtype=np.float64)
        for _ in range(50):
            a = np.sqrt(a * a + 1.0)
        return time.perf_counter() - t0

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "calibration_s": statistics.median(calibrate() for _ in range(5)),
        "pinned_env": PINNED_ENV,
    }


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError(f"{path.name} not found")
    return json.loads(path.read_text())


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(spec, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result object the command prints."""
    base = ["--workload", workload, "--seed", str(seed)]
    OUT.mkdir(exist_ok=True)
    setups = []
    if not trace:
        setups = [_worker(base + ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    res = _worker(base + [
        "--seconds", str(seconds), "--trace", str(trace),
        "--spans-out", str(spans_path),
    ])
    setups.append(res["setup_s"])

    ops = res["ops"]
    walls = [op["wall_s"] for op in ops]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s_p50": statistics.median(walls),
        "modeled_s": statistics.median(op["modeled_s"] for op in ops),
        "peak_rss_mb": res["peak_rss_mb"],
        "ari": statistics.median(op["ari"] for op in ops),
    }
    extra = {
        key: statistics.median(op["extra"][key] for op in ops)
        for key in ops[0]["extra"]
    }
    if "max_rps_at_slo" in res:
        extra["max_rps_at_slo"] = res["max_rps_at_slo"]
    extra["failed_frac"] = res["failed"] / res["attempted"]

    if trace:
        # a layer the workload never enters (serve on a fit) reports zero
        metrics = {m["name"]: _metric(res["per_layer"].get(m["name"], 0), m["unit"])
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: _metric(e2e[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }

    machine = _machine()
    _print_human(workload, seed, trace, res, setups, walls, metrics, extra, machine)
    record = {"result": result, "extra": extra, "machine": machine,
              "setup_samples": setups, "worker": res}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return result


def _print_human(workload, seed, trace, res, setups, walls, metrics, extra, machine):
    print(f"== {workload}  seed={seed}  trace={trace}  "
          f"ops={len(walls)} (+1 warm-up)  recorded_digest={res['recorded']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        print(f"  {'(workload-specific)':<40}")
        units = {"paper_log_err": "ratio", "modeled_latency_p50_s": "s",
                 "modeled_latency_p95_s": "s", "deadline_miss_frac": "ratio",
                 "max_rps_at_slo": "req/s", "failed_frac": "ratio",
                 "wait_first_quarter_s": "s", "wait_last_quarter_s": "s",
                 "generator_late_s": "s"}
        for name, value in extra.items():
            print(f"  {name:<40} {value:>16.6g} {units.get(name, '')}")
        print(f"  op walls (s): {', '.join(f'{w:.3f}' for w in walls)};"
              f" set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")
    else:
        print(f"  spans recorded: {res['n_spans']}; traced op walls (s): "
              f"{', '.join(f'{w:.3f}' for w in res['traced_wall_s'])}; "
              f"tracing overhead x{res['per_layer']['trace.overhead_ratio']:.3f}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']} "
          f"calibration_s={machine['calibration_s']:.4f} threads=1")


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(spec, seeds: list[int]) -> None:
    """Run one op per workload and seed; store digest and ARI."""
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for w in spec["workloads"]:
        slot = expected.setdefault(w["name"], {})
        for seed in seeds:
            res = _worker(["--workload", w["name"], "--seed", str(seed), "--record"])
            if res["failed"]:
                raise BenchError(f"{w['name']} seed {seed}: {res['problems']}")
            slot[str(seed)] = {"digest": res["digest"], "ari": res["ari"]}
            print(f"{w['name']} seed={seed} ari={res['ari']:.6f} "
                  f"digest={res['digest'][:16]}", flush=True)
            path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    os.environ.update(PINNED_ENV)  # before this process loads numpy
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS", default=None,
                    help="record digests for seeds like 0-31,1000 and exit")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").exists():
            raise BenchError(f"no repro package under {ROOT / 'src'}")
        spec = _spec()
        if args.record is not None:
            record(spec, _parse_seeds(args.record))
            return 0
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        correct = True
        for name in chosen:
            result = run_workload(spec, name, args.seed, seconds, args.trace)
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
