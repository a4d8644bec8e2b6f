#!/usr/bin/env python
"""Bench-regression gate: one table of gates over ``BENCH_regression.json``.

Compares a freshly generated ``BENCH_regression.json`` against the
committed baseline and exits 1 if any row of ``GATES`` fails.  A row is
``(path, kind)`` or ``(path, kind, bar)``:

``path``
    A dotted path into the current record.  A ``*`` segment expands over
    the *baseline's* keys at that level, so a dataset, cell, config or
    workload missing from the current record fails like any other
    missing field.  A ``{path}`` segment is the key stored at that path
    of the current record.
``kind``
    ``same``: equal to the baseline (the simulation is deterministic, so
    quality drift is a bug, not noise).  ``creep``: at most baseline ×
    (1 + ``--rel-tol``), checked only where the baseline is > 0, so
    improvements always pass.  ``true``: is ``True``.  ``equals``,
    ``at_least``, ``at_most``, ``above``: ``==``, ``>=``, ``<=``, ``>``
    the bar.
``bar``
    A constant, a path into the current record (the bars each bench
    writes next to its results) or a pair of paths whose values
    multiply.  The ``*`` segments of a bar path take the keys that the
    row path's ``*`` segments took, in order.

A gated field or bar missing from a record is a named failure.
Re-baseline by committing the new file after an intentional cost-model
change.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json [--rel-tol 0.05]
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter

_COMPRESSIVE_DEFAULT = (
    "compressive_ablation.datasets.*.cells"
    ".{compressive_ablation.default_cell}.ari"
)

GATES = (
    # the paper's Tables III-VII, one entry per bench dataset
    ("datasets.*.communication_s", "creep"),
    ("datasets.*.total_simulated_s", "creep"),
    ("datasets.*.ari_cuda", "same"),
    # host memory of Algorithm 1's edge gather (blocked, not whole-launch)
    ("datasets.dti.similarity_host_peak_bytes", "creep"),
    # host memory of Algorithm 3's Lanczos basis (one copy per restart)
    ("datasets.dti.eigensolver_host_peak_bytes", "creep"),
    # host memory of one point-input fit (late anchor copy, reserved ELL)
    ("datasets.dti.fit_host_peak_bytes", "creep"),
    # micro-batched serving against one-at-a-time
    ("serve.speedup", "at_least", 2.0),
    # a finished replay is freed by reference counting
    ("serve.cyclic_garbage_objects", "equals", 0),
    # predict fast path
    ("serve_predict.throughput_win", "at_least",
     "serve_predict.min_throughput_win"),
    ("serve_predict.warm_cold_ratio", "at_least",
     "serve_predict.min_warm_cold_ratio"),
    ("serve_predict.ledger_mismatches", "equals", 0),
    ("serve_predict.refit_parity.*.labels_bit_identical", "true"),
    ("serve_predict.warm_predict_p50_s", "creep"),
    # deadline-driven serving: preemption and the persistent cache
    ("serve_deadline.preemption.deadline_misses_baseline", "above", 0),
    ("serve_deadline.preemption.miss_reduction", "at_least",
     "serve_deadline.preemption.min_miss_reduction"),
    ("serve_deadline.preemption.throughput_ratio", "at_least",
     "serve_deadline.preemption.min_throughput_ratio"),
    ("serve_deadline.preemption.labels_bit_identical", "true"),
    ("serve_deadline.persistence.cold_fits_restarted", "equals", 0),
    ("serve_deadline.persistence.labels_bit_identical", "true"),
    ("serve_deadline.persistence.disk_bytes_written_first", "same"),
    # k-means knob ablation
    ("kmeans_ablation.bit_identical", "true"),
    ("kmeans_ablation.combos.*.total_simulated_s", "creep"),
    ("kmeans_ablation.speedup_default_vs_baseline", "above", 1.0),
    # sharded eigensolver
    ("multigpu_eig.bit_identical", "true"),
    ("multigpu_eig.workloads.*.configs.*.eig_simulated_s", "creep"),
    ("multigpu_eig.workloads.*.configs.2.speedup_vs_1dev", "above", 1.0),
    # mixed-precision tolerance bands
    ("precision_ablation.fp64_bit_identical", "true"),
    ("precision_ablation.datasets.*.cells.*.spmv_bytes", "creep"),
    ("precision_ablation.datasets.*.cells.fp32_lanczos.ari_vs_exact",
     "at_least", "precision_ablation.datasets.*.bands.fp32"),
    ("precision_ablation.datasets.*.cells.fp16_lanczos.ari_vs_exact",
     "at_least", "precision_ablation.datasets.*.bands.fp16"),
    ("precision_ablation.datasets.*.cells.fp32_lanczos.refine_residual",
     "at_most", "precision_ablation.residual_floors.fp32"),
    ("precision_ablation.datasets.*.cells.fp16_lanczos.refine_residual",
     "at_most", "precision_ablation.residual_floors.fp16"),
    ("precision_ablation.datasets.*.cells.fp32_lanczos"
     ".byte_reduction_vs_fp64",
     "at_least", "precision_ablation.min_fp32_byte_reduction"),
    # compressive ARI tiers and byte ledgers
    ("compressive_ablation.fp32_ledger_ok", "true"),
    ("compressive_ablation.datasets.*.cells.*.total_simulated_s", "creep"),
    ("compressive_ablation.datasets.*.cells.*.ledger_ok", "true"),
    (_COMPRESSIVE_DEFAULT, "at_least",
     ("compressive_ablation.min_ari_ratio_vs_exact",
      "compressive_ablation.datasets.*.ari_exact")),
    (_COMPRESSIVE_DEFAULT, "at_least",
     "compressive_ablation.datasets.*.ari_floor"),
    ("compressive_ablation.large.n", "at_least",
     "compressive_ablation.large.min_n"),
    ("compressive_ablation.large.ari", "at_least",
     "compressive_ablation.large.ari_floor"),
    ("compressive_ablation.large.total_simulated_s", "at_most",
     "compressive_ablation.large.sim_budget_s"),
    ("compressive_ablation.large.total_simulated_s", "creep"),
    ("compressive_ablation.large.ledger_ok", "true"),
    # whole-fit multi-device composition
    ("topology_composition.bit_identical", "true"),
    ("topology_composition.sharded.total_s", "creep"),
    ("topology_composition.partitions.*.step_halo_bytes", "creep"),
)

#: kind -> (holds(value, bar), the comparison a failure prints)
KINDS = {
    "same": (lambda v, b: v == b, "=="),
    "creep": (lambda v, b: v <= b, "<="),
    "true": (lambda v, b: v is True, "is"),
    "equals": (lambda v, b: v == b, "=="),
    "at_least": (lambda v, b: v >= b, ">="),
    "at_most": (lambda v, b: v <= b, "<="),
    "above": (lambda v, b: v > b, ">"),
}

_SEGMENT = re.compile(r"\{[^}]*\}|[^.]+")


class _Missing(Exception):
    """A field a gate reads is absent from one of the records."""


def _lookup(record: dict, path: str, which: str):
    node = record
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise _Missing(f"{path}: missing from the {which} record")
        node = node[key]
    return node


def _expand(baseline: dict, current: dict, path: str) -> list:
    """``(concrete path, keys taken by the *s)`` for each instance."""
    instances = [("", ())]
    for seg in _SEGMENT.findall(path):
        grown = []
        for prefix, stars in instances:
            if seg == "*":
                node = _lookup(baseline, prefix, "baseline")
                keys = sorted(node) if isinstance(node, dict) else ()
                grown += [(f"{prefix}.{k}", (*stars, k)) for k in keys]
                continue
            if seg.startswith("{"):
                seg = str(_lookup(current, seg[1:-1], "current"))
            grown.append((f"{prefix}.{seg}" if prefix else seg, stars))
        instances = grown
    return instances


def _bind(path: str, stars: tuple) -> str:
    keys = iter(stars)
    return ".".join(next(keys) if s == "*" else s for s in path.split("."))


def _check(baseline, current, rel_tol, where, kind, bar, stars):
    """The failure line of one gate instance, or None when it holds."""
    note = ""
    try:
        value = _lookup(current, where, "current")
        if kind in ("same", "creep"):
            old = _lookup(baseline, where, "baseline")
            bar = old
            note = " (the baseline's)"
            if kind == "creep":
                if not old > 0:
                    return None
                bar = old * (1.0 + rel_tol)
                note = f" (baseline {old!r} + {rel_tol:.0%})"
        elif kind == "true":
            bar = True
        elif isinstance(bar, (str, tuple)):
            paths = [_bind(p, stars) for p in (
                (bar,) if isinstance(bar, str) else bar
            )]
            bar = math.prod(_lookup(current, p, "current") for p in paths)
            note = f" ({' x '.join(paths)})"
    except _Missing as err:
        return str(err)
    holds, op = KINDS[kind]
    try:
        ok = holds(value, bar)
    except TypeError:
        ok = False
    return None if ok else f"{where} = {value!r} fails {op} {bar!r}{note}"


def evaluate(baseline: dict, current: dict, rel_tol: float):
    """Yield ``(path, failure or None)`` for every instance of every gate."""
    for path, kind, *bar in GATES:
        try:
            instances = _expand(baseline, current, path)
        except _Missing as err:
            yield path, str(err)
            continue
        for where, stars in instances:
            yield where, _check(
                baseline, current, rel_tol, where, kind,
                bar[0] if bar else None, stars,
            )


def compare(baseline: dict, current: dict, rel_tol: float) -> list[str]:
    """Return a list of human-readable failures (empty = gate passes)."""
    return [f for _, f in evaluate(baseline, current, rel_tol) if f]


def _rel_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("baseline", help="committed BENCH_regression.json")
    p.add_argument("current", help="freshly generated BENCH_regression.json")
    p.add_argument(
        "--rel-tol", type=_rel_tol, default=0.05,
        help="allowed fractional cost increase per metric (default 0.05)",
    )
    args = p.parse_args(argv)

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    results = list(evaluate(baseline, current, args.rel_tol))
    failures = [f for _, f in results if f]
    if failures:
        print("bench regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    for section, n in Counter(w.split(".")[0] for w, _ in results).items():
        print(f"{section:22s} {n:3d} gates ok")
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
