#!/usr/bin/env python
"""Bench-regression gate: fail CI when simulated costs creep upward.

Compares a freshly generated ``BENCH_regression.json`` against the
committed baseline and exits non-zero if ``communication_s`` or
``total_simulated_s`` regressed by more than the tolerance (default 5%)
on any dataset, or if clustering quality (``ari_cuda``) changed at all —
the simulation is deterministic, so quality drift is a bug, not noise.

Improvements (lower cost) always pass; re-baseline by committing the new
file after an intentional cost-model change.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json
"""

from __future__ import annotations

import argparse
import json
import sys

GATED_KEYS = ("communication_s", "total_simulated_s")


def compare(baseline: dict, current: dict, rel_tol: float) -> list[str]:
    """Return a list of human-readable failures (empty = gate passes)."""
    failures: list[str] = []
    base_ds = baseline.get("datasets", {})
    cur_ds = current.get("datasets", {})
    for name in sorted(base_ds):
        if name not in cur_ds:
            failures.append(f"{name}: dataset missing from current run")
            continue
        for key in GATED_KEYS:
            old = base_ds[name][key]
            new = cur_ds[name][key]
            if old > 0 and new > old * (1.0 + rel_tol):
                failures.append(
                    f"{name}.{key}: {old:.6g} -> {new:.6g} "
                    f"(+{(new / old - 1.0) * 100:.1f}%, tolerance "
                    f"{rel_tol * 100:.0f}%)"
                )
        old_ari = base_ds[name].get("ari_cuda")
        new_ari = cur_ds[name].get("ari_cuda")
        if old_ari is not None and new_ari != old_ari:
            failures.append(
                f"{name}.ari_cuda: {old_ari!r} -> {new_ari!r} "
                "(quality must be bit-identical)"
            )
    failures.extend(_compare_serve_predict(baseline, current, rel_tol))
    failures.extend(_compare_serve_deadline(baseline, current, rel_tol))
    failures.extend(_compare_kmeans_ablation(baseline, current, rel_tol))
    failures.extend(_compare_multigpu_eig(baseline, current, rel_tol))
    failures.extend(_compare_precision_ablation(baseline, current, rel_tol))
    failures.extend(_compare_compressive_ablation(baseline, current, rel_tol))
    failures.extend(_compare_topology_composition(baseline, current, rel_tol))
    return failures


def _compare_serve_predict(
    baseline: dict, current: dict, rel_tol: float
) -> list[str]:
    """Gate the predict fast path: the predict-heavy mix keeps its >=3x
    throughput win over the all-cold-fit baseline, warm predicts stay
    >=100x below cold fits at the median, every audited transfer ledger
    equals the device meter, delta refits stay bit-identical to cold
    fits on every bench dataset, and the warm predict p50 itself never
    creeps past the tolerance."""
    failures: list[str] = []
    base = baseline.get("serve_predict")
    cur = current.get("serve_predict")
    if base is None:
        return failures
    if cur is None:
        return ["serve_predict: section missing from current run"]
    win = cur.get("throughput_win")
    bar = cur.get("min_throughput_win", 3.0)
    if win is not None and win < bar:
        failures.append(
            f"serve_predict.throughput_win: {win:.3g}x fell below the "
            f">={bar}x win over the all-cold baseline"
        )
    ratio = cur.get("warm_cold_ratio")
    rbar = cur.get("min_warm_cold_ratio", 100.0)
    if ratio is not None and ratio < rbar:
        failures.append(
            f"serve_predict.warm_cold_ratio: warm predict p50 only "
            f"{ratio:.3g}x below cold-fit p50 (>= {rbar}x required)"
        )
    if cur.get("ledger_mismatches", 0) != 0:
        failures.append(
            f"serve_predict.ledger_mismatches: "
            f"{cur['ledger_mismatches']} predict transfer ledger(s) "
            "diverged from the device meter"
        )
    for name in sorted(base.get("refit_parity", {})):
        wl = cur.get("refit_parity", {}).get(name)
        if wl is None:
            failures.append(f"serve_predict.refit_parity.{name}: missing")
            continue
        if wl.get("labels_bit_identical") is not True:
            failures.append(
                f"serve_predict.refit_parity.{name}: delta refit labels "
                "diverged from a cold fit on the patched graph"
            )
    old_p50 = base.get("warm_predict_p50_s")
    new_p50 = cur.get("warm_predict_p50_s")
    if old_p50 and new_p50 and new_p50 > old_p50 * (1.0 + rel_tol):
        failures.append(
            f"serve_predict.warm_predict_p50_s: {old_p50:.6g} -> "
            f"{new_p50:.6g} (+{(new_p50 / old_p50 - 1.0) * 100:.1f}%, "
            f"tolerance {rel_tol * 100:.0f}%)"
        )
    return failures


def _compare_serve_deadline(
    baseline: dict, current: dict, rel_tol: float
) -> list[str]:
    """Gate the deadline-driven serving tier: preemption keeps cutting
    deadline misses >=30% against the observational baseline at equal
    throughput (within tolerance), placement rewrites stay bit-identical
    to FIFO arithmetic, and a restarted service keeps warming from disk
    with zero cold fits and bit-identical labels.  The persisted entry's
    size is a pure function of the entry, so the bytes the first process
    writes must equal the baseline's exactly."""
    failures: list[str] = []
    base = baseline.get("serve_deadline")
    cur = current.get("serve_deadline")
    if base is None:
        return failures
    if cur is None:
        return ["serve_deadline: section missing from current run"]
    pre = cur.get("preemption", {})
    reduction = pre.get("miss_reduction")
    bar = pre.get("min_miss_reduction", 0.30)
    if reduction is not None and reduction < bar:
        failures.append(
            f"serve_deadline.miss_reduction: preemption only cut "
            f"deadline misses {reduction:.0%} "
            f"({pre.get('deadline_misses_baseline')} -> "
            f"{pre.get('deadline_misses_preemptive')}; >= {bar:.0%} "
            "required)"
        )
    ratio = pre.get("throughput_ratio")
    rbar = pre.get("min_throughput_ratio", 0.95)
    if ratio is not None and ratio < rbar:
        failures.append(
            f"serve_deadline.throughput_ratio: preemption costs "
            f"{(1.0 - ratio) * 100:.1f}% throughput "
            f"(>= {rbar:.2f}x of the baseline required)"
        )
    if pre.get("labels_bit_identical") is not True:
        failures.append(
            "serve_deadline.preemption: labels diverged between the "
            "preemptive and observational schedules"
        )
    per = cur.get("persistence", {})
    if per.get("cold_fits_restarted", 1) != 0:
        failures.append(
            f"serve_deadline.persistence: restarted service paid "
            f"{per.get('cold_fits_restarted')} cold fit(s) instead of "
            "warming from disk"
        )
    if per.get("labels_bit_identical") is not True:
        failures.append(
            "serve_deadline.persistence: disk-warmed labels diverged "
            "from the first process"
        )
    old_bytes = base.get("persistence", {}).get("disk_bytes_written_first")
    new_bytes = per.get("disk_bytes_written_first")
    if old_bytes is not None and new_bytes != old_bytes:
        failures.append(
            f"serve_deadline.persistence.disk_bytes_written_first: "
            f"{old_bytes!r} -> {new_bytes!r} (the persisted entry size "
            "must be identical)"
        )
    return failures


def _compare_topology_composition(
    baseline: dict, current: dict, rel_tol: float
) -> list[str]:
    """Gate the multi-device fit: labels and spectra stay bit-identical
    at every device count, and neither the sharded makespan nor any
    workload's per-step halo bytes creep past the tolerance."""
    failures: list[str] = []
    base = baseline.get("topology_composition")
    cur = current.get("topology_composition")
    if base is None:
        return failures
    if cur is None:
        return ["topology_composition: section missing from current run"]
    if cur.get("bit_identical") is not True:
        failures.append(
            "topology_composition.bit_identical: device counts diverged "
            "(output must be bit-identical)"
        )
    old_t = base.get("sharded", {}).get("total_s")
    new_t = cur.get("sharded", {}).get("total_s")
    if old_t and new_t and new_t > old_t * (1.0 + rel_tol):
        failures.append(
            f"topology_composition.sharded.total_s: "
            f"{old_t:.6g} -> {new_t:.6g} "
            f"(+{(new_t / old_t - 1.0) * 100:.1f}%, tolerance "
            f"{rel_tol * 100:.0f}%)"
        )
    for name in sorted(base.get("partitions", {})):
        if name not in cur.get("partitions", {}):
            failures.append(f"topology_composition.{name}: workload missing")
            continue
        old = base["partitions"][name]["step_halo_bytes"]
        if isinstance(old, dict):
            # records from before the nnz partitioner became the only
            # one keep one entry per partition mode
            old = old["nnz"]
        new = cur["partitions"][name]["step_halo_bytes"]
        if old > 0 and new > old * (1.0 + rel_tol):
            failures.append(
                f"topology_composition.{name}.step_halo_bytes: "
                f"{old} -> {new} "
                f"(+{(new / old - 1.0) * 100:.1f}%, tolerance "
                f"{rel_tol * 100:.0f}%)"
            )
    return failures


def _compare_compressive_ablation(
    baseline: dict, current: dict, rel_tol: float
) -> list[str]:
    """Gate the compressive tier: the default cell stays inside its
    ARI band (>= the ratio bar x the exact-path ARI and >= the absolute
    per-dataset floor), byte ledgers stay exact (``ledger == meter``) in
    every cell, the n>=50k large cell stays under its modeled-time
    budget at quality, and no cell's modeled time creeps past the
    tolerance."""
    failures: list[str] = []
    base = baseline.get("compressive_ablation")
    cur = current.get("compressive_ablation")
    if base is None:
        return failures
    if cur is None:
        return ["compressive_ablation: section missing from current run"]
    if cur.get("fp32_ledger_ok") is not True:
        failures.append(
            "compressive_ablation.fp32_ledger_ok: analytic byte ledger "
            "diverged from the traffic meter at fp32"
        )
    ratio = cur.get("min_ari_ratio_vs_exact", 0.9)
    default_cell = cur.get("default_cell", "o48_dfull")
    for name in sorted(base.get("datasets", {})):
        if name not in cur.get("datasets", {}):
            failures.append(f"compressive_ablation.{name}: dataset missing")
            continue
        base_wl = base["datasets"][name]
        cur_wl = cur["datasets"][name]
        for cell in sorted(base_wl.get("cells", {})):
            if cell not in cur_wl.get("cells", {}):
                failures.append(
                    f"compressive_ablation.{name}.{cell}: cell missing"
                )
                continue
            old = base_wl["cells"][cell]["total_simulated_s"]
            new = cur_wl["cells"][cell]["total_simulated_s"]
            if old > 0 and new > old * (1.0 + rel_tol):
                failures.append(
                    f"compressive_ablation.{name}.{cell}"
                    f".total_simulated_s: {old:.6g} -> {new:.6g} "
                    f"(+{(new / old - 1.0) * 100:.1f}%, tolerance "
                    f"{rel_tol * 100:.0f}%)"
                )
            if cur_wl["cells"][cell].get("ledger_ok") is not True:
                failures.append(
                    f"compressive_ablation.{name}.{cell}: "
                    "byte ledger != traffic meter"
                )
        cell = cur_wl.get("cells", {}).get(default_cell)
        ari_exact = cur_wl.get("ari_exact")
        if cell is not None and ari_exact is not None:
            if cell["ari"] < ratio * ari_exact:
                failures.append(
                    f"compressive_ablation.{name}.{default_cell}: ARI "
                    f"{cell['ari']:.3f} fell below {ratio}x the exact "
                    f"path ({ari_exact:.3f})"
                )
            floor = cur_wl.get("ari_floor")
            if floor is not None and cell["ari"] < floor:
                failures.append(
                    f"compressive_ablation.{name}.{default_cell}: ARI "
                    f"{cell['ari']:.3f} below absolute floor {floor}"
                )
    lg = cur.get("large")
    if lg is None:
        failures.append("compressive_ablation.large: cell missing")
    else:
        if lg["n"] < lg.get("min_n", 50_000):
            failures.append(
                f"compressive_ablation.large: n {lg['n']} shrank below "
                f"the paper-scale floor {lg.get('min_n', 50_000)}"
            )
        if lg["ari"] < lg.get("ari_floor", 0.9):
            failures.append(
                f"compressive_ablation.large: ARI {lg['ari']:.3f} below "
                f"floor {lg.get('ari_floor', 0.9)}"
            )
        budget = lg.get("sim_budget_s")
        if budget is not None and lg["total_simulated_s"] > budget:
            failures.append(
                f"compressive_ablation.large: modeled time "
                f"{lg['total_simulated_s']:.4f}s over budget {budget}s"
            )
        old_lg = base.get("large")
        if old_lg is not None:
            old = old_lg["total_simulated_s"]
            new = lg["total_simulated_s"]
            if old > 0 and new > old * (1.0 + rel_tol):
                failures.append(
                    f"compressive_ablation.large.total_simulated_s: "
                    f"{old:.6g} -> {new:.6g} "
                    f"(+{(new / old - 1.0) * 100:.1f}%, tolerance "
                    f"{rel_tol * 100:.0f}%)"
                )
    return failures


def _compare_precision_ablation(
    baseline: dict, current: dict, rel_tol: float
) -> list[str]:
    """Gate the mixed-precision grid: the exact path stays bit-identical,
    every reduced Lanczos cell stays inside its tolerance band (ARI vs
    the exact labels >= the per-dataset band, refined residual <= the
    precision's floor), fp32 keeps its >=1.5x byte-traffic win on every
    dataset, and no cell's modeled byte traffic creeps past the
    tolerance."""
    failures: list[str] = []
    base = baseline.get("precision_ablation")
    cur = current.get("precision_ablation")
    if base is None:
        return failures
    if cur is None:
        return ["precision_ablation: section missing from current run"]
    if cur.get("fp64_bit_identical") is not True:
        failures.append(
            "precision_ablation.fp64_bit_identical: exact path diverged "
            "(fp64 lanczos must reproduce the default fit bit-for-bit)"
        )
    floors = cur.get("residual_floors", {})
    min_red = cur.get("min_fp32_byte_reduction", 1.5)
    for name in sorted(base.get("datasets", {})):
        if name not in cur.get("datasets", {}):
            failures.append(f"precision_ablation.{name}: dataset missing")
            continue
        base_wl = base["datasets"][name]
        cur_wl = cur["datasets"][name]
        bands = cur_wl.get("bands", {})
        for cell in sorted(base_wl.get("cells", {})):
            if cell not in cur_wl.get("cells", {}):
                failures.append(
                    f"precision_ablation.{name}.{cell}: cell missing"
                )
                continue
            old = base_wl["cells"][cell]["spmv_bytes"]
            new = cur_wl["cells"][cell]["spmv_bytes"]
            if old > 0 and new > old * (1.0 + rel_tol):
                failures.append(
                    f"precision_ablation.{name}.{cell}.spmv_bytes: "
                    f"{old:.6g} -> {new:.6g} "
                    f"(+{(new / old - 1.0) * 100:.1f}%, tolerance "
                    f"{rel_tol * 100:.0f}%)"
                )
        for precision in ("fp32", "fp16"):
            cell = cur_wl.get("cells", {}).get(f"{precision}_lanczos")
            if cell is None:
                continue
            band = bands.get(precision)
            if band is not None and cell["ari_vs_exact"] < band:
                failures.append(
                    f"precision_ablation.{name}.{precision}_lanczos: "
                    f"ari_vs_exact {cell['ari_vs_exact']:.3f} fell below "
                    f"band {band}"
                )
            floor = floors.get(precision)
            rres = cell.get("refine_residual")
            if floor is not None and rres is not None and rres > floor:
                failures.append(
                    f"precision_ablation.{name}.{precision}_lanczos: "
                    f"refined residual {rres:.3g} above floor {floor}"
                )
        fp32 = cur_wl.get("cells", {}).get("fp32_lanczos")
        if fp32 is not None and fp32["byte_reduction_vs_fp64"] < min_red:
            failures.append(
                f"precision_ablation.{name}: fp32 byte reduction "
                f"{fp32['byte_reduction_vs_fp64']:.3f}x lost the "
                f">={min_red}x win over fp64"
            )
    return failures


def _compare_multigpu_eig(
    baseline: dict, current: dict, rel_tol: float
) -> list[str]:
    """Gate the multi-GPU eigensolver: sharding must stay bit-identical,
    keep its 2-device win, and no config's makespan may creep."""
    failures: list[str] = []
    base = baseline.get("multigpu_eig")
    cur = current.get("multigpu_eig")
    if base is None:
        return failures
    if cur is None:
        return ["multigpu_eig: section missing from current run"]
    if cur.get("bit_identical") is not True:
        failures.append(
            "multigpu_eig.bit_identical: device counts diverged "
            "(spectra must be bit-identical)"
        )
    for name in sorted(base.get("workloads", {})):
        if name not in cur.get("workloads", {}):
            failures.append(f"multigpu_eig.{name}: workload missing")
            continue
        base_cfg = base["workloads"][name]["configs"]
        cur_cfg = cur["workloads"][name]["configs"]
        for p in sorted(base_cfg):
            if p not in cur_cfg:
                failures.append(f"multigpu_eig.{name}[{p}]: config missing")
                continue
            old = base_cfg[p]["eig_simulated_s"]
            new = cur_cfg[p]["eig_simulated_s"]
            if old > 0 and new > old * (1.0 + rel_tol):
                failures.append(
                    f"multigpu_eig.{name}[{p}].eig_simulated_s: "
                    f"{old:.6g} -> {new:.6g} "
                    f"(+{(new / old - 1.0) * 100:.1f}%, tolerance "
                    f"{rel_tol * 100:.0f}%)"
                )
        speedup = cur_cfg.get("2", {}).get("speedup_vs_1dev")
        if speedup is not None and speedup <= 1.0:
            failures.append(
                f"multigpu_eig.{name}: 2-device speedup {speedup:.3g}x "
                "lost the win over one device"
            )
    return failures


def _compare_kmeans_ablation(
    baseline: dict, current: dict, rel_tol: float
) -> list[str]:
    """Gate the k-means ablation: no combo's cost creeps, no bit drifts."""
    failures: list[str] = []
    base = baseline.get("kmeans_ablation")
    cur = current.get("kmeans_ablation")
    if base is None:
        return failures
    if cur is None:
        return ["kmeans_ablation: section missing from current run"]
    if cur.get("bit_identical") is not True:
        failures.append(
            "kmeans_ablation.bit_identical: knob combinations diverged "
            "(results must be bit-identical)"
        )
    for combo in sorted(base.get("combos", {})):
        if combo not in cur.get("combos", {}):
            failures.append(f"kmeans_ablation.{combo}: combo missing")
            continue
        old = base["combos"][combo]["total_simulated_s"]
        new = cur["combos"][combo]["total_simulated_s"]
        if old > 0 and new > old * (1.0 + rel_tol):
            failures.append(
                f"kmeans_ablation.{combo}.total_simulated_s: "
                f"{old:.6g} -> {new:.6g} "
                f"(+{(new / old - 1.0) * 100:.1f}%, tolerance "
                f"{rel_tol * 100:.0f}%)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("baseline", help="committed BENCH_regression.json")
    p.add_argument("current", help="freshly generated BENCH_regression.json")
    p.add_argument(
        "--rel-tol", type=float, default=0.05,
        help="allowed fractional cost increase per metric (default 0.05)",
    )
    args = p.parse_args(argv)

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    failures = compare(baseline, current, args.rel_tol)
    if failures:
        print("bench regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1

    for name in sorted(current.get("datasets", {})):
        row = current["datasets"][name]
        print(
            f"{name:8s} comm {row['communication_s']:.6g} s  "
            f"total {row['total_simulated_s']:.6g} s  ok"
        )
    sp = current.get("serve_predict")
    if sp:
        print(
            f"serve predict mix {sp['predict_fraction']:.0%} "
            f"win {sp['throughput_win']:.2f}x  "
            f"warm/cold {sp['warm_cold_ratio']:.0f}x  "
            f"ledgers {'ok' if sp['ledger_mismatches'] == 0 else 'FAIL'}  ok"
        )
    sd = current.get("serve_deadline")
    if sd:
        pre = sd["preemption"]
        print(
            f"serve deadline misses {pre['deadline_misses_baseline']}"
            f"->{pre['deadline_misses_preemptive']} "
            f"({pre['miss_reduction']:.0%} cut, "
            f"{pre['preemptions']} preemptions)  "
            f"restart cold fits {sd['persistence']['cold_fits_restarted']}  "
            "ok"
        )
    ablation = current.get("kmeans_ablation")
    if ablation:
        for combo in sorted(ablation.get("combos", {})):
            t = ablation["combos"][combo]["total_simulated_s"]
            print(f"kmeans ablation {combo:14s} total {t:.6g} s  ok")
    multigpu = current.get("multigpu_eig")
    if multigpu:
        for name in sorted(multigpu.get("workloads", {})):
            cfg = multigpu["workloads"][name]["configs"]
            for p in sorted(cfg, key=int):
                print(
                    f"multigpu eig {name:8s} x{p} "
                    f"eig {cfg[p]['eig_simulated_s']:.6g} s  "
                    f"({cfg[p]['speedup_vs_1dev']:.2f}x)  ok"
                )
    precision = current.get("precision_ablation")
    if precision:
        for name in sorted(precision.get("datasets", {})):
            cells = precision["datasets"][name]["cells"]
            for cell in sorted(cells):
                c = cells[cell]
                print(
                    f"precision {name:8s} {cell:13s} "
                    f"{c['spmv_bytes']:.6g} B "
                    f"({c['byte_reduction_vs_fp64']:.2f}x, "
                    f"ari_vs_exact {c['ari_vs_exact']:.3f})  ok"
                )
    compressive = current.get("compressive_ablation")
    if compressive:
        for name in sorted(compressive.get("datasets", {})):
            wl = compressive["datasets"][name]
            for cell in sorted(wl["cells"]):
                c = wl["cells"][cell]
                print(
                    f"compressive {name:8s} {cell:11s} "
                    f"sim {c['total_simulated_s']:.6g} s  "
                    f"(ari {c['ari']:.3f}, ledger "
                    f"{'ok' if c['ledger_ok'] else 'FAIL'})  ok"
                )
        lg = compressive.get("large")
        if lg:
            print(
                f"compressive {lg['dataset']:8s} n={lg['n']:,} "
                f"sim {lg['total_simulated_s']:.6g} s "
                f"<= budget {lg['sim_budget_s']} s  "
                f"(ari {lg['ari']:.3f})  ok"
            )
    topo = current.get("topology_composition")
    if topo:
        sh = topo.get("sharded", {})
        if sh:
            print(
                f"topology {sh['dataset']:8s} sharded "
                f"{sh['total_s']:.6g} s  ok"
            )
        for name in sorted(topo.get("partitions", {})):
            print(
                f"topology {name:8s} halo "
                f"{topo['partitions'][name]['step_halo_bytes']:,} B/step  ok"
            )
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
