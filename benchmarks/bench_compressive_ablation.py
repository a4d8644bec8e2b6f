"""Extension — compressive embedding tier ablation with ARI-tolerance tiers.

The compressive tier trades eigensolver *accuracy* for *applications*: a
Chebyshev step-filter applied to ``d`` random signals replaces the exact
Lanczos basis with a sketch whose cost is a fixed number of SpMMs,
independent of spectral gaps.  This bench sweeps the
``filter order x signal count`` grid over the four Table II workloads at
bench scale and records, per cell:

* ``ari`` / ``ari_vs_exact`` — quality against ground truth and against
  the exact fp64 Lanczos labels;
* ``total_simulated_s`` / ``eig_simulated_s`` — modeled device time;
* ``ledger_ok`` — the analytic SpMM traffic plan
  (``applications x bytes-per-application``) reproduced the metered
  bytes exactly (``ledger == meter``), at fp64 in every cell and at
  fp32 in a dedicated probe cell.

One **large cell** runs the tier end-to-end on the paper-scale synthetic
SBM (``sbm50k``, n=50 000, k=20) — the workload the subsystem exists
for, where an exact solve is not even benched.  It gates on an absolute
truth-ARI floor and a modeled-time budget.

The tolerance tiers live *here*, next to the measurements they gate, and
are copied into ``BENCH_regression.json`` so ``check_regression.py`` can
enforce them in CI:

* the **default cell** (order 48, default signal count) must reach
  ``MIN_ARI_RATIO_VS_EXACT`` x the exact-path ARI on every dataset —
  on dblp the exact path is itself near-random (ARI ~0.02) and the
  compressive sketch beats it outright (~0.06), so the ratio gate holds
  with 3x headroom rather than hiding the cliff;
* every cell's ``ledger_ok`` must stay True — byte accounting is exact;
* the large cell stays under ``LARGE_SIM_BUDGET_S`` modeled seconds at
  ``ari >= LARGE_ARI_FLOOR`` with ``n >= LARGE_MIN_N``;
* absolute per-dataset truth-ARI floors (``ARI_FLOORS``) document the
  measured quality honestly — set below observed values, not
  aspirational targets.

The grid is recomputed at most once per process (the large cell costs
about 25 s of wall time on a 2-vCPU VM); ``bench_regression.py`` reuses the memoized
summary when both files run in one pytest invocation.
"""

import numpy as np
import pytest

from repro.compressive.filters import DEFAULT_FILTER_ORDER, default_n_signals
from repro.core.pipeline import SpectralClustering
from repro.datasets.registry import load_dataset
from repro.metrics.external import adjusted_rand_index

from conftest import BENCH_SCALES

#: filter orders swept per dataset; DEFAULT_FILTER_ORDER is the default
FILTER_ORDERS = (24, DEFAULT_FILTER_ORDER)

#: signal-count tiers swept per dataset (resolved per-k at runtime)
SIGNAL_TIERS = ("dhalf", "dfull")

#: the default cell — the configuration a plain
#: ``embedding="compressive"`` request runs
DEFAULT_CELL = f"o{DEFAULT_FILTER_ORDER}_dfull"

#: the acceptance bar: the default cell's labels must agree with the
#: exact fp64 Lanczos labels' ground-truth ARI to within this factor on
#: EVERY bench dataset
MIN_ARI_RATIO_VS_EXACT = 0.9

#: absolute truth-ARI floors for the default cell, set with headroom
#: below measured values (dti 0.420, fb 1.000, syn200 0.903, dblp 0.061)
ARI_FLOORS = {
    "dti": 0.35,
    "fb": 0.99,
    "syn200": 0.85,
    "dblp": 0.04,
}

#: large-cell contract: paper-scale n, quality floor, modeled-time budget
LARGE_DATASET = "sbm50k"
LARGE_MIN_N = 50_000
LARGE_ARI_FLOOR = 0.90  # measured 0.950
LARGE_SIM_BUDGET_S = 1.25  # measured 1.024 simulated seconds

_cache: dict | None = None


def _cell_key(order: int, tier: str) -> str:
    return f"o{order}_{tier}"


def _tier_signals(tier: str, k: int) -> int:
    d = default_n_signals(k)
    return d if tier == "dfull" else max(8, d // 2)


def _fit(ds, **kw):
    sc = SpectralClustering(
        n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0, **kw
    )
    if ds.points is not None:
        return sc.fit(X=ds.points, edges=ds.edges)
    return sc.fit(graph=ds.graph)


def _cell_record(res, exact_labels, truth) -> dict:
    stats = res.eig_stats
    return {
        "filter_order": stats["filter_order"],
        "n_signals": stats["n_signals"],
        "ari": (
            adjusted_rand_index(res.labels, truth)
            if truth is not None
            else None
        ),
        "ari_vs_exact": (
            adjusted_rand_index(res.labels, exact_labels)
            if exact_labels is not None
            else None
        ),
        "total_simulated_s": res.profile.total,
        "eig_simulated_s": res.profile.by_stage["eigensolver"],
        "spmv_bytes": stats["spmv_bytes"],
        "ledger_ok": stats["spmv_bytes"] == stats["ledger_bytes"],
    }


def compressive_ablation_summary() -> dict:
    """Machine-readable compressive grid (consumed by
    BENCH_regression.json).

    Per dataset: one entry per (filter order, signal tier) cell with
    quality, modeled time, and byte-ledger evidence, plus the exact-path
    baseline the ratio gate compares against.  ``large`` is the
    paper-scale SBM cell at defaults.  ``fp32_ledger_ok`` pins the
    analytic traffic plan at reduced storage width too.
    """
    global _cache
    if _cache is not None:
        return _cache
    out: dict = {
        "cells": [
            _cell_key(o, t) for o in FILTER_ORDERS for t in SIGNAL_TIERS
        ],
        "default_cell": DEFAULT_CELL,
        "min_ari_ratio_vs_exact": MIN_ARI_RATIO_VS_EXACT,
        "datasets": {},
    }
    for name in sorted(BENCH_SCALES):
        ds = load_dataset(name, scale=BENCH_SCALES[name], seed=0)
        exact = _fit(ds)
        ari_exact = (
            adjusted_rand_index(exact.labels, ds.labels)
            if ds.labels is not None
            else None
        )
        cells = {
            _cell_key(order, tier): _cell_record(
                _fit(
                    ds,
                    embedding="compressive",
                    filter_order=order,
                    n_signals=_tier_signals(tier, ds.n_clusters),
                ),
                exact.labels,
                ds.labels,
            )
            for order in FILTER_ORDERS
            for tier in SIGNAL_TIERS
        }
        out["datasets"][name] = {
            "scale": BENCH_SCALES[name],
            "k": ds.n_clusters,
            "n": int(exact.embedding.shape[0]),
            "ari_exact": ari_exact,
            "exact_simulated_s": exact.profile.total,
            "ari_floor": ARI_FLOORS[name],
            "cells": cells,
        }
    # fp32 byte-ledger probe: one default-cell fit at reduced width
    ds = load_dataset("syn200", scale=BENCH_SCALES["syn200"], seed=0)
    res32 = _fit(ds, embedding="compressive", precision="fp32")
    out["fp32_ledger_ok"] = (
        res32.eig_stats["spmv_bytes"] == res32.eig_stats["ledger_bytes"]
    )
    # the paper-scale cell: n=50k SBM end-to-end at defaults
    large = load_dataset(LARGE_DATASET, scale=1.0, seed=0)
    res = _fit(large, embedding="compressive")
    out["large"] = {
        "dataset": LARGE_DATASET,
        "n": large.n,
        "k": large.n_clusters,
        "min_n": LARGE_MIN_N,
        "ari_floor": LARGE_ARI_FLOOR,
        "sim_budget_s": LARGE_SIM_BUDGET_S,
        **_cell_record(res, None, large.labels),
    }
    _cache = out
    return out


@pytest.fixture(scope="module")
def summary():
    return compressive_ablation_summary()


def test_compressive_ablation_report(summary, write_table):
    lines = [
        "Extension: compressive embedding tier ablation "
        "(Chebyshev filter order x signal count, coherence-sampled k-means)",
        f"{'dataset':<9}{'cell':<12}{'order':>6}{'d':>5}{'ari':>8}"
        f"{'vs exact':>9}{'sim s':>10}{'ledger':>8}",
        "-" * 67,
    ]
    for name, wl in summary["datasets"].items():
        lines.append(
            f"{name:<9}{'exact':<12}{'-':>6}{'-':>5}"
            f"{wl['ari_exact']:>8.3f}{'1.000':>9}"
            f"{wl['exact_simulated_s']:>10.4f}{'-':>8}"
        )
        for cell, c in wl["cells"].items():
            lines.append(
                f"{name:<9}{cell:<12}{c['filter_order']:>6}"
                f"{c['n_signals']:>5}{c['ari']:>8.3f}"
                f"{c['ari_vs_exact']:>9.3f}{c['total_simulated_s']:>10.4f}"
                f"{'ok' if c['ledger_ok'] else 'FAIL':>8}"
            )
    lg = summary["large"]
    lines.append(
        f"{lg['dataset']:<9}{'default':<12}{lg['filter_order']:>6}"
        f"{lg['n_signals']:>5}{lg['ari']:>8.3f}{'-':>9}"
        f"{lg['total_simulated_s']:>10.4f}"
        f"{'ok' if lg['ledger_ok'] else 'FAIL':>8}"
    )
    lines.append(
        f"large cell: n={lg['n']:,} under {lg['sim_budget_s']}s modeled "
        f"budget  |  default-cell bar: >={summary['min_ari_ratio_vs_exact']}x "
        f"exact-path ARI on every dataset  |  fp32 ledger ok: "
        f"{summary['fp32_ledger_ok']}"
    )
    write_table("compressive_ablation", "\n".join(lines))


def test_default_cell_inside_ari_band(summary):
    """The acceptance criterion: the default compressive configuration
    reaches >= 0.9x the exact path's ground-truth ARI on all four bench
    datasets, and clears the absolute per-dataset floor."""
    for name, wl in summary["datasets"].items():
        c = wl["cells"][summary["default_cell"]]
        floor = summary["min_ari_ratio_vs_exact"] * wl["ari_exact"]
        assert c["ari"] >= floor, (
            f"{name}: default-cell ARI {c['ari']:.3f} below "
            f"{summary['min_ari_ratio_vs_exact']}x exact "
            f"({wl['ari_exact']:.3f})"
        )
        assert c["ari"] >= wl["ari_floor"], (
            f"{name}: default-cell ARI {c['ari']:.3f} below absolute "
            f"floor {wl['ari_floor']}"
        )


def test_ledger_equals_meter_in_every_cell(summary):
    """Byte accounting is exact: the analytic applications x
    bytes-per-application plan reproduces the metered SpMM traffic in
    every fp64 cell, in the fp32 probe, and in the large cell."""
    for name, wl in summary["datasets"].items():
        for cell, c in wl["cells"].items():
            assert c["ledger_ok"], f"{name}.{cell}: ledger != meter"
            assert c["spmv_bytes"] > 0
    assert summary["fp32_ledger_ok"] is True
    assert summary["large"]["ledger_ok"] is True


def test_large_cell_clears_contract(summary):
    """The subsystem's reason to exist: an n>=50k SBM clusters end-to-end
    inside the modeled-time budget at high quality."""
    lg = summary["large"]
    assert lg["n"] >= lg["min_n"]
    assert lg["ari"] >= lg["ari_floor"], (
        f"large cell ARI {lg['ari']:.3f} below floor {lg['ari_floor']}"
    )
    assert lg["total_simulated_s"] <= lg["sim_budget_s"], (
        f"large cell modeled time {lg['total_simulated_s']:.4f}s over "
        f"budget {lg['sim_budget_s']}s"
    )


def test_more_signals_never_free(summary):
    """Sanity on the cost axis: widening the sketch (more signals) at a
    fixed order strictly increases modeled eigensolver time."""
    for name, wl in summary["datasets"].items():
        for order in FILTER_ORDERS:
            half = wl["cells"][_cell_key(order, "dhalf")]
            full = wl["cells"][_cell_key(order, "dfull")]
            if half["n_signals"] < full["n_signals"]:
                assert half["eig_simulated_s"] < full["eig_simulated_s"], (
                    f"{name} o{order}: wider sketch did not cost more"
                )


def test_grid_is_deterministic(summary):
    """Same (dataset, scale, seed) → the memoized summary is the frozen
    record's source of truth; spot-check one cell reproduces."""
    ds = load_dataset("dti", scale=BENCH_SCALES["dti"], seed=0)
    res = _fit(
        ds,
        embedding="compressive",
        filter_order=DEFAULT_FILTER_ORDER,
        n_signals=_tier_signals("dfull", ds.n_clusters),
    )
    c = summary["datasets"]["dti"]["cells"][DEFAULT_CELL]
    assert adjusted_rand_index(res.labels, ds.labels) == pytest.approx(
        c["ari"], abs=0
    )
    assert res.profile.total == pytest.approx(
        c["total_simulated_s"], abs=0
    )
    assert np.isfinite(c["spmv_bytes"])
