"""The bench-regression gate (``benchmarks/check_regression.py``).

Every row of its gate table is perturbed once, past its bar, on a copy
of the committed ``BENCH_regression.json``; the gate must fail and name
the gated field.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RECORD = ROOT / "BENCH_regression.json"

_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)

_DEFAULT_ARI = (
    "compressive_ablation.datasets.*.cells"
    ".{compressive_ablation.default_cell}.ari"
)

#: rel_tol the perturbations are checked at (CI's)
REL_TOL = 0.05


def _double(x):
    return x * 2


def _next_up(x):
    return math.nextafter(x, math.inf)


#: (gate row as spelled in GATES, gated field, new value or a function of
#: the old one, field edited when it is not the gated one)
PERTURBATIONS = [
    (("datasets.*.communication_s", "creep"),
     "datasets.dti.communication_s", lambda x: x * 10, None),
    (("datasets.*.total_simulated_s", "creep"),
     "datasets.dti.total_simulated_s", _double, None),
    (("datasets.*.ari_cuda", "same"),
     "datasets.dti.ari_cuda", _next_up, None),
    # a whole-launch endpoint gather peaks about 11x the blocked build
    (("datasets.dti.similarity_host_peak_bytes", "creep"),
     "datasets.dti.similarity_host_peak_bytes", lambda x: x * 11, None),
    # well past the creep bar (the copying driver read 1.17x)
    (("datasets.dti.eigensolver_host_peak_bytes", "creep"),
     "datasets.dti.eigensolver_host_peak_bytes", lambda x: x * 11, None),
    # what the fit read while it held a copy of X and filled the padded
    # ELL layout (1.47x)
    (("datasets.dti.fit_host_peak_bytes", "creep"),
     "datasets.dti.fit_host_peak_bytes", lambda x: x * 1.47, None),
    (("serve.speedup", "at_least", 2.0),
     "serve.speedup", 0.5, None),
    # what the record read while the batcher held a service callback
    (("serve.cyclic_garbage_objects", "equals", 0),
     "serve.cyclic_garbage_objects", 12558, None),
    (("serve_predict.throughput_win", "at_least",
      "serve_predict.min_throughput_win"),
     "serve_predict.throughput_win", 2.9, None),
    (("serve_predict.warm_cold_ratio", "at_least",
      "serve_predict.min_warm_cold_ratio"),
     "serve_predict.warm_cold_ratio", 99.0, None),
    (("serve_predict.ledger_mismatches", "equals", 0),
     "serve_predict.ledger_mismatches", 1, None),
    (("serve_predict.refit_parity.*.labels_bit_identical", "true"),
     "serve_predict.refit_parity.dti.labels_bit_identical", False, None),
    (("serve_predict.warm_predict_p50_s", "creep"),
     "serve_predict.warm_predict_p50_s", _double, None),
    (("serve_deadline.preemption.deadline_misses_baseline", "above", 0),
     "serve_deadline.preemption.deadline_misses_baseline", 0, None),
    (("serve_deadline.preemption.miss_reduction", "at_least",
      "serve_deadline.preemption.min_miss_reduction"),
     "serve_deadline.preemption.miss_reduction", 0.25, None),
    (("serve_deadline.preemption.throughput_ratio", "at_least",
      "serve_deadline.preemption.min_throughput_ratio"),
     "serve_deadline.preemption.throughput_ratio", 0.9, None),
    (("serve_deadline.preemption.labels_bit_identical", "true"),
     "serve_deadline.preemption.labels_bit_identical", False, None),
    (("serve_deadline.persistence.cold_fits_restarted", "equals", 0),
     "serve_deadline.persistence.cold_fits_restarted", 1, None),
    (("serve_deadline.persistence.labels_bit_identical", "true"),
     "serve_deadline.persistence.labels_bit_identical", False, None),
    (("serve_deadline.persistence.disk_bytes_written_first", "same"),
     "serve_deadline.persistence.disk_bytes_written_first",
     lambda x: x - 1, None),
    (("kmeans_ablation.bit_identical", "true"),
     "kmeans_ablation.bit_identical", False, None),
    (("kmeans_ablation.combos.*.total_simulated_s", "creep"),
     "kmeans_ablation.combos.spmm_fused.total_simulated_s", _double, None),
    (("kmeans_ablation.speedup_default_vs_baseline", "above", 1.0),
     "kmeans_ablation.speedup_default_vs_baseline", 0.5, None),
    (("multigpu_eig.bit_identical", "true"),
     "multigpu_eig.bit_identical", False, None),
    (("multigpu_eig.workloads.*.configs.*.eig_simulated_s", "creep"),
     "multigpu_eig.workloads.dblp.configs.2.eig_simulated_s", _double, None),
    (("multigpu_eig.workloads.*.configs.2.speedup_vs_1dev", "above", 1.0),
     "multigpu_eig.workloads.dblp.configs.2.speedup_vs_1dev", 1.0, None),
    (("precision_ablation.fp64_bit_identical", "true"),
     "precision_ablation.fp64_bit_identical", False, None),
    (("precision_ablation.datasets.*.cells.*.spmv_bytes", "creep"),
     "precision_ablation.datasets.dti.cells.fp32_lanczos.spmv_bytes",
     _double, None),
    (("precision_ablation.datasets.*.cells.fp32_lanczos.ari_vs_exact",
      "at_least", "precision_ablation.datasets.*.bands.fp32"),
     "precision_ablation.datasets.dti.cells.fp32_lanczos.ari_vs_exact",
     0.5, None),
    (("precision_ablation.datasets.*.cells.fp16_lanczos.ari_vs_exact",
      "at_least", "precision_ablation.datasets.*.bands.fp16"),
     "precision_ablation.datasets.dti.cells.fp16_lanczos.ari_vs_exact",
     0.5, None),
    (("precision_ablation.datasets.*.cells.fp32_lanczos.refine_residual",
      "at_most", "precision_ablation.residual_floors.fp32"),
     "precision_ablation.datasets.dti.cells.fp32_lanczos.refine_residual",
     1e-3, None),
    (("precision_ablation.datasets.*.cells.fp16_lanczos.refine_residual",
      "at_most", "precision_ablation.residual_floors.fp16"),
     "precision_ablation.datasets.dti.cells.fp16_lanczos.refine_residual",
     0.1, None),
    (("precision_ablation.datasets.*.cells.fp32_lanczos"
      ".byte_reduction_vs_fp64",
      "at_least", "precision_ablation.min_fp32_byte_reduction"),
     "precision_ablation.datasets.dti.cells.fp32_lanczos"
     ".byte_reduction_vs_fp64", 1.4, None),
    (("compressive_ablation.fp32_ledger_ok", "true"),
     "compressive_ablation.fp32_ledger_ok", False, None),
    (("compressive_ablation.datasets.*.cells.*.total_simulated_s", "creep"),
     "compressive_ablation.datasets.dti.cells.o24_dhalf.total_simulated_s",
     _double, None),
    (("compressive_ablation.datasets.*.cells.*.ledger_ok", "true"),
     "compressive_ablation.datasets.dti.cells.o24_dhalf.ledger_ok",
     False, None),
    # dti: 0.36 is under 0.9 x ari_exact (0.378) but over the 0.35 floor
    ((_DEFAULT_ARI, "at_least",
      ("compressive_ablation.min_ari_ratio_vs_exact",
       "compressive_ablation.datasets.*.ari_exact")),
     "compressive_ablation.datasets.dti.cells.o48_dfull.ari", 0.36, None),
    # dblp: 0.03 is under the 0.04 floor but over 0.9 x ari_exact (0.019)
    ((_DEFAULT_ARI, "at_least", "compressive_ablation.datasets.*.ari_floor"),
     "compressive_ablation.datasets.dblp.cells.o48_dfull.ari", 0.03, None),
    (("compressive_ablation.large.n", "at_least",
      "compressive_ablation.large.min_n"),
     "compressive_ablation.large.n", 40_000, None),
    (("compressive_ablation.large.ari", "at_least",
      "compressive_ablation.large.ari_floor"),
     "compressive_ablation.large.ari", 0.8, None),
    # lower the budget instead of raising the time, which would also creep
    (("compressive_ablation.large.total_simulated_s", "at_most",
      "compressive_ablation.large.sim_budget_s"),
     "compressive_ablation.large.total_simulated_s", 1.0,
     "compressive_ablation.large.sim_budget_s"),
    (("compressive_ablation.large.total_simulated_s", "creep"),
     "compressive_ablation.large.total_simulated_s", lambda x: x * 1.1, None),
    (("compressive_ablation.large.ledger_ok", "true"),
     "compressive_ablation.large.ledger_ok", False, None),
    (("topology_composition.bit_identical", "true"),
     "topology_composition.bit_identical", False, None),
    (("topology_composition.sharded.total_s", "creep"),
     "topology_composition.sharded.total_s", _double, None),
    (("topology_composition.partitions.*.step_halo_bytes", "creep"),
     "topology_composition.partitions.dblp.step_halo_bytes", _double, None),
]

#: fields whose absence the gate must report by name
DROPPED = [
    "compressive_ablation.datasets.dti.ari_exact",
    "compressive_ablation.datasets.dti.ari_floor",
    "compressive_ablation.default_cell",
    "serve_predict.throughput_win",
    "serve_predict.min_throughput_win",
    "serve_predict.warm_cold_ratio",
    "serve_deadline.preemption.miss_reduction",
    "multigpu_eig.workloads.dblp.configs.2.speedup_vs_1dev",
    "multigpu_eig.workloads.dblp.configs.2",
    "precision_ablation.datasets.dti.bands.fp16",
    "datasets.dti.similarity_host_peak_bytes",
    "datasets.dti.eigensolver_host_peak_bytes",
    "datasets.dti.fit_host_peak_bytes",
    "datasets.dti",
    "serve.cyclic_garbage_objects",
]


def _committed() -> dict:
    return json.loads(RECORD.read_text())


def _parent_and_key(record: dict, path: str):
    *head, key = path.split(".")
    node = record
    for k in head:
        node = node[k]
    return node, key


def perturbed(path: str, value) -> dict:
    """A copy of the committed record with ``path`` set to ``value`` (or
    to ``value(old)`` when it is callable)."""
    record = copy.deepcopy(_committed())
    node, key = _parent_and_key(record, path)
    node[key] = value(node[key]) if callable(value) else value
    return record


def dropped(path: str) -> dict:
    record = copy.deepcopy(_committed())
    node, key = _parent_and_key(record, path)
    del node[key]
    return record


def test_committed_record_passes_against_itself():
    rec = _committed()
    assert check_regression.compare(rec, rec, 0.0) == []


def test_every_gate_row_has_a_perturbation():
    assert sorted(map(repr, (p[0] for p in PERTURBATIONS))) == sorted(
        map(repr, check_regression.GATES)
    )


@pytest.mark.parametrize(
    "row, gated, value, edited", PERTURBATIONS, ids=[p[1] for p in PERTURBATIONS]
)
def test_perturbation_past_the_bar_fails_by_name(row, gated, value, edited):
    base = _committed()
    cur = perturbed(edited or gated, value)
    failures = check_regression.compare(base, cur, REL_TOL)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{gated} = "), failures


@pytest.mark.parametrize("path", DROPPED)
def test_missing_field_fails_by_name(path):
    failures = check_regression.compare(_committed(), dropped(path), REL_TOL)
    assert failures
    assert any(path in f and "missing from the current" in f
               for f in failures), failures


def test_missing_section_fails_every_row_of_it():
    failures = check_regression.compare(
        _committed(), dropped("serve_predict"), REL_TOL
    )
    rows = [r for r in check_regression.GATES
            if r[0].startswith("serve_predict.")]
    assert len(failures) >= len(rows)
    assert all("serve_predict." in f for f in failures)


def test_nan_value_fails():
    cur = perturbed("serve_predict.throughput_win", math.nan)
    failures = check_regression.compare(_committed(), cur, REL_TOL)
    assert any(f.startswith("serve_predict.throughput_win") for f in failures)


def test_creep_within_tolerance_passes():
    cur = perturbed("datasets.dti.communication_s", lambda x: x * 1.04)
    assert check_regression.compare(_committed(), cur, REL_TOL) == []
    assert check_regression.compare(_committed(), cur, 0.0) != []


def test_improvement_passes():
    cur = perturbed("datasets.dti.total_simulated_s", lambda x: x / 2)
    assert check_regression.compare(_committed(), cur, 0.0) == []


def _write(tmp_path, name, record) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _committed())
    assert check_regression.main([base, base, "--rel-tol", "0"]) == 0
    out = capsys.readouterr().out
    assert "bench regression gate passed" in out
    bad = _write(tmp_path, "cur.json", dropped("serve_predict.throughput_win"))
    assert check_regression.main([base, bad]) == 1
    assert "serve_predict.throughput_win" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-0.1", "x"])
def test_cli_rejects_bad_rel_tol(tmp_path, tol, capsys):
    base = _write(tmp_path, "base.json", _committed())
    with pytest.raises(SystemExit) as exc:
        check_regression.main([base, base, f"--rel-tol={tol}"])
    assert exc.value.code == 2
    assert "--rel-tol" in capsys.readouterr().err
