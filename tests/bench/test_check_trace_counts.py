"""The per-layer count gate (``benchmarks/check_trace_counts.py``), on
synthesized records shaped like ``perfbench/out/*-seed0-trace1.json``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_trace_counts", ROOT / "benchmarks" / "check_trace_counts.py"
)
check_trace_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trace_counts)

EXPECTED = check_trace_counts.EXPECTED
WALL_BOUNDS = check_trace_counts.WALL_BOUNDS
CALIBRATION_S = 0.01


def _write_records(out_dir: Path, counts=None, walls=None) -> None:
    """One record per workload holding ``EXPECTED`` and wall metrics at
    half their bound, with ``counts``/``walls`` overriding single values
    as ``{workload: {metric: value}}``."""
    for workload, expected in EXPECTED.items():
        values = dict(expected)
        for name, bound in WALL_BOUNDS.get(workload, {}).items():
            values[name] = 0.5 * bound * CALIBRATION_S
        values.update((counts or {}).get(workload, {}))
        values.update((walls or {}).get(workload, {}))
        record = {
            "machine": {"calibration_s": CALIBRATION_S},
            "result": {
                "metrics": {k: {"value": v} for k, v in values.items()}
            },
        }
        (out_dir / f"{workload}-seed0-trace1.json").write_text(
            json.dumps(record)
        )


def test_expected_counts_pass(tmp_path, capsys):
    _write_records(tmp_path)
    assert check_trace_counts.check(tmp_path) == []
    assert check_trace_counts.main(["check", str(tmp_path)]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_count_off_by_one_fails_naming_workload_and_metric(tmp_path, workload):
    metric = "cuda.kernel_launches"
    _write_records(
        tmp_path, counts={workload: {metric: EXPECTED[workload][metric] + 1}}
    )
    failures = check_trace_counts.check(tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith(f"{workload}: {metric} = ")


@pytest.mark.parametrize("workload", sorted(WALL_BOUNDS))
def test_wall_ratio_over_bound_fails(tmp_path, workload):
    for metric, bound in WALL_BOUNDS[workload].items():
        _write_records(
            tmp_path, walls={workload: {metric: 1.1 * bound * CALIBRATION_S}}
        )
        failures = check_trace_counts.check(tmp_path)
        assert len(failures) == 1
        assert failures[0].startswith(f"{workload}: {metric} / calibration_s")


@pytest.mark.parametrize(
    "workload, metric",
    [(w, "hw.timeline_record.calls") for w in sorted(EXPECTED)]
    + [(w, m) for w, bounds in sorted(WALL_BOUNDS.items()) for m in bounds],
)
def test_missing_metric_fails_naming_it(tmp_path, capsys, workload, metric):
    _write_records(tmp_path)
    path = tmp_path / f"{workload}-seed0-trace1.json"
    record = json.loads(path.read_text())
    del record["result"]["metrics"][metric]
    path.write_text(json.dumps(record))
    assert check_trace_counts.check(tmp_path) == [f"{workload}: {metric} missing"]
    assert check_trace_counts.main(["check", str(tmp_path)]) == 1
    assert f"FAIL {workload}: {metric} missing" in capsys.readouterr().err


def test_missing_record_fails(tmp_path, capsys):
    _write_records(tmp_path)
    missing = next(iter(EXPECTED))
    (tmp_path / f"{missing}-seed0-trace1.json").unlink()
    failures = check_trace_counts.check(tmp_path)
    assert len(failures) == 1
    assert missing in failures[0] and "missing" in failures[0]
    assert check_trace_counts.main(["check", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().err
