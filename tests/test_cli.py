"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_datasets_lists_table2(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("dti", "fb", "dblp", "syn200"):
            assert name in out
        assert "142541" in out

    def test_run_graph_dataset(self, capsys):
        assert main(["run", "syn200", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "eigensolver" in out
        assert "ARI" in out

    def test_run_with_cluster_override(self, capsys):
        assert main(["run", "fb", "--scale", "0.1", "--clusters", "4"]) == 0
        out = capsys.readouterr().out
        assert "k=4" in out
        assert "ARI" not in out  # override disables ground-truth scoring

    def test_compare(self, capsys):
        assert main(["compare", "fb", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Matlab" in out
        assert "winner" in out

    def test_unknown_dataset_rejected(self, capsys):
        assert main(["run", "imagenet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetError:")
        assert "imagenet" in err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCLIFailureModes:
    def test_missing_npz_path(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.npz")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetError:")
        assert err.count("\n") == 1  # a single-line diagnostic

    def test_malformed_npz(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"definitely not a zip archive")
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetError:")

    def test_npz_missing_required_arrays(self, tmp_path, capsys):
        incomplete = tmp_path / "incomplete.npz"
        np.savez(incomplete, name=np.array("x"))  # no n_clusters
        assert main(["run", str(incomplete)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetError:")
        assert "n_clusters" in err

    def test_run_npz_problem_file(self, tmp_path, capsys):
        from repro.datasets.io import save_problem
        from repro.datasets.registry import load_dataset

        path = tmp_path / "syn.npz"
        save_problem(path, load_dataset("syn200", scale=0.03, seed=0))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eigensolver" in out

    def test_injected_fault_without_resilience_exits_nonzero(self, capsys):
        assert main(
            ["run", "syn200", "--scale", "0.03", "--chaos", "5",
             "--no-resilience"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Error" in err.split(":")[1]  # typed error name
        assert err.count("\n") == 1

    def test_injected_fault_with_resilience_recovers(self, capsys):
        assert main(["run", "syn200", "--scale", "0.03", "--chaos", "5"]) == 0
        out = capsys.readouterr().out
        assert "injected faults fired" in out
        assert "resilience[" in out


class TestCLIServe:
    def _serve_json(self, tmp_path, extra, name="out.json"):
        import json

        out = tmp_path / name
        argv = [
            "serve", "--synthetic", "6", "--workload-mix", "0.5",
            "--seed", "0", "--json", str(out),
        ] + extra
        assert main(argv) == 0
        return json.loads(out.read_text())

    def test_serve_synthetic_text_report(self, capsys):
        assert main(["serve", "--synthetic", "4"]) == 0
        out = capsys.readouterr().out
        assert "requests" in out

    def test_serve_json_carries_labels_digest(self, tmp_path):
        payload = self._serve_json(tmp_path, [])
        digests = [r["labels_sha256"] for r in payload["responses"]
                   if r["status"] == "ok"]
        assert digests and all(
            isinstance(d, str) and len(d) == 64 for d in digests
        )

    def test_serve_no_preemption_flag(self, tmp_path):
        payload = self._serve_json(tmp_path, ["--no-preemption"])
        assert payload["scheduler"]["preemptions"] == 0

    def test_serve_cache_dir_warm_restart(self, tmp_path):
        """Two processes over one trace: the second warms from disk and
        reproduces the first's labels bit for bit."""
        store = str(tmp_path / "store")
        cold = self._serve_json(
            tmp_path, ["--cache-dir", store], name="cold.json"
        )
        warm = self._serve_json(
            tmp_path, ["--cache-dir", store], name="warm.json"
        )
        assert cold["cache"]["disk_writes"] > 0
        assert warm["cache"]["disk_hits"] > 0
        assert warm["predict"]["cold_fits"] == 0
        digest = lambda p: {
            r["request_id"]: r["labels_sha256"] for r in p["responses"]
        }
        assert digest(warm) == digest(cold)
