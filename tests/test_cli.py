"""Command line interface: dispatch, outputs, exit codes, reproducibility."""

import csv
import filecmp
import json
from pathlib import Path

import pytest

from stableql.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_prints_triple(self, capsys):
        code, out, _ = run(capsys, "constants", "--beta", "1.5")
        assert code == 0
        beta, c_alpha, c_gamma = out.strip().split(",")
        assert beta == "1.5"
        assert abs(float(c_alpha) - 0.4281) < 5e-3
        assert abs(float(c_gamma) - 0.9556) < 5e-3

    def test_cauchy_values(self, capsys):
        code, out, _ = run(capsys, "constants", "--beta", "1")
        assert code == 0
        _, c_alpha, c_gamma = out.strip().split(",")
        assert abs(float(c_alpha) - 0.5) < 1e-6
        assert abs(float(c_gamma) - 0.5) < 1e-6

    def test_invalid_beta(self, capsys):
        code, _, err = run(capsys, "constants", "--beta", "2.5")
        assert code == 2
        assert "beta" in err


class TestSimulateAndFit:
    def test_round_trip(self, capsys, tmp_path):
        data = tmp_path / "path.csv"
        code, out, _ = run(
            capsys, "simulate", "--model", "nonlinear-1d", "--noise-kind", "nig",
            "--eta", "5", "--T", "1", "--n", "300", "--fine-factor", "20",
            "--seed", "3", "--out", str(data),
        )
        assert code == 0
        with data.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 301
        assert set(rows[0]) == {"t", "x"}

        code, out, _ = run(
            capsys, "fit", "--data", str(data), "--model", "nonlinear-1d",
            "--beta", "1", "--restarts", "3", "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert len(report["theta_hat"]) == 2
        assert len(report["confidence_intervals"]) == 2
        lo, hi = report["confidence_intervals"][0]
        assert lo < report["theta_hat"][0] < hi

    def test_simulate_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_file in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--n", "100", "--fine-factor", "10",
                "--seed", "9", "--out", str(out_file),
            )
            assert code == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fit", "--data", str(tmp_path / "gone.csv"), "--beta", "1",
        )
        assert code == 1
        assert "gone.csv" in err

    def test_model_violation_exit_code(self, capsys, tmp_path):
        data = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "100", "--fine-factor", "10",
            "--seed", "2", "--out", str(data))
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "drift: a1*x\nscale: g1\np_alpha: 1\np_gamma: 1\n"
            "bounds: [[-2, 2], [-2, -0.1]]\n"
        )
        code, _, err = run(
            capsys, "fit", "--data", str(data), "--model-config", str(bad),
            "--beta", "1", "--restarts", "2", "--seed", "2",
        )
        assert code == 2
        assert "model violation" in err

    def test_model_config_unknown_key(self, capsys, tmp_path):
        data = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "50", "--fine-factor", "10",
            "--seed", "2", "--out", str(data))
        bad = tmp_path / "typo.yaml"
        bad.write_text(
            "drfit: a1*x\nscale: exp(g1)\np_alpha: 1\np_gamma: 1\n"
            "bounds: [[-2, 2], [-2, 2]]\n"
        )
        code, _, err = run(
            capsys, "fit", "--data", str(data), "--model-config", str(bad),
            "--beta", "1",
        )
        assert code == 1
        assert "drfit" in err
        assert len(err.strip().splitlines()) == 1


class TestMc:
    def test_preset_run_and_reproducibility(self, capsys, tmp_path):
        args = [
            "mc", "--preset", "nig-1d", "--replicates", "3", "--workers", "1",
            "--set", "optimizer.restarts=2",
            "--set", "designs=[{T: 1.0, n: 100, fine_factor: 30}]",
        ]
        code, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
        assert code == 0
        for name in ["summary.json", "histograms.csv", "boxplots.csv"]:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["T1-n100"]["n_total"] == 3

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "mc", "--config", str(tmp_path / "no.yaml"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "no.yaml" in err

    def test_unknown_config_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("preset: nig-1d\nrepliactes: 5\n")
        code, _, err = run(
            capsys, "mc", "--config", str(cfg), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "repliactes" in err

    def test_init_windows_disjoint_from_bounds(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "mc", "--preset", "nig-1d", "--replicates", "1", "--workers", "1",
            "--set", "optimizer.init_windows=[[-2, 0], [40, 50]]",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "init window" in err

    def test_override_of_wrong_type_named(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "mc", "--preset", "nig-1d", "--replicates", "1", "--workers", "1",
            "--set", "optimizer.restarts=x", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "restarts" in err
        assert len(err.strip().splitlines()) == 1

    def test_partial_failure_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "fail.yaml"
        cfg.write_text(
            "model:\n"
            "  drift: a1*x\n"
            "  scale: g1\n"
            "  p_alpha: 1\n"
            "  p_gamma: 1\n"
            "  bounds: [[-2, 0], [-2, -0.1]]\n"
            "  theta_true: [-1.0, 1.0]\n"
            "noise: {kind: nig, eta: 5.0}\n"
            "designs: [{T: 1.0, n: 50, fine_factor: 10}]\n"
            "beta_fit: 1.0\n"
            "replicates: 2\n"
            "optimizer: {restarts: 2}\n"
        )
        code, _, err = run(
            capsys, "mc", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--workers", "1",
        )
        assert code == 3
        assert "failed" in err


class TestLlt:
    def test_default_run(self, capsys, tmp_path):
        cfg = tmp_path / "llt.yaml"
        cfg.write_text(
            "cf: {kind: gh_nig, beta: 1.0, gh_lambda: -0.5, gh_eta: 5.0}\n"
            "h_grid: {start: -1, stop: -3, count: 4}\n"
        )
        code, _, _ = run(capsys, "llt", "--config", str(cfg),
                         "--out", str(tmp_path / "out"))
        assert code == 0
        with (tmp_path / "out" / "l1.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        rate = json.loads((tmp_path / "out" / "rate.json").read_text())
        assert 0.80 <= rate["slope"] <= 1.10

    def test_override(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "llt", "--out", str(tmp_path / "out"),
            "--set", "cf.kind=stable", "--set", "cf.beta=1.5",
            "--set", "h_grid={start: -1, stop: -3, count: 4}",
            "--set", "h_values=null",
        )
        # h_values=null falls through to h_grid
        assert code == 0
        rate = json.loads((tmp_path / "out" / "rate.json").read_text())
        assert rate["slope"] is None

    def test_unknown_key(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "llt", "--out", str(tmp_path / "out"), "--set", "hvals=[1]",
        )
        assert code == 1
        assert "hvals" in err
