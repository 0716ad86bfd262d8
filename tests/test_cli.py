"""Command line interface: dispatch, outputs, exit codes, reproducibility."""

import csv
import filecmp
import json
from pathlib import Path

import pytest

from stableql import cli
from stableql.cli import main
from stableql.errors import (
    DomainError,
    ModelViolationError,
    NumericError,
    OptimizationError,
    PartialFailureError,
    SimulationOverflowError,
    StableQLError,
    UsageError,
)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--bogus"],
        ["fit", "--beta", "x"],
        ["constants", "--beta", "1.5", "--seed", "0"],
        ["llt", "--out", "out", "--seed", "0"],
        ["fit", "--data", "path.csv", "--beta", "1.5", "--level", "1.5"],
    ],
    ids=["unknown-option", "bad-type", "constants-seed", "llt-seed", "fit-level"],
)
def test_parse_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (UsageError("bad key"), 1),
        (DomainError("out of domain"), 2),
        (NumericError("no convergence"), 2),
        (ModelViolationError("negative scale"), 2),
        (SimulationOverflowError(3, float("inf")), 2),
        (OptimizationError("all restarts failed"), 2),
        (StableQLError("other"), 2),
        (PartialFailureError("too many failures"), 3),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_exit_codes(capsys, monkeypatch, error, code):
    def command(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "constants", command)
    assert run(capsys, "constants", "--beta", "1.5") == (
        code, "", f"error: {type(error).__name__}: {error}\n"
    )


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
        assert 1 <= report["restarts_agreeing"] <= report["restarts"] == 3
        assert len(report["theta_hat"]) == 2
        assert len(report["confidence_intervals"]) == 2
        lo, hi = report["confidence_intervals"][0]
        assert lo < report["theta_hat"][0] < hi

    def test_stray_driver_parameter(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--noise-kind", "stable", "--eta", "3",
            "--out", str(tmp_path / "path.csv"),
        )
        assert code == 2
        assert "'eta'" in err
        assert not (tmp_path / "path.csv").exists()

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

    @pytest.mark.parametrize(
        "row, message",
        [("0.1,abc", "'abc'"), ("0.1", "x=None")],
        ids=["non-numeric", "missing-field"],
    )
    def test_malformed_cell_named(self, capsys, tmp_path, row, message):
        data = tmp_path / "bad.csv"
        data.write_text(f"t,x\n0.0,0.0\n{row}\n0.2,0.3\n")
        code, _, err = run(capsys, "fit", "--data", str(data), "--beta", "1")
        assert code == 1
        assert err.startswith("error: UsageError:") and err.count("\n") == 1
        assert "bad.csv line 3" in err and message in err

    def test_unreadable_data_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "--data", str(tmp_path), "--beta", "1")
        assert code == 1
        assert err.startswith("error: UsageError:") and str(tmp_path) in err

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

    def test_restarts_below_one_rejected(self, capsys, tmp_path):
        # checked before the data file is read
        code, _, err = run(
            capsys, "fit", "--data", str(tmp_path / "gone.csv"), "--beta", "1",
            "--restarts", "0",
        )
        assert code == 2
        assert "DomainError" in err and "restarts" in err

    def test_model_and_model_config_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "fit", "--data", "path.csv", "--beta", "1",
                "--model", "nonlinear-2d", "--model-config", "model.yaml",
            ])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--model-config" in err and "not allowed with argument --model" in err

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

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    @pytest.mark.parametrize("command", ["mc", "llt", "fit"])
    def test_unreadable_config(self, capsys, tmp_path, command, kind):
        cfg = tmp_path / "cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"\xff\xfe\x00preset: nig-1d\n")
        argv = {
            "mc": ["mc", "--config", str(cfg), "--out", str(tmp_path / "out")],
            "llt": ["llt", "--config", str(cfg), "--out", str(tmp_path / "out")],
            "fit": ["fit", "--data", str(tmp_path / "path.csv"),
                    "--model-config", str(cfg), "--beta", "1"],
        }[command]
        (tmp_path / "path.csv").write_text("t,x\n0.0,0.0\n0.1,0.2\n0.2,0.1\n")
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: UsageError:") and str(cfg) in err

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


    def test_driver_without_sampler(self, capsys, tmp_path):
        # rejected when the config is read, before any replicate runs
        cfg = tmp_path / "ts.yaml"
        cfg.write_text(
            "preset: nig-1d\n"
            "noise: {kind: tempered_stable, beta: 1.5, lambda_tempering: 1.0}\n"
        )
        code, _, err = run(capsys, "mc", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "tempered_stable" in err
        assert not (tmp_path / "out").exists()


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

    def test_nig_is_gh_at_lambda_minus_half(self, capsys, tmp_path):
        drivers = {
            "nig": ["cf.kind=nig", "cf.eta=5"],
            "gh": ["cf.kind=gh_nig", "cf.beta=1", "cf.gh_lambda=-0.5", "cf.gh_eta=5"],
        }
        for name, sets in drivers.items():
            argv = ["llt", "--out", str(tmp_path / name), "--set", "h_values=[0.1, 0.03, 0.01, 0.001]"]
            for item in sets:
                argv += ["--set", item]
            assert run(capsys, *argv)[0] == 0
        nig, gh = tmp_path / "nig", tmp_path / "gh"
        assert (nig / "l1.csv").read_bytes() == (gh / "l1.csv").read_bytes()
        rate_nig = json.loads((nig / "rate.json").read_text())
        rate_gh = json.loads((gh / "rate.json").read_text())
        assert (rate_nig.pop("kind"), rate_gh.pop("kind")) == ("nig", "gh_nig")
        assert rate_nig == rate_gh

    def test_missing_beta(self, capsys, tmp_path):
        code, _, err = run(capsys, "llt", "--out", str(tmp_path / "out"), "--set", "cf.kind=stable")
        assert code == 2
        assert "DomainError" in err and "'beta'" in err

    def test_no_driver_names_both_remedies(self, capsys, tmp_path):
        code, _, err = run(capsys, "llt", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "UsageError" in err and "'cf' section" in err and "--set cf.kind=" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "llt", "--out", str(tmp_path / "out"), "--set", "hvals=[1]",
        )
        assert code == 1
        assert "hvals" in err

    def test_h_values_and_h_grid_together(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "llt", "--out", str(tmp_path / "out"),
            "--set", "cf.kind=stable", "--set", "cf.beta=1.5",
            "--set", "h_values=[0.1, 0.01]",
            "--set", "h_grid={start: -1, stop: -3, count: 4}",
        )
        assert code == 1
        assert "h_values" in err and "h_grid" in err
        assert not (tmp_path / "out").exists()
