"""Monte Carlo harness: execution, aggregation, determinism, failure policy."""

import csv
import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stableql import harness
from stableql.errors import (
    DomainError,
    PartialFailureError,
    SimulationOverflowError,
    UsageError,
)
from stableql.harness import (
    Design,
    ExperimentConfig,
    PRESETS,
    preset_config,
    run_experiment,
    summarize,
)
from stableql.samplers import NoiseSpec
from stableql.sqlik import OptimizerConfig


def small_config(**overrides):
    base = dict(
        model_name="nonlinear-1d",
        noise=NoiseSpec("nig", eta=5.0),
        designs=(Design(1.0, 100, 30), Design(1.0, 300, 10)),
        replicates=6,
        base_seed=11,
        beta_fit=1.0,
        optimizer=OptimizerConfig(restarts=2, init_windows=((-11, 9), (-8.5, 11.5))),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def strip_seconds(path):
    lines = Path(path).read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestValidation:
    def test_bad_replicates(self):
        with pytest.raises(DomainError):
            small_config(replicates=0)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            small_config(beta_fit=2.0)

    def test_duplicate_designs(self):
        with pytest.raises(DomainError, match="duplicate"):
            small_config(designs=(Design(1.0, 100, 30), Design(1.0, 100, 10)))

    def test_bad_design(self):
        with pytest.raises(DomainError):
            Design(0.0, 100, 50)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_build(self, name):
        config = preset_config(name)
        assert config.replicates == 200
        model = config.build_model()
        assert model.theta_true is not None
        # designs within one horizon share a fine grid so one path serves all
        by_T = {}
        for d in config.designs:
            by_T.setdefault(d.T, set()).add(d.n_fine)
        assert all(len(v) == 1 for v in by_T.values())

    def test_unknown_preset(self):
        with pytest.raises(UsageError, match="unknown preset"):
            preset_config("nope")

    def test_protocol_shapes(self):
        nig = preset_config("nig-1d")
        assert sorted(d.n for d in nig.designs) == [500, 1000, 3000]
        assert all(d.n_fine == 150000 for d in nig.designs)
        stable = preset_config("stable15-1d")
        assert sorted({d.T for d in stable.designs}) == [5.0, 10.0]
        assert sorted({d.n for d in stable.designs}) == [100, 200, 500]


class TestRunExperiment:
    def test_outputs(self, tmp_path):
        out = run_experiment(small_config(), tmp_path / "run", workers=2)
        for name in ["replicates.csv", "summary.json", "histograms.csv", "boxplots.csv"]:
            assert (out / name).exists()
        rows = read_rows(out / "replicates.csv")
        assert len(rows) == 12
        assert {r["design"] for r in rows} == {"T1-n100", "T1-n300"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["T1-n100"]["n_total"] == 6
        hist = read_rows(out / "histograms.csv")
        assert len(hist) == 2 * 2 * 50
        counts = sum(int(r["count"]) for r in hist)
        assert counts <= 2 * 2 * 6

    def test_deterministic_across_worker_counts(self, tmp_path):
        config = small_config()
        a = run_experiment(config, tmp_path / "a", workers=1)
        b = run_experiment(config, tmp_path / "b", workers=3)
        for name in ["summary.json", "histograms.csv", "boxplots.csv"]:
            assert filecmp.cmp(a / name, b / name, shallow=False)
        assert strip_seconds(a / "replicates.csv") == strip_seconds(b / "replicates.csv")

    def test_seed_changes_results(self, tmp_path):
        a = run_experiment(small_config(), tmp_path / "a", workers=2)
        b = run_experiment(small_config(base_seed=12), tmp_path / "b", workers=2)
        assert not filecmp.cmp(a / "summary.json", b / "summary.json", shallow=False)

    def test_reuses_cached_model(self, tmp_path, monkeypatch):
        config = small_config(replicates=1)
        run_experiment(config, tmp_path / "a", workers=1)
        builds = []
        build = ExperimentConfig.build_model

        def counting(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(ExperimentConfig, "build_model", counting)
        run_experiment(config, tmp_path / "b", workers=1)
        assert builds == []

    def test_failure_threshold(self, tmp_path):
        config = small_config(
            model_name=None,
            model_kwargs=(
                ("bounds", ((-2.0, 0.0), (-2.0, -0.1))),
                ("drift", "a1*x"),
                ("p_alpha", 1),
                ("p_gamma", 1),
                ("scale", "g1"),
                ("theta_true", (-1.0, 1.0)),
            ),
            replicates=3,
        )
        with pytest.raises(PartialFailureError, match="replicate cells failed"):
            run_experiment(config, tmp_path / "fail", workers=1)
        rows = read_rows(tmp_path / "fail" / "replicates.csv")
        assert rows and all(r["converged"] == "0" for r in rows)


class TestSimulationFailures:
    def test_program_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the simulator")

        monkeypatch.setattr(harness, "simulate_fine", broken)
        with pytest.raises(RuntimeError, match="bug in the simulator"):
            run_experiment(small_config(replicates=2), tmp_path / "run", workers=1)

    def test_overflow_fails_the_cells(self, tmp_path, monkeypatch):
        def overflow(*args, **kwargs):
            raise SimulationOverflowError(7, math.inf)

        monkeypatch.setattr(harness, "simulate_fine", overflow)
        with pytest.raises(PartialFailureError):
            run_experiment(small_config(replicates=2), tmp_path / "run", workers=1)
        rows = read_rows(tmp_path / "run" / "replicates.csv")
        assert len(rows) == 4 and all(r["converged"] == "0" for r in rows)


class TestSummarize:
    def test_round_trip(self, tmp_path):
        out = run_experiment(small_config(), tmp_path / "run", workers=2)
        recomputed = summarize(out / "replicates.csv")
        on_disk = json.loads((out / "summary.json").read_text())
        assert recomputed == on_disk

    def test_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("rep,design,theta_1,z_1,cover_1,converged,seconds\n")
        with pytest.raises(UsageError):
            summarize(path)

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "rep,design,theta_1,z_1,cover_1,converged,seconds\n"
            "0,d,1.5,0.3,1,1,0.1\n"
        )
        summary = summarize(path)
        coord = summary["d"]["coordinates"][0]
        assert coord["theta_median"] == 1.5
        assert coord["z_mean"] == 0.3
        assert coord["ci_coverage"] == 1.0

    def test_symmetric_rows_mean_zero(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "rep,design,theta_1,z_1,cover_1,converged,seconds\n"
            "0,d,1.0,0.7,1,1,0.1\n"
            "1,d,2.0,-0.7,0,1,0.1\n"
        )
        coord = summarize(path)["d"]["coordinates"][0]
        assert coord["z_mean"] == 0.0
        assert coord["ci_coverage"] == 0.5

    def test_excludes_non_converged(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "rep,design,theta_1,z_1,cover_1,converged,seconds\n"
            "0,d,1.0,0.5,1,1,0.1\n"
            "1,d,nan,nan,0,0,0.1\n"
        )
        summary = summarize(path)
        assert summary["d"]["n_failed"] == 1
        assert summary["d"]["coordinates"][0]["z_mean"] == 0.5


class TestHorizonScaling:
    def test_alpha_sd_improves_with_T(self, tmp_path):
        # for beta = 1.5 the alpha rate is T^{1-1/beta} sqrt(n) n^{...}; at
        # fixed n the predicted sd ratio between T=10 and T=5 is 2^{-1/3}
        config = ExperimentConfig(
            model_name="nonlinear-1d",
            noise=NoiseSpec("stable", beta=1.5),
            designs=(Design(5.0, 100, 50), Design(10.0, 100, 50)),
            replicates=200,
            base_seed=77,
            beta_fit=1.5,
            optimizer=OptimizerConfig(restarts=2, init_windows=((-11, 9), (-8.5, 11.5))),
        )
        out = run_experiment(config, tmp_path / "scaling", workers=8)
        rows = read_rows(out / "replicates.csv")
        sd = {}
        for label in ["T5-n100", "T10-n100"]:
            vals = [float(r["theta_1"]) for r in rows
                    if r["design"] == label and r["converged"] == "1"]
            sd[label] = np.std(vals, ddof=1)
        predicted_ratio = (10.0 / 5.0) ** (1.0 / 1.5 - 1.0)
        assert sd["T10-n100"] <= 1.3 * predicted_ratio * sd["T5-n100"]
