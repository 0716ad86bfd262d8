"""Config loading, overrides, and validation."""

import numpy as np
import pytest

from stableql.config import (
    apply_overrides,
    experiment_from_config,
    llt_from_config,
    load_config,
)
from stableql.errors import UsageError


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_not_a_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(UsageError, match="mapping"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text("preset: nig-1d\nreplicates: 10\n")
        assert load_config(path) == {"preset": "nig-1d", "replicates": 10}


class TestOverrides:
    def test_scalar_and_nested(self):
        cfg = apply_overrides({"a": 1}, ["a=2", "b.c=1e-3", "b.d=[1, 2]"])
        assert cfg["a"] == 2
        assert cfg["b"]["c"] == 1e-3
        assert cfg["b"]["d"] == [1, 2]

    def test_bad_format(self):
        with pytest.raises(UsageError, match="key=value"):
            apply_overrides({}, ["novalue"])

    def test_empty_key(self):
        with pytest.raises(UsageError, match="empty key"):
            apply_overrides({}, ["a..b=1"])


class TestExperimentFromConfig:
    def test_preset_with_overrides(self):
        config = experiment_from_config(
            {"preset": "nig-1d", "replicates": 7, "base_seed": 3}
        )
        assert config.replicates == 7
        assert config.base_seed == 3
        assert config.model_name == "nonlinear-1d"
        assert config.noise.kind == "nig"

    def test_full_explicit(self):
        config = experiment_from_config(
            {
                "model": "nonlinear-1d",
                "noise": {"kind": "stable", "beta": 1.5},
                "designs": [{"T": 5.0, "n": 100, "fine_factor": 50}],
                "beta_fit": 1.5,
                "replicates": 4,
            }
        )
        assert config.designs[0].n_fine == 5000
        assert config.beta_fit == 1.5

    def test_expression_model(self):
        config = experiment_from_config(
            {
                "model": {
                    "drift": "a1*x",
                    "scale": "exp(g1)",
                    "p_alpha": 1,
                    "p_gamma": 1,
                    "bounds": [[-3, 1], [-2, 2]],
                    "theta_true": [-1.0, 0.0],
                },
                "noise": {"kind": "stable", "beta": 1.5},
                "designs": [{"T": 1.0, "n": 50, "fine_factor": 10}],
                "beta_fit": 1.5,
            }
        )
        model = config.build_model()
        assert model.p == 2
        assert np.allclose(model.theta_true.full, [-1.0, 0.0])

    def test_unknown_top_level_key_named(self):
        with pytest.raises(UsageError, match="'replicate'"):
            experiment_from_config({"preset": "nig-1d", "replicate": 5})

    def test_unknown_noise_key_named(self):
        with pytest.raises(UsageError, match="'kappa'"):
            experiment_from_config(
                {"preset": "nig-1d", "noise": {"kind": "nig", "kappa": 1}}
            )

    def test_unknown_optimizer_key_named(self):
        with pytest.raises(UsageError, match="'method'"):
            experiment_from_config(
                {"preset": "nig-1d", "optimizer": {"method": "nelder-mead"}}
            )

    def test_missing_required(self):
        with pytest.raises(UsageError, match="model"):
            experiment_from_config({"beta_fit": 1.0})

    def test_design_missing_key(self):
        with pytest.raises(UsageError, match="fine_factor"):
            experiment_from_config(
                {
                    "model": "nonlinear-1d",
                    "noise": {"kind": "nig", "eta": 5.0},
                    "designs": [{"T": 1.0, "n": 50}],
                    "beta_fit": 1.0,
                }
            )

    def test_optimizer_section(self):
        config = experiment_from_config(
            {
                "preset": "stable15-1d",
                "optimizer": {"restarts": 5, "init_windows": [[-2, 0], [1, 2]]},
            }
        )
        assert config.optimizer.restarts == 5
        assert config.optimizer.init_windows == ((-2.0, 0.0), (1.0, 2.0))


class TestLltFromConfig:
    def test_defaults(self):
        cf, h_values, grid = llt_from_config(
            {"cf": {"kind": "tempered_stable", "beta": 1.5, "lambda_tempering": 1.0}}
        )
        assert cf.kind == "tempered_stable"
        assert len(h_values) == 6
        assert h_values[0] == pytest.approx(0.1)
        assert h_values[-1] == pytest.approx(1e-3)
        assert grid[0] == -60.0 and grid[-1] == 60.0

    def test_h_grid(self):
        _, h_values, _ = llt_from_config(
            {
                "cf": {"kind": "stable", "beta": 1.2},
                "h_grid": {"start": -1, "stop": -4, "count": 4},
            }
        )
        assert np.allclose(h_values, [1e-1, 1e-2, 1e-3, 1e-4])

    def test_missing_cf(self):
        with pytest.raises(UsageError, match="cf"):
            llt_from_config({})

    def test_unknown_cf_key(self):
        with pytest.raises(UsageError, match="'mu'"):
            llt_from_config({"cf": {"kind": "stable", "beta": 1.5, "mu": 0}})
