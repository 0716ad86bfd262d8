"""Studentization, empirical information, and confidence intervals."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stableql
from stableql import inference
from stableql.errors import NumericError
from stableql.inference import (
    confidence_intervals,
    empirical_information,
    psd_sqrt,
    studentize,
)
from stableql.models import Theta, build_model
from stableql.samplers import NoiseSpec, RngStream
from stableql.sde import simulate_fine, thin
from stableql.sqlik import OptimizerConfig, fit, rate_exponent


class TestPsdSqrt:
    def test_square_root_property(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        mat = a @ a.T + 0.1 * np.eye(3)
        root = psd_sqrt(mat)
        assert np.allclose(root @ root, mat, atol=1e-10)
        assert np.allclose(root, root.T)

    def test_clips_tiny_eigenvalues(self):
        mat = np.diag([1.0, 1e-30])
        root = psd_sqrt(mat)
        assert np.all(np.isfinite(root))
        assert root[1, 1] > 0

    def test_rejects_negative_definite(self):
        with pytest.raises(NumericError):
            psd_sqrt(-np.eye(2))


class TestEmpiricalInformation:
    def test_constant_scale_model(self, stable_series):
        # a = a1 x, c = g1: Sig_alpha = mean(x^2)/g1^2, Sig_gamma = 1/g1^2
        model = build_model("ou-const")
        theta = Theta([-1.0], [0.8])
        sig_a, sig_g = empirical_information(stable_series, model, theta)
        xl = stable_series.x[:-1]
        assert sig_a[0, 0] == pytest.approx(np.mean(xl**2) / 0.8**2)
        assert sig_g[0, 0] == pytest.approx(1.0 / 0.8**2)

    def test_shapes_2d(self, nig_series, nonlinear_2d):
        sig_a, sig_g = empirical_information(nig_series, nonlinear_2d,
                                             nonlinear_2d.theta_true)
        assert sig_a.shape == (2, 2)
        assert sig_g.shape == (2, 2)
        assert np.all(np.linalg.eigvalsh(sig_a) > 0)
        assert np.all(np.linalg.eigvalsh(sig_g) > 0)


class TestStudentize:
    def test_zero_at_reference(self, stable_series, nonlinear_1d, kernel15):
        theta = nonlinear_1d.theta_true
        rep = studentize(stable_series, nonlinear_1d, theta, theta, kernel15)
        assert np.allclose(rep.z, 0.0)

    def test_linear_in_deviation(self, stable_series, nonlinear_1d, kernel15):
        theta0 = nonlinear_1d.theta_true
        shift = np.array([0.02, -0.03])
        th = Theta.from_full(theta0.full + shift, 1)
        rep = studentize(stable_series, nonlinear_1d, th, theta0, kernel15)
        assert rep.z_alpha[0] == pytest.approx(rep.scale_alpha[0, 0] * shift[0])
        assert rep.z_gamma[0] == pytest.approx(rep.scale_gamma[0, 0] * shift[1])

    def test_rates(self, stable_series, nonlinear_1d, kernel15):
        # alpha pivot scales with sqrt(n) h^{1-1/beta}, gamma with sqrt(n)
        theta0 = nonlinear_1d.theta_true
        th = Theta.from_full(theta0.full + 0.01, 1)
        rep = studentize(stable_series, nonlinear_1d, th, theta0, kernel15)
        n, h = stable_series.n, stable_series.h
        const = kernel15.info_constants()
        sig_a, sig_g = empirical_information(stable_series, nonlinear_1d, th)
        expect_a = (
            np.sqrt(const.c_alpha * sig_a[0, 0]) * np.sqrt(n) * rate_exponent(h, 1.5) * 0.01
        )
        expect_g = np.sqrt(const.c_gamma * sig_g[0, 0]) * np.sqrt(n) * 0.01
        assert rep.z_alpha[0] == pytest.approx(expect_a)
        assert rep.z_gamma[0] == pytest.approx(expect_g)


class TestConfidenceIntervals:
    def test_contains_estimate_and_widens_with_level(self, stable_series,
                                                     nonlinear_1d, kernel15):
        opt = OptimizerConfig(restarts=3)
        result = fit(stable_series, nonlinear_1d, 1.5, kernel15, opt, RngStream(5, 0))
        rep = studentize(stable_series, nonlinear_1d, result.theta_hat,
                         nonlinear_1d.theta_true, kernel15)
        ci95 = confidence_intervals(rep, 0.95)
        ci99 = confidence_intervals(rep, 0.99)
        assert np.array_equal(confidence_intervals(rep), ci95)
        mid = result.theta_hat.full
        assert np.all(ci95[:, 0] < mid) and np.all(mid < ci95[:, 1])
        assert np.all(ci99[:, 0] < ci95[:, 0]) and np.all(ci95[:, 1] < ci99[:, 1])

    def test_inverts_the_report_alone(self, stable_series, nonlinear_1d, kernel15,
                                      monkeypatch):
        # the half-widths are q sqrt(diag(M^-2)) of the report's own scale
        # matrices, whatever theta_ref the report was made around
        from stableql import inference

        th = Theta.from_full(nonlinear_1d.theta_true.full + 0.05, 1)
        rep = studentize(stable_series, nonlinear_1d, th, nonlinear_1d.theta_true, kernel15)

        def forbidden(*args, **kwargs):
            raise AssertionError("confidence_intervals recomputed the pivots")

        monkeypatch.setattr(inference, "studentize", forbidden)
        monkeypatch.setattr(inference, "empirical_information", forbidden)
        ci = confidence_intervals(rep, 0.9)
        q = 1.6448536269514722
        half = q / np.concatenate([np.diag(rep.scale_alpha), np.diag(rep.scale_gamma)])
        assert np.allclose(ci[:, 0], th.full - half, rtol=1e-14, atol=0)
        assert np.allclose(ci[:, 1], th.full + half, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_quantile_matches_scipy(self, level):
        # the standard library's quantile is 3, 2 and 1 ulp from scipy's
        # correctly rounded ndtri at these levels
        from statistics import NormalDist

        from scipy.special import ndtri

        expected = ndtri(0.5 + level / 2.0)
        assert abs(NormalDist().inv_cdf(0.5 + level / 2.0) - expected) <= 4 * np.spacing(expected)

    def test_invalid_level(self, stable_series, nonlinear_1d, kernel15):
        theta = nonlinear_1d.theta_true
        rep = studentize(stable_series, nonlinear_1d, theta, theta, kernel15)
        with pytest.raises(NumericError):
            confidence_intervals(rep, 1.5)


class TestPivotDistribution:
    def test_pivots_near_standard_normal(self, kernel1):
        # moderate replication sanity check of the mixed-normal limit
        model = build_model("nonlinear-1d")
        zs = []
        for rep in range(30):
            rng = RngStream(99, rep)
            fine = simulate_fine(model, NoiseSpec("nig", eta=5.0), 1.0, 50000, 0.0, rng)
            obs = thin(fine, 50)
            opt = OptimizerConfig(
                restarts=3,
                init_windows=tuple((t - 10, t + 10) for t in model.theta_true.full),
            )
            result = fit(obs, model, 1.0, kernel1, opt, rng)
            rep_s = studentize(obs, model, result.theta_hat, model.theta_true, kernel1)
            zs.append(rep_s.z)
        zs = np.array(zs)
        assert np.max(np.abs(zs.mean(axis=0))) < 0.6
        assert np.all(zs.std(axis=0) > 0.5) and np.all(zs.std(axis=0) < 1.7)


def test_import_does_not_load_scipy_stats():
    """The normal quantile comes from the standard library's statistics module;
    scipy.stats is slow to import."""
    src = str(Path(stableql.__file__).resolve().parents[1])
    code = "import sys, stableql; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
