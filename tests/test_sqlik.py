"""Quasi-likelihood objective, analytic derivatives, and the fitter."""

import numpy as np
import pytest
from scipy.optimize import minimize

from stableql.errors import DomainError, ModelViolationError, OptimizationError
from stableql.models import Theta, build_model
from stableql.samplers import NoiseSpec, RngStream
from stableql.sde import ObservationSeries, simulate_fine, thin
from stableql.sqlik import (
    OptimizerConfig,
    fit,
    quasi_hessian,
    quasi_loglik,
    quasi_score,
    rate_exponent,
    residuals,
)


def perturbed(model, shift):
    return Theta.from_full(model.theta_true.full + shift, model.p_alpha)


class TestResiduals:
    def test_zero_at_exact_euler_step(self, nonlinear_1d):
        theta = nonlinear_1d.theta_true
        h = 0.01
        x = np.empty(4)
        x[0] = 1.0
        for j in range(3):
            x[j + 1] = x[j] + h * nonlinear_1d.drift(x[j], theta.alpha)
        obs = ObservationSeries(x=x, h=h, T=3 * h, n=3)
        eps = residuals(obs, nonlinear_1d, theta, 1.5)
        assert np.allclose(eps, 0.0, atol=1e-14)

    def test_scaling(self, stable_series):
        # doubling a log-constant scale halves every residual
        model = build_model("ou-expscale")
        theta = model.theta_true
        e1 = residuals(stable_series, model, theta, 1.5)
        doubled = Theta(alpha=theta.alpha, gamma=theta.gamma + np.log(2.0))
        e2 = residuals(stable_series, model, doubled, 1.5)
        assert np.allclose(e2, e1 / 2.0, atol=1e-12)

    def test_negative_scale_raises(self, stable_series):
        model = build_model(
            drift="a1*x", scale="g1", p_alpha=1, p_gamma=1,
            bounds=[(-2, 0), (-2, 2)], theta_true=[-1.0, 1.0],
        )
        with pytest.raises(ModelViolationError, match="non-positive"):
            residuals(stable_series, model, Theta([-1.0], [-0.5]), 1.5)


class TestLoglik:
    def test_cauchy_branch_matches_manual_assembly(self, stable_series, nonlinear_1d):
        theta = perturbed(nonlinear_1d, 0.1)
        explicit = quasi_loglik(stable_series, nonlinear_1d, theta, 1.0)
        # same quantity assembled independently from the Cauchy density
        c = nonlinear_1d.scale(stable_series.x[:-1], theta.gamma)
        eps = residuals(stable_series, nonlinear_1d, theta, 1.0)
        manual = -np.sum(np.log(np.pi * stable_series.h) + np.log(c) + np.log1p(eps**2))
        assert explicit == pytest.approx(manual, rel=1e-12)

    def test_requires_kernel_for_general_beta(self, stable_series, nonlinear_1d):
        with pytest.raises(DomainError):
            quasi_loglik(stable_series, nonlinear_1d, nonlinear_1d.theta_true, 1.5)

    @pytest.mark.parametrize(
        "function", [quasi_loglik, quasi_score, quasi_hessian],
        ids=["loglik", "score", "hessian"],
    )
    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_kernel_beta_must_match(self, stable_series, nonlinear_1d, kernel1,
                                    kernel15, function, beta):
        other = kernel15 if beta == 1.0 else kernel1
        with pytest.raises(DomainError, match="kernel"):
            function(stable_series, nonlinear_1d, nonlinear_1d.theta_true, beta, other)

    def test_maximized_near_truth(self, stable_series, nonlinear_1d, kernel15):
        at_truth = quasi_loglik(stable_series, nonlinear_1d,
                                nonlinear_1d.theta_true, 1.5, kernel15)
        for shift in [0.5, -0.5, 1.0]:
            away = quasi_loglik(stable_series, nonlinear_1d,
                                perturbed(nonlinear_1d, shift), 1.5, kernel15)
            assert away < at_truth


class TestRateExponent:
    def test_beta_one_is_unity(self):
        assert rate_exponent(1e-4, 1.0) == 1.0

    def test_general(self):
        assert rate_exponent(0.01, 1.5) == pytest.approx(0.01 ** (1 - 1 / 1.5))


class TestDerivatives:
    @pytest.mark.parametrize("beta", [1.0, 1.5])
    @pytest.mark.parametrize("model_name", ["nonlinear-1d", "nonlinear-2d"])
    def test_score_and_hessian_match_fd(self, beta, model_name, kernel1, kernel15):
        kernel = kernel1 if beta == 1.0 else kernel15
        model = build_model(model_name)
        noise = NoiseSpec("stable", beta=beta)
        fine = simulate_fine(model, noise, 5.0, 25000, 1.0, RngStream(7, 11))
        obs = thin(fine, 50)
        theta = perturbed(model, 0.1)
        vec = theta.full
        p = model.p

        score = quasi_score(obs, model, theta, beta, kernel)
        hess = quasi_hessian(obs, model, theta, beta, kernel)
        assert np.allclose(hess, hess.T)

        step = 1e-6
        for i in range(p):
            e = np.zeros(p)
            e[i] = step
            up = Theta.from_full(vec + e, model.p_alpha)
            dn = Theta.from_full(vec - e, model.p_alpha)
            fd_s = (
                quasi_loglik(obs, model, up, beta, kernel)
                - quasi_loglik(obs, model, dn, beta, kernel)
            ) / (2 * step)
            assert abs(score[i] - fd_s) / (1 + abs(fd_s)) < 1e-5
            fd_h = (
                quasi_score(obs, model, up, beta, kernel)
                - quasi_score(obs, model, dn, beta, kernel)
            ) / (2 * step)
            assert np.max(np.abs(hess[:, i] - fd_h) / (1 + np.abs(fd_h))) < 1e-4

    @pytest.mark.parametrize("derivative", [quasi_score, quasi_hessian])
    def test_one_g_evaluation(self, derivative, stable_series, nonlinear_1d, kernel15,
                              monkeypatch):
        # k = 1 + eps g comes from the same g values, not from a second kernel call
        calls = []
        g = kernel15.g
        monkeypatch.setattr(kernel15, "g", lambda y: calls.append(y) or g(y))
        derivative(stable_series, nonlinear_1d, perturbed(nonlinear_1d, 0.1), 1.5, kernel15)
        assert len(calls) == 1


class TestFit:
    @pytest.mark.parametrize(
        "beta,noise",
        [(1.0, NoiseSpec("nig", eta=5.0)), (1.5, NoiseSpec("stable", beta=1.5))],
    )
    def test_recovers_truth(self, beta, noise, nonlinear_1d, kernel1, kernel15):
        kernel = kernel1 if beta == 1.0 else kernel15
        T = 1.0 if beta == 1.0 else 5.0
        fine = simulate_fine(nonlinear_1d, noise, T, 150000, 0.5, RngStream(12, 5))
        obs = thin(fine, 50)
        opt = OptimizerConfig(
            restarts=4,
            init_windows=tuple((t - 10, t + 10) for t in nonlinear_1d.theta_true.full),
        )
        result = fit(obs, nonlinear_1d, beta, kernel, opt, RngStream(12, 5))
        assert result.converged
        assert result.score_norm < 1e-4
        assert np.max(np.abs(result.theta_hat.full - nonlinear_1d.theta_true.full)) < 0.3

    def test_deterministic(self, stable_series, nonlinear_1d, kernel15):
        opt = OptimizerConfig(restarts=3)
        a = fit(stable_series, nonlinear_1d, 1.5, kernel15, opt, RngStream(1, 2))
        b = fit(stable_series, nonlinear_1d, 1.5, kernel15, opt, RngStream(1, 2))
        assert np.array_equal(a.theta_hat.full, b.theta_hat.full)
        assert a.loglik == b.loglik

    def test_all_restarts_failing_names_violation(self, stable_series):
        model = build_model(
            drift="a1*x", scale="g1", p_alpha=1, p_gamma=1,
            bounds=[(-2, 2), (-2.0, -0.1)],
        )
        with pytest.raises(OptimizationError, match="model violation"):
            fit(stable_series, model, 1.0, opt=OptimizerConfig(restarts=2),
                rng=RngStream(3, 0))

    def test_kernel_beta_must_match(self, stable_series, nonlinear_1d, kernel1):
        with pytest.raises(DomainError, match="kernel"):
            fit(stable_series, nonlinear_1d, 1.5, kernel1, OptimizerConfig(restarts=1))

    def test_simplex_finds_no_higher_value(self, stable_series, nonlinear_1d, kernel15):
        """Derivative-free cross-check: Nelder-Mead started near the winner."""
        windows = tuple((t - 2, t + 2) for t in nonlinear_1d.theta_true.full)
        best = fit(stable_series, nonlinear_1d, 1.5, kernel15,
                   OptimizerConfig(restarts=3, init_windows=windows), RngStream(4, 0))

        def neg_loglik(vec):
            theta = Theta.from_full(vec, nonlinear_1d.p_alpha)
            return -quasi_loglik(stable_series, nonlinear_1d, theta, 1.5, kernel15)

        nm = minimize(
            neg_loglik, best.theta_hat.full + 0.05, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        assert nm.success
        assert np.max(np.abs(nm.x - best.theta_hat.full)) < 1e-5
        assert best.loglik >= -nm.fun - 1e-9
