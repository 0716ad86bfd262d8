"""Quasi-likelihood objective, analytic derivatives, and the fitter."""

import pickle
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from stableql import sqlik
from stableql.config import preset_config
from stableql.errors import DomainError, ModelViolationError, OptimizationError, UsageError
from stableql.models import ModelSpec, Theta, build_model
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
from stableql.stable_core import StableKernel


# drift overflows for a1 * x > 709.8; a scale g1 near 1e-310 overflows eps
_OVERFLOW_MODEL = build_model(
    drift="a1*exp(a1*x)", scale="g1", p_alpha=1, p_gamma=1,
    bounds=[(-1000.0, 1000.0), (1e-320, 10.0)],
)


def perturbed(model, shift):
    return Theta.from_full(model.theta_true.full + shift, model.p_alpha)


def counting(calls, name, function):
    """function, appending name to calls on every call."""

    def counted(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    return counted


class TestResiduals:
    def test_zero_at_exact_euler_step(self, nonlinear_1d):
        theta = nonlinear_1d.theta_true
        h = 0.01
        x = np.empty(4)
        x[0] = 1.0
        for j in range(3):
            x[j + 1] = x[j] + h * nonlinear_1d.drift(x[j], theta.alpha)
        obs = ObservationSeries(x=x, h=h)
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

    @pytest.mark.parametrize(
        "alpha, gamma", [(700.0, 1.0), (0.1, 1e-310)], ids=["drift-overflow", "tiny-scale"]
    )
    def test_non_finite_residual_is_a_model_violation(self, kernel15, alpha, gamma):
        # the violation is the only signal: no floating-point warning first
        obs = ObservationSeries(x=np.linspace(1.5, 2.5, 51), h=0.01)
        theta = Theta([alpha], [gamma])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelViolationError, match="residual non-finite at observation 0"):
                quasi_loglik(obs, _OVERFLOW_MODEL, theta, 1.5, kernel15)


class TestLoglik:
    def test_cauchy_branch_matches_manual_assembly(self, stable_series, nonlinear_1d, kernel1):
        theta = perturbed(nonlinear_1d, 0.1)
        explicit = quasi_loglik(stable_series, nonlinear_1d, theta, 1.0, kernel1)
        # same quantity assembled independently from the Cauchy density
        c = nonlinear_1d.scale(stable_series.x[:-1], theta.gamma)
        eps = residuals(stable_series, nonlinear_1d, theta, 1.0)
        manual = -np.sum(np.log(np.pi * stable_series.h) + np.log(c) + np.log1p(eps**2))
        assert explicit == pytest.approx(manual, rel=1e-12)

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
        # patched on the class: undoing an instance patch would leave the bound
        # method behind on the session kernel, hiding later class patches
        monkeypatch.setattr(StableKernel, "g", counting(calls, "g", StableKernel.g))
        derivative(stable_series, nonlinear_1d, perturbed(nonlinear_1d, 0.1), 1.5, kernel15)
        assert len(calls) == 1


class TestOnePass:
    def test_loglik_then_score_share_one_pass(self, stable_series, nonlinear_1d,
                                              kernel15, monkeypatch):
        calls = []
        monkeypatch.setattr(ModelSpec, "coefficients",
                            counting(calls, "pass", ModelSpec.coefficients))
        theta = perturbed(nonlinear_1d, 0.1)
        quasi_loglik(stable_series, nonlinear_1d, theta, 1.5, kernel15)
        quasi_score(stable_series, nonlinear_1d, theta, 1.5, kernel15)
        quasi_hessian(stable_series, nonlinear_1d, theta, 1.5, kernel15)
        assert len(calls) == 1
        # another beta is another pass
        quasi_score(stable_series, nonlinear_1d, theta, 1.0, StableKernel(1.0))
        assert len(calls) == 2

    def test_theta_on_a_second_series_gets_its_own_score(
        self, stable_series, nig_series, nonlinear_1d, kernel15
    ):
        theta = perturbed(nonlinear_1d, 0.1)
        quasi_score(stable_series, nonlinear_1d, theta, 1.5, kernel15)
        reused = quasi_score(nig_series, nonlinear_1d, theta, 1.5, kernel15)
        fresh = quasi_score(nig_series, nonlinear_1d, perturbed(nonlinear_1d, 0.1),
                            1.5, kernel15)
        assert np.array_equal(reused, fresh)
        first = quasi_score(stable_series, nonlinear_1d, theta, 1.5, kernel15)
        assert not np.array_equal(first, fresh)

    def test_theta_is_read_only(self, nonlinear_1d):
        vec = nonlinear_1d.theta_true.full
        theta = Theta.from_full(vec, nonlinear_1d.p_alpha)
        vec[0] += 1.0
        assert theta.alpha[0] == nonlinear_1d.theta_true.alpha[0]
        with pytest.raises(ValueError):
            theta.alpha[0] = 0.0

    def test_theta_pickles_without_its_pass(self, stable_series, nonlinear_1d, kernel15):
        # the remembered pass holds the model, whose compiled functions do not pickle
        theta = perturbed(nonlinear_1d, 0.1)
        score = quasi_score(stable_series, nonlinear_1d, theta, 1.5, kernel15)
        copy = pickle.loads(pickle.dumps(theta))
        assert np.array_equal(copy.full, theta.full) and copy._memo is None
        assert np.array_equal(
            quasi_score(stable_series, nonlinear_1d, copy, 1.5, kernel15), score
        )

    def test_fit_makes_one_pass_per_round(self, stable_series, nonlinear_1d,
                                          kernel15, monkeypatch):
        # one coefficients call per round, on the stack of that round's points
        stacks, rounds = [], []
        coefficients = ModelSpec.coefficients

        def recording(self, x, alpha, gamma):
            stacks.append(len(alpha))
            return coefficients(self, x, alpha, gamma)

        monkeypatch.setattr(ModelSpec, "coefficients", recording)
        monkeypatch.setattr(sqlik, "quasi_loglik",
                            counting(rounds, "round", sqlik.quasi_loglik))
        result = fit(stable_series, nonlinear_1d, 1.5, kernel15,
                     OptimizerConfig(restarts=2), RngStream(1, 2))
        assert len(stacks) == len(rounds)
        assert sum(stacks) == result.n_evals
        assert stacks[0] == 2 and all(1 <= size <= 2 for size in stacks)

    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_fit_call_sites(self, beta, stable_series, nonlinear_1d, kernel1, kernel15,
                            monkeypatch):
        # the benchmark's tracer counts the fit's likelihood and kernel calls
        # through these four attributes: each round calls each once, on the
        # stack of its points, whose sizes add up to the points evaluated
        calls, rows = [], {"log_density": [], "g": []}
        for owner, name in [(sqlik, "quasi_loglik"), (sqlik, "quasi_score"),
                            (StableKernel, "log_density"), (StableKernel, "g")]:
            original = getattr(owner, name)

            def recording(*args, name=name, original=original):
                calls.append(name)
                if name in rows:
                    rows[name].append(len(args[1]))
                return original(*args)

            monkeypatch.setattr(owner, name, recording)
        kernel = kernel1 if beta == 1.0 else kernel15
        result = fit(stable_series, nonlinear_1d, beta, kernel,
                     OptimizerConfig(restarts=2), RngStream(1, 2))
        rounds = calls.count("quasi_loglik")
        assert calls == ["quasi_loglik", "log_density", "quasi_score", "g"] * rounds
        assert rows["log_density"] == rows["g"]
        assert sum(rows["log_density"]) == result.n_evals
        assert 1 <= rounds < result.n_evals


class TestStackedPass:
    """A stack of points gives, row by row, the bits of single-point calls."""

    @pytest.mark.parametrize("size", [1, 3, 7])
    @pytest.mark.parametrize(
        "model_name, beta",
        [("nonlinear-1d", 1.0), ("nonlinear-1d", 1.5), ("nonlinear-2d", 1.5),
         ("ou-const", 1.5), ("ou-expscale", 1.0)],
    )
    def test_rows_equal_single_points(self, size, model_name, beta, stable_series,
                                      kernel1, kernel15):
        # ou-const's scale g1 and ou-expscale's exp(g1) do not involve x, and
        # ou-const's dc = 1 is a constant: each is broadcast across the stack
        model = build_model(model_name)
        kernel = kernel1 if beta == 1.0 else kernel15
        points = model.theta_true.full + np.random.default_rng(size).normal(
            0.0, 0.5, (size, model.p))
        # inside the box, where ou-const's g1 stays positive; the other boxes
        # lie 24 standard deviations out, so their points are as drawn
        points = np.clip(points, *np.transpose(model.bounds))
        if size > 1:
            # exp(g1 cos(x)) underflows to 0 where cos(x) > 0, overflows
            # elsewhere; g1 and exp(g1) are negative and 0
            points[1, model.p_alpha] = -1000.0
        stack = Theta.from_full(points, model.p_alpha)
        values = quasi_loglik(stable_series, model, stack, beta, kernel)
        scores = quasi_score(stable_series, model, stack, beta, kernel)
        hessians = quasi_hessian(stable_series, model, stack, beta, kernel)
        assert values.shape == (size,) and scores.shape == (size, model.p)
        assert hessians.shape == (size, model.p, model.p)
        for row, point in enumerate(points):
            theta = Theta.from_full(point, model.p_alpha)
            if size > 1 and row == 1:
                with pytest.raises(ModelViolationError, match="scale coefficient"):
                    quasi_loglik(stable_series, model, theta, beta, kernel)
                assert values[row] == -np.inf
                assert np.isnan(scores[row]).all() and np.isnan(hessians[row]).all()
                continue
            assert values[row] == quasi_loglik(stable_series, model, theta, beta, kernel)
            assert np.array_equal(scores[row], quasi_score(stable_series, model, theta, beta,
                                                           kernel))
            assert np.array_equal(hessians[row], quasi_hessian(stable_series, model, theta,
                                                               beta, kernel))

    def test_cauchy_rows_ignore_a_far_row(self, stable_series, nonlinear_1d, kernel1):
        # at beta = 1, row 1's residuals reach 4e175, beyond the Cauchy forms'
        # 1e150; the other rows keep the bits of their single-point calls
        points = np.array([[-1.0, 1.5], [-1.0, -400.0], [-0.5, 1.0]])
        stack = Theta.from_full(points, 1)
        eps = residuals(stable_series, nonlinear_1d, Theta.from_full(points[1], 1), 1.0)
        assert np.abs(eps).max() > 1e150
        values = quasi_loglik(stable_series, nonlinear_1d, stack, 1.0, kernel1)
        scores = quasi_score(stable_series, nonlinear_1d, stack, 1.0, kernel1)
        assert np.isfinite(values).all() and np.isfinite(scores).all()
        for row in (0, 2):
            theta = Theta.from_full(points[row], 1)
            assert values[row] == quasi_loglik(stable_series, nonlinear_1d, theta, 1.0, kernel1)
            assert np.array_equal(
                scores[row], quasi_score(stable_series, nonlinear_1d, theta, 1.0, kernel1))

    def test_violating_rows_never_reach_the_kernel(self, stable_series, nonlinear_1d,
                                                   kernel15, monkeypatch):
        rows = []
        log_density = StableKernel.log_density

        def recording(self, y):
            rows.append(len(y))
            return log_density(self, y)

        monkeypatch.setattr(StableKernel, "log_density", recording)
        points = np.array([[-1.0, 1.5], [-1.0, -1000.0], [-0.5, 1.0], [-1.0, 1e6]])
        values = quasi_loglik(stable_series, nonlinear_1d,
                              Theta.from_full(points, 1), 1.5, kernel15)
        assert rows == [2]
        assert np.isfinite(values[[0, 2]]).all() and (values[[1, 3]] == -np.inf).all()
        faults = sqlik._pass(stable_series, nonlinear_1d,
                             Theta.from_full(points, 1), 1.5).faults
        assert sorted(faults) == [1, 3]
        assert all(message.startswith("scale coefficient non-positive")
                   or message.startswith("residual non-finite")
                   for message in faults.values())


class TestLockstep:
    @pytest.mark.parametrize(
        "preset, design",
        [("stable15-1d", 0), ("nig-1d", 0), ("nig-2d", 0)],
        ids=["stable15-1d-T5-n100", "nig-1d-T1-n500", "nig-2d-T1-n500"],
    )
    def test_restarts_end_as_they_would_alone(self, preset, design):
        # each restart of a 3-restart drive ends at the bits of its start
        # driven alone, after as many evaluations
        config = preset_config(preset)
        model = config.build_model()
        kernel = StableKernel(config.beta_fit)
        d = config.designs[design]
        lo, hi = sqlik._start_box(model, config.optimizer.init_windows)
        for rep in range(12):
            rng = RngStream(config.base_seed, rep)
            obs = thin(simulate_fine(model, config.noise, d.T, d.n_fine, config.x0,
                                     rng.substream(100)), d.fine_factor)
            starts = rng.substream(0).generator(purpose=7).uniform(
                lo, hi, size=(3, model.p)).tolist()
            root_n = np.sqrt(obs.n)
            dn = ([root_n * rate_exponent(obs.h, config.beta_fit)] * model.p_alpha
                  + [root_n] * model.p_gamma)
            together, evals, _ = sqlik._lockstep(obs, model, config.beta_fit, kernel,
                                                 starts, dn)
            alone = [sqlik._lockstep(obs, model, config.beta_fit, kernel, [start], dn)
                     for start in starts]
            assert repr(together) == repr([outcomes[0] for outcomes, _, _ in alone]), rep
            assert evals == sum(count for _, count, _ in alone), rep


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
        assert a.theta_hat.full.tobytes() == b.theta_hat.full.tobytes()
        assert (a.loglik, a.n_evals, a.converged, a.score_norm, a.restarts_agreeing) == (
            b.loglik, b.n_evals, b.converged, b.score_norm, b.restarts_agreeing
        )

    def test_all_restarts_failing_names_violation(self, stable_series, kernel1):
        model = build_model(
            drift="a1*x", scale="g1", p_alpha=1, p_gamma=1,
            bounds=[(-2, 2), (-2.0, -0.1)],
        )
        with pytest.raises(OptimizationError, match="model violation"):
            fit(stable_series, model, 1.0, kernel1, opt=OptimizerConfig(restarts=2),
                rng=RngStream(3, 0))

    def test_overflowing_drift_everywhere_names_violation(self, kernel15):
        # every start has a1 * x >= 600 * 1.5, where exp overflows
        obs = ObservationSeries(x=np.linspace(1.5, 2.5, 51), h=0.01)
        opt = OptimizerConfig(restarts=3, init_windows=((600.0, 800.0), (0.5, 2.0)))
        with pytest.raises(OptimizationError, match="model violation: residual non-finite"):
            fit(obs, _OVERFLOW_MODEL, 1.5, kernel15, opt, RngStream(4, 0))

    def test_kernel_beta_must_match(self, stable_series, nonlinear_1d, kernel1):
        with pytest.raises(DomainError, match="kernel"):
            fit(stable_series, nonlinear_1d, 1.5, kernel1, OptimizerConfig(restarts=1))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(DomainError, match="restarts must be >= 1"):
            OptimizerConfig(restarts=restarts)

    @pytest.mark.parametrize(
        "windows,message",
        [
            (((-2.0, 0.0),), "one window per parameter"),
            (((-2.0, 0.0), (-2.0, 0.0), (1.0, 2.0)), "one window per parameter"),
            (((-2.0, 0.0), (-2.0, 0.0), (20.0, 30.0), (0.0, 1.0)), "parameter 3"),
        ],
        ids=["one-window", "three-windows", "disjoint-window"],
    )
    def test_init_windows_checked_against_model(self, nig_series, nonlinear_2d, kernel1,
                                                windows, message):
        opt = OptimizerConfig(restarts=2, init_windows=windows)
        with pytest.raises(UsageError, match=message):
            fit(nig_series, nonlinear_2d, 1.0, kernel1, opt)

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

    @pytest.mark.parametrize(
        "gap, converged, agreeing",
        [(2.7e-14, True, 2), (1e-3, False, 0)],
        ids=["rounding-tie", "better-optimum"],
    )
    def test_abnormal_stop_at_a_converged_optimum(
        self, monkeypatch, stable_series, nonlinear_1d, kernel15, gap, converged, agreeing
    ):
        # a line search can fail on rounding noise at an optimum another
        # restart converged to: that tie counts as converged, and the
        # converged restart is reported; a clearly better unconverged stop
        # still wins and is reported as not converged
        value = -17.088111989128777
        runs = iter([(value, True), (value + gap, False), (value - 2.5e-14, True)])

        def fake_ascend(start, bounds, dn):
            H, ok = next(runs)
            yield start
            return H, -0.0, start, ok

        monkeypatch.setattr(sqlik, "_ascend", fake_ascend)
        result = fit(stable_series, nonlinear_1d, 1.5, kernel15, OptimizerConfig(restarts=3))
        assert result.converged is converged
        assert result.loglik == (value if converged else value + gap)
        assert result.restarts_agreeing == agreeing


def _normalized_projected_score(obs, model, theta, beta, kernel):
    """|score / rates|, with the coordinates on a bound that point out of the
    box left out."""
    score = quasi_score(obs, model, theta, beta, kernel)
    full = theta.full
    lo, hi = np.array(model.bounds).T
    held = ((full <= lo) & (score < 0)) | ((full >= hi) & (score > 0))
    rates = np.array([np.sqrt(obs.n) * rate_exponent(obs.h, beta)] * model.p_alpha
                     + [np.sqrt(obs.n)] * model.p_gamma)
    return float(np.linalg.norm(np.where(held, 0.0, score) / rates))


def _lbfgsb_best(obs, model, beta, kernel, opt, rng):
    """The largest H L-BFGS-B reaches from the fit's own starts."""
    lo, hi = sqlik._start_box(model, opt.init_windows)
    starts = rng.generator(purpose=7).uniform(lo, hi, size=(opt.restarts, model.p))

    def objective(vec):
        theta = Theta.from_full(vec, model.p_alpha)
        try:
            return (-quasi_loglik(obs, model, theta, beta, kernel),
                    -quasi_score(obs, model, theta, beta, kernel))
        except ModelViolationError:
            return np.inf, np.zeros(model.p)

    values = [
        -minimize(objective, start, jac=True, method="L-BFGS-B", bounds=model.bounds).fun
        for start in starts
    ]
    return max(values)


class TestAgainstLbfgsb:
    """scipy's L-BFGS-B from the same starts as the oracle of the fit."""

    @pytest.mark.parametrize(
        "preset, design",
        [("stable15-1d", 0), ("nig-1d", 0), ("nig-2d", 0)],
        ids=["stable15-1d-T5-n100", "nig-1d-T1-n500", "nig-2d-T1-n500"],
    )
    def test_converges_no_lower_than_lbfgsb(self, preset, design):
        config = preset_config(preset)
        model = config.build_model()
        kernel = StableKernel(config.beta_fit)
        d = config.designs[design]
        for rep in range(12):
            rng = RngStream(config.base_seed, rep)
            fine = simulate_fine(model, config.noise, d.T, d.n_fine, config.x0,
                                 rng.substream(100))
            obs = thin(fine, d.fine_factor)
            result = fit(obs, model, config.beta_fit, kernel, config.optimizer,
                         rng.substream(0))
            assert result.converged, rep
            norm = _normalized_projected_score(obs, model, result.theta_hat,
                                               config.beta_fit, kernel)
            assert norm <= sqlik.GTOL, rep
            assert result.score_norm == pytest.approx(norm, rel=1e-12)
            oracle = _lbfgsb_best(obs, model, config.beta_fit, kernel, config.optimizer,
                                  rng.substream(0))
            assert result.loglik >= oracle - 1e-9, rep

    @pytest.mark.parametrize(
        "alpha_box, bound", [((0.0, 2.0), 0.0), ((-4.0, -2.0), -2.0)], ids=["lower", "upper"]
    )
    def test_optimum_outside_the_box(self, alpha_box, bound, stable_series, nonlinear_1d,
                                     kernel15, monkeypatch):
        # alpha_hat is near -1 in the full box; here it ends on the bound
        model = build_model(
            drift="a1*x", scale="exp(g1*cos(x))", p_alpha=1, p_gamma=1,
            bounds=[alpha_box, (-10.5, 13.5)],
        )
        points = []

        def recording(obs, model, theta, beta, kernel):
            points.extend(theta.full)
            return quasi_loglik(obs, model, theta, beta, kernel)

        monkeypatch.setattr(sqlik, "quasi_loglik", recording)
        result = fit(stable_series, model, 1.5, kernel15, OptimizerConfig(restarts=3),
                     RngStream(5, 0))
        assert result.converged
        assert result.theta_hat.alpha[0] == bound
        norm = _normalized_projected_score(stable_series, model, result.theta_hat, 1.5, kernel15)
        assert norm <= sqlik.GTOL
        assert result.score_norm == pytest.approx(norm, rel=1e-12)
        assert len(points) == result.n_evals
        lo, hi = np.array(model.bounds).T
        assert np.all((lo <= np.array(points)) & (np.array(points) <= hi))
