"""Euler simulation and thinning."""

import numpy as np
import pytest

from stableql.errors import DomainError, SimulationOverflowError, UsageError
from stableql.models import build_model
from stableql.samplers import NoiseSpec, RngStream
from stableql.sde import ObservationSeries, simulate_fine, thin


def reference_path(model, x0, delta, increments):
    """Euler recursion from the vectorized drift and scale, one step at a time."""
    alpha, gamma = model.theta_true.alpha, model.theta_true.gamma
    x = np.empty(len(increments) + 1)
    x[0] = x0
    with np.errstate(all="ignore"):
        for k, dj in enumerate(increments):
            x[k + 1] = (
                x[k] + model.drift(x[k], alpha) * delta + model.scale(x[k], gamma) * dj
            )
    return x


class TestObservationSeries:
    def test_invariants(self):
        obs = ObservationSeries(x=np.zeros(11), h=0.1)
        assert obs.n == 10
        assert obs.T == pytest.approx(1.0)
        assert np.allclose(obs.times, np.arange(11) * 0.1)

    def test_non_finite(self):
        x = np.zeros(11)
        x[3] = np.inf
        with pytest.raises(DomainError):
            ObservationSeries(x=x, h=0.1)

    def test_not_one_dimensional(self):
        with pytest.raises(DomainError):
            ObservationSeries(x=np.zeros((2, 6)), h=0.1)

    @pytest.mark.parametrize("h", [0.0, -0.1, np.inf, np.nan])
    def test_bad_step(self, h):
        with pytest.raises(DomainError):
            ObservationSeries(x=np.zeros(11), h=h)


class TestSimulateFine:
    def test_deterministic_recursion(self):
        # zero noise: x_{k+1} = x_k (1 + a1 * delta) for the linear drift
        model = build_model("ou-const")
        fine = simulate_fine(
            model, NoiseSpec("stable", beta=1.0), T=1.0, n_fine=100, x0=1.0,
            rng=RngStream(0, 0), increments=np.zeros(100),
        )
        assert np.allclose(fine.x, (1 - 0.01) ** np.arange(101))
        assert fine.n == 100
        assert fine.h == pytest.approx(0.01)

    def test_pure_noise_telescopes(self):
        # zero drift, unit scale: increments accumulate exactly
        model = build_model(
            drift="a1*0", scale="g1*0+1", p_alpha=1, p_gamma=1,
            bounds=[(-1, 1), (0.5, 2)], theta_true=[0.0, 1.0],
        )
        noise = NoiseSpec("stable", beta=1.5)
        inc = noise.sample(0.01, 200, RngStream(42, 3))
        fine = simulate_fine(model, noise, T=2.0, n_fine=200, x0=0.5,
                             rng=RngStream(42, 3), increments=inc)
        assert np.allclose(np.diff(fine.x), inc)
        assert fine.x[0] == 0.5

    def test_reproducible(self, nonlinear_1d):
        noise = NoiseSpec("nig", eta=5.0)
        a = simulate_fine(nonlinear_1d, noise, 1.0, 500, 0.0, RngStream(9, 1))
        b = simulate_fine(nonlinear_1d, noise, 1.0, 500, 0.0, RngStream(9, 1))
        assert np.array_equal(a.x, b.x)

    def test_overflow_reports_step(self):
        model = build_model(
            drift="a1*x", scale="g1", p_alpha=1, p_gamma=1,
            bounds=[(0, 1e41), (0.5, 2)], theta_true=[1e40, 1.0],
        )
        with pytest.raises(SimulationOverflowError) as exc:
            simulate_fine(model, NoiseSpec("stable", beta=1.5), 10.0, 200, 1.0,
                          RngStream(1, 1))
        assert exc.value.step >= 1

    @pytest.mark.parametrize("name", ["nonlinear-1d", "nonlinear-2d"])
    @pytest.mark.parametrize(
        "noise", [NoiseSpec("stable", beta=1.5), NoiseSpec("nig", eta=5.0)],
        ids=["stable", "nig"],
    )
    def test_compiled_step_matches_reference(self, name, noise):
        # several chunks of increments, so the chunk seams are crossed
        model = build_model(name)
        T, n_fine = 2.0, 10000
        inc = noise.sample(T / n_fine, n_fine, RngStream(5, 2))
        fine = simulate_fine(model, noise, T, n_fine, 0.5, RngStream(5, 2), increments=inc)
        ref = reference_path(model, 0.5, T / n_fine, inc)
        assert np.max(np.abs(fine.x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("jump_at", [10, 4095, 6000])
    @pytest.mark.parametrize(
        "drift, scale, theta, x0, jump, cause",
        [
            ("a1*x**2", "g1", [1.0, 1.0], 0.0, 1e6, OverflowError),
            ("a1*x", "sqrt(x)+g1", [-1.0, 1.0], 1.0, -10.0, ValueError),
            # a non-integer power of a negative state is an error, not a complex
            ("a1*x", "x**0.7+g1", [-1.0, 1.0], 1.0, -10.0, ValueError),
        ],
        ids=["overflow", "sqrt", "power"],
    )
    def test_math_error_reports_first_failing_step(
        self, drift, scale, theta, x0, jump, cause, jump_at
    ):
        model = build_model(
            drift=drift, scale=scale, p_alpha=1, p_gamma=1,
            bounds=[(-5, 5), (-5, 5)], theta_true=theta,
        )
        n_fine = 10000
        inc = np.zeros(n_fine)
        inc[jump_at] = jump
        ref = reference_path(model, x0, 1.0 / n_fine, inc)
        first_bad = int(np.flatnonzero(~np.isfinite(ref))[0])
        with pytest.raises(SimulationOverflowError) as exc:
            simulate_fine(model, NoiseSpec("stable", beta=1.5), 1.0, n_fine, x0,
                          RngStream(0, 0), increments=inc)
        assert exc.value.step == first_bad
        assert isinstance(exc.value.__cause__, cause)

    def test_silent_overflow_reports_first_non_finite_step(self):
        # float addition reaches inf without a math exception: the chunk's
        # finiteness check, not the walk, finds it
        model = build_model(
            drift="a1*x", scale="g1", p_alpha=1, p_gamma=1,
            bounds=[(-5, 5), (-5, 5)], theta_true=[-1.0, 1.0],
        )
        n_fine = 10000
        inc = np.zeros(n_fine)
        inc[[6000, 6001]] = 1e308
        ref = reference_path(model, 0.0, 1.0 / n_fine, inc)
        first_bad = int(np.flatnonzero(~np.isfinite(ref))[0])
        with pytest.raises(SimulationOverflowError) as exc:
            simulate_fine(model, NoiseSpec("stable", beta=1.5), 1.0, n_fine, 0.0,
                          RngStream(0, 0), increments=inc)
        assert exc.value.step == first_bad
        assert exc.value.__cause__ is None

    def test_requires_theta_true(self):
        model = build_model(drift="a1*x", scale="g1", p_alpha=1, p_gamma=1,
                            bounds=[(-2, 0), (0.5, 2)])
        with pytest.raises(UsageError):
            simulate_fine(model, NoiseSpec("stable", beta=1.5), 1.0, 10, 0.0,
                          RngStream(0, 0))

    def test_bad_increment_count(self, nonlinear_1d):
        with pytest.raises(UsageError):
            simulate_fine(nonlinear_1d, NoiseSpec("stable", beta=1.5), 1.0, 10,
                          0.0, RngStream(0, 0), increments=np.zeros(9))


class TestThin:
    def test_thinning_keeps_every_kth(self):
        fine = ObservationSeries(x=np.arange(101, dtype=float), h=0.01)
        obs = thin(fine, 10)
        assert obs.n == 10
        assert obs.h == pytest.approx(0.1)
        assert np.array_equal(obs.x, np.arange(0, 101, 10))

    def test_factor_one_identity(self):
        fine = ObservationSeries(x=np.linspace(0, 1, 51), h=0.1)
        obs = thin(fine, 1)
        assert obs.n == 50
        assert np.array_equal(obs.x, fine.x)

    def test_non_divisible_factor(self):
        fine = ObservationSeries(x=np.zeros(101), h=0.01)
        with pytest.raises(UsageError):
            thin(fine, 3)

    def test_protocol_step_sizes(self):
        # thinning a 150000-step path reproduces the coarse designs exactly
        fine = ObservationSeries(x=np.zeros(150001), h=1.0 / 150000)
        for n, factor in [(500, 300), (1000, 150), (3000, 50)]:
            obs = thin(fine, factor)
            assert obs.n == n
            assert obs.h * n == pytest.approx(1.0)
