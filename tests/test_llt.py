"""Local limit lab: exponents, inversion, L1 distances and rate fits."""

import math

import numpy as np
import pytest

import stableql
from stableql import llt, samplers
from stableql.errors import DomainError, NumericError, UsageError
from stableql.llt import (
    invert_density,
    l1_distance,
    make_grid,
    rate_fit,
)
from stableql.samplers import _KVE_MIN_X, NoiseSpec
from stableql.stable_core import (
    GRID_STEP,
    TAIL_CUTOFF,
    StableKernel,
    _frequency_cutoff,
    _panel_nodes,
)


LLT_DRIVERS = [
    NoiseSpec("tempered_stable", 1.5, lambda_tempering=1.0),
    NoiseSpec("gh_nig", 1.0, gh_lambda=-0.5, gh_eta=5.0),
]


@pytest.fixture(scope="module")
def grid():
    return make_grid()


class TestCfModel:
    def test_stable_exponent(self):
        cf = NoiseSpec("stable", 1.5)
        u = np.linspace(0.1, 5, 20)
        assert np.allclose(cf.exponent(u, 0.123), -(u**1.5))

    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_tempered_closed_form_matches_generic(self, beta):
        # psi_h(u) = h psi_1(h^{-1/beta} u) for 100 random points
        cf = NoiseSpec("tempered_stable", beta, lambda_tempering=1.0)
        rng = np.random.default_rng(5)
        us = rng.uniform(0.05, 10.0, 100)
        hs = rng.uniform(0.01, 1.0, 100)
        for u, h in zip(us, hs):
            generic = h * float(cf.exponent(u / h ** (1 / beta), 1.0))
            closed = float(cf.exponent(u, h))
            assert abs(generic - closed) <= 1e-10 * (1 + abs(closed))

    def test_exponent_real_nonpositive(self):
        for cf in [
            NoiseSpec("tempered_stable", 1.3, lambda_tempering=2.0),
            NoiseSpec("gh_nig", 1.0, gh_lambda=-0.5, gh_eta=5.0),
        ]:
            u = np.linspace(0.05, 30.0, 200)
            vals = cf.exponent(u, 0.2)
            assert np.all(np.isreal(vals))
            assert np.all(vals <= 1e-10)

    def test_gh_locally_cauchy(self):
        # exp(psi_h(u)) -> exp(-u); |psi_h(1) + 1| decreases monotonically
        cf = NoiseSpec("gh_nig", 1.0, gh_lambda=-0.5, gh_eta=5.0)
        devs = [abs(float(cf.exponent(1.0, h)) + 1.0) for h in (1.0, 0.1, 0.01)]
        assert devs[0] > devs[1] > devs[2]

    def test_nig_closed_form(self):
        # lam = -1/2 collapses to psi_h(u) = eta h - sqrt(eta^2 h^2 + u^2),
        # for gh_nig and for the nig kind alike
        eta = 5.0
        u = np.linspace(0.1, 20.0, 50)
        for cf in (NoiseSpec("gh_nig", 1.0, gh_lambda=-0.5, gh_eta=eta), NoiseSpec("nig", eta=eta)):
            for h in (1.0, 0.05):
                closed = eta * h - np.sqrt(eta**2 * h**2 + u**2)
                assert np.allclose(cf.exponent(u, h), closed, atol=1e-10)

    @pytest.mark.parametrize("h", [1.0, 1e-1, 1e-3])
    def test_nig_exponent_without_bessel_quadrature(self, h):
        # K_(-1/2) is elementary: the logs of the GH exponent cancel to the
        # NIG form up to their rounding, over the lab's frequencies
        u = np.geomspace(1e-4, 60.0, 400)
        for eta in (_KVE_MIN_X, 5.0):
            closed = eta * h - np.sqrt(eta**2 * h**2 + u**2)
            for cf in (NoiseSpec("gh_nig", gh_lambda=-0.5, gh_eta=eta), NoiseSpec("nig", eta=eta)):
                np.testing.assert_allclose(cf.exponent(u, h), closed, rtol=0, atol=1e-13)

    def test_nig_inversion_runs_no_bessel_rule(self, grid, monkeypatch):
        def no_rule(*args):
            raise AssertionError("the Bessel rule ran at order -1/2")

        monkeypatch.setattr(samplers, "_kve_rule", no_rule)
        f = invert_density(NoiseSpec("gh_nig", gh_lambda=-0.5, gh_eta=5.0), 1e-2, grid)
        assert abs(np.trapezoid(f, grid) - 1.0) < 1e-2
        with pytest.raises(AssertionError, match="Bessel rule"):
            NoiseSpec("gh_nig", gh_lambda=0.7, gh_eta=5.0).exponent(np.array([1.0]), 1e-2)

    def test_one_driver_type(self):
        # the lab's former class name is the driver type itself, and the
        # package exports the type under one name
        assert llt.CfModel is NoiseSpec
        assert stableql.NoiseSpec is NoiseSpec and not hasattr(stableql, "CfModel")

    def test_validation(self):
        with pytest.raises(DomainError):
            NoiseSpec("stable", 2.5)
        with pytest.raises(DomainError):
            NoiseSpec("tempered_stable", 1.5)
        with pytest.raises(DomainError):
            NoiseSpec("tempered_stable", 0.8, lambda_tempering=1.0)
        with pytest.raises(DomainError):
            NoiseSpec("gh_nig", 1.5, gh_lambda=-0.5, gh_eta=5.0)
        with pytest.raises(DomainError):
            NoiseSpec("poisson", 1.0)


class TestFrequencyCutoff:
    @pytest.mark.parametrize("beta", [1.0, 1.5, 1.8])
    def test_stable_crossing(self, beta):
        cf = NoiseSpec("stable", beta)
        u = _frequency_cutoff(lambda u: cf.exponent(u, 0.1))
        assert abs(u / 42.0 ** (1.0 / beta) - 1.0) < 1e-3

    @pytest.mark.parametrize("h", [1e-1, 1e-3])
    @pytest.mark.parametrize("cf", LLT_DRIVERS, ids=lambda cf: cf.kind)
    def test_tight_crossing(self, cf, h):
        u = _frequency_cutoff(lambda u: cf.exponent(u, h))
        assert float(cf.exponent(u, h)) <= -42.0 < float(cf.exponent(u / 1.002, h))

    @pytest.mark.parametrize("beta", [1.1, 1.5, 1.9])
    def test_kernel_tables_crossing(self, beta):
        # the kernel tables' largest column, u^2 exp(-u^beta), is bounded by
        # (1 + u)^2 exp(-u^beta), which ends below 1e-18
        def log_bound(u):
            return 2.0 * np.log1p(u) - u**beta

        u = _frequency_cutoff(log_bound)
        assert log_bound(u) <= -42.0 < log_bound(u / 1.002)

    def test_two_vector_calls(self):
        calls = []

        def log_bound(u):
            calls.append(u)
            return 2.0 * np.log1p(u) - u**1.5

        _frequency_cutoff(log_bound)
        assert len(calls) <= 2

    def test_slow_decay_raises(self):
        # log(1.5^64) = 26: the bracketing never reaches -42
        with pytest.raises(NumericError, match="too slowly"):
            _frequency_cutoff(lambda u: -np.log1p(u))


class TestInvertDensity:
    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_stable_recovers_kernel(self, beta, grid):
        f = invert_density(NoiseSpec("stable", beta), 0.37, grid)
        d = l1_distance(grid, f, StableKernel(beta).density(grid), beta)
        assert d < 1e-8

    def test_tempered_cauchy_center_limit(self, grid):
        # f_h(0) -> phi_1(0) = 1/pi as h -> 0
        cf = NoiseSpec("tempered_stable", 1.0, lambda_tempering=1.0)
        center = len(grid) // 2
        vals = [invert_density(cf, h, grid)[center] for h in (0.1, 0.01, 0.001)]
        errors = [abs(v - 1.0 / math.pi) for v in vals]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 2e-3

    def test_gh_normalization(self, grid):
        cf = NoiseSpec("gh_nig", 1.0, gh_lambda=-0.5, gh_eta=5.0)
        f = invert_density(cf, 1.0, grid)
        assert abs(np.trapezoid(f, grid) - 1.0) < 1e-6

    def test_symmetry_and_nonnegativity(self, grid):
        cf = NoiseSpec("tempered_stable", 1.5, lambda_tempering=1.0)
        f = invert_density(cf, 0.05, grid)
        assert np.allclose(f, f[::-1], atol=1e-8)
        assert np.all(f >= 0.0)

    def test_grid_validation(self):
        cf = NoiseSpec("stable", 1.5)
        with pytest.raises(UsageError):
            invert_density(cf, 0.1, np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_grid_rejected(self, bad):
        cf = NoiseSpec("stable", 1.5)
        for grid in ([-bad, 0.0, bad], [-1.0, bad, 0.0, bad, 1.0], [-1.0, 0.0, 1.0, bad, 2.0]):
            with pytest.raises(UsageError, match="symmetric"):
                invert_density(cf, 0.1, np.array(grid))

    def test_non_uniform_grid_rejected(self):
        cf = NoiseSpec("stable", 1.5)
        with pytest.raises(UsageError, match="uniform"):
            invert_density(cf, 0.1, np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))

    @pytest.mark.parametrize(
        "beta, half_width, spacing, tol",
        [
            pytest.param(1.0, 240.0, 1e-2, 1e-10, id="1.0"),
            pytest.param(1.5, 240.0, 1e-2, 1e-10, id="1.5"),
            # the kernel's own table grid: the lab and the kernel tables
            # invert exp(-u^beta) by the same quadrature rules
            pytest.param(1.5, TAIL_CUTOFF, GRID_STEP, 1e-13, id="kernel-grid-1.5"),
            pytest.param(1.8, TAIL_CUTOFF, GRID_STEP, 1e-13, id="kernel-grid-1.8"),
        ],
    )
    def test_wide_grid_not_aliased(self, beta, half_width, spacing, tol):
        # PANEL_WIDTH panels alias cos(u y) beyond |y| = 60 (0.12 near 228)
        kernel = StableKernel(beta)
        grid = make_grid(half_width, spacing)
        f = invert_density(NoiseSpec("stable", beta), 0.3, grid)
        assert np.abs(f - kernel.density(grid)).max() < tol

    @pytest.mark.parametrize("cf", LLT_DRIVERS, ids=lambda cf: cf.kind)
    def test_matches_direct_quadrature(self, cf, grid):
        h = 1e-3
        nodes, weights = _panel_nodes(_frequency_cutoff(lambda u: cf.exponent(u, h)), grid[-1])
        wphi = weights * np.exp(cf.exponent(nodes, h))
        idx = np.random.default_rng(8).choice(grid.size, 50, replace=False)
        direct = np.clip(np.cos(np.outer(grid[idx], nodes)) @ wphi / math.pi, 0.0, None)
        assert np.abs(invert_density(cf, h, grid)[idx] - direct).max() < 1e-13


class TestL1Distance:
    def test_zero_for_kernel_itself(self, grid, kernel15):
        phi = kernel15.density(grid)
        assert l1_distance(grid, phi, phi, 1.5) < 1e-12

    def test_shifted_cauchy_closed_form(self, grid, kernel1):
        # int |phi(y-1) - phi(y)| dy = (4/pi) arctan(1/2) for the Cauchy law
        f = kernel1.density(grid - 1.0)
        exact = 4.0 / math.pi * math.atan(0.5)
        assert abs(l1_distance(grid, f, kernel1.density(grid), 1.0) - exact) < 1e-3

    def test_nonnegative(self, grid, kernel15):
        rng = np.random.default_rng(3)
        f = np.abs(rng.normal(size=grid.shape))
        assert l1_distance(grid, f, kernel15.density(grid), 1.5) >= 0.0

    def test_grid_mismatch(self, grid, kernel15):
        phi = kernel15.density(grid)
        with pytest.raises(UsageError):
            l1_distance(grid, np.zeros(5), phi, 1.5)
        with pytest.raises(UsageError):
            l1_distance(grid, phi, np.zeros(5), 1.5)


class TestRateFit:
    H_VALUES = 10.0 ** np.linspace(-1, -3, 6)

    def test_tempered_15_slope(self, kernel15):
        cf = NoiseSpec("tempered_stable", 1.5, lambda_tempering=1.0)
        result = rate_fit(cf, kernel15, self.H_VALUES)
        assert 0.55 <= result.slope <= 0.80

    def test_nig_slope(self, kernel1):
        cf = NoiseSpec("gh_nig", 1.0, gh_lambda=-0.5, gh_eta=5.0)
        result = rate_fit(cf, kernel1, self.H_VALUES)
        assert 0.80 <= result.slope <= 1.10

    def test_stable_all_excluded(self, kernel15):
        result = rate_fit(NoiseSpec("stable", 1.5), kernel15, self.H_VALUES)
        assert math.isnan(result.slope)
        assert len(result.excluded_h) == len(self.H_VALUES)

    def test_kernel_beta_must_match(self, kernel1):
        cf = NoiseSpec("tempered_stable", 1.5, lambda_tempering=1.0)
        with pytest.raises(DomainError, match="kernel is for beta=1.0"):
            rate_fit(cf, kernel1, self.H_VALUES)

    def test_preconditions(self, kernel15):
        cf = NoiseSpec("tempered_stable", 1.5, lambda_tempering=1.0)
        with pytest.raises(UsageError):
            rate_fit(cf, kernel15, [0.1, 0.05, 0.01])
        with pytest.raises(UsageError):
            rate_fit(cf, kernel15, [0.1, 0.08, 0.05, 0.02])
