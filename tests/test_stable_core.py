"""Stable density kernel: values, derivatives, and information constants."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from stableql import stable_core
from stableql.errors import DomainError
from stableql.stable_core import StableKernel, stable_tail_coefficient

# Frozen quadrature-oracle values (independent adaptive cosine-transform
# integration, evaluated once and pinned).
PHI_15_AT_HALF = 0.26229684035409045
G_15_AT_HALF = -0.3606453926565999
DG_15_AT_07 = -0.6390051297229816


EVALUATION_METHODS = ["density", "ddensity", "dddensity", "log_density", "g", "k", "dg"]


def cutoff(beta):
    """Where the kernel's tail series takes over from its near source."""
    return stable_core._CAUCHY_SQUARE_SAFE if beta == 1.0 else stable_core.TAIL_CUTOFF


def quad_density(beta, y):
    val, _ = quad(
        lambda u: math.exp(-(u**beta)) / math.pi,
        0.0, 60.0, weight="cos", wvar=y, limit=400,
    )
    return val


class TestDensityValues:
    @pytest.mark.parametrize("beta", [1.0, 1.2, 1.5, 1.8])
    def test_value_at_zero(self, beta):
        kernel = StableKernel(beta)
        exact = math.gamma(1.0 + 1.0 / beta) / math.pi
        assert abs(kernel.density(0.0) - exact) < 1e-8

    def test_cauchy_closed_form(self, kernel1):
        y = np.linspace(-20, 20, 401)
        assert np.allclose(kernel1.density(y), 1.0 / (np.pi * (1 + y**2)), atol=1e-14)

    def test_frozen_value(self, kernel15):
        assert abs(kernel15.density(0.5) - PHI_15_AT_HALF) < 1e-10

    @pytest.mark.parametrize("beta", [1.2, 1.5, 1.8])
    def test_against_adaptive_quadrature(self, beta):
        kernel = StableKernel(beta)
        for y in [0.0, 0.3, 1.0, 2.7, 8.0, 14.0, 20.0, 40.0]:
            assert abs(kernel.density(y) - quad_density(beta, y)) < 1e-9

    def test_symmetry(self, kernel15):
        y = np.linspace(0.0, 30.0, 500)
        assert np.allclose(kernel15.density(y), kernel15.density(-y), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("beta", [1.0, 1.2, 1.5, 1.8])
    def test_normalization(self, beta):
        kernel = StableKernel(beta)
        assert abs(kernel.normalization() - 1.0) < 1e-8

    def test_positive_everywhere(self, kernel15):
        y = np.linspace(-100, 100, 2001)
        assert np.all(kernel15.density(y) > 0)

    def test_tail_series_matches_power_law(self, kernel15):
        # leading term c_beta |y|^{-1-beta} dominates far out
        y = 200.0
        lead = stable_tail_coefficient(1.5) * y ** (-2.5)
        assert abs(kernel15.density(y) / lead - 1.0) < 1e-2

    @pytest.mark.parametrize("method", EVALUATION_METHODS)
    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_non_finite_input_rejected(self, beta, method, kernel1, kernel15):
        kernel = kernel1 if beta == 1.0 else kernel15
        for bad in (np.array([0.0, np.nan]), np.inf, -np.inf):
            with pytest.raises(DomainError):
                getattr(kernel, method)(bad)


class TestScores:
    def test_frozen_scores(self, kernel15):
        assert abs(kernel15.g(0.5) - G_15_AT_HALF) < 1e-9
        assert abs(kernel15.dg(0.7) - DG_15_AT_07) < 1e-8

    def test_g_odd_k_even(self, kernel15):
        y = np.linspace(0.1, 10, 50)
        assert np.allclose(kernel15.g(y), -kernel15.g(-y), atol=1e-9)
        assert np.allclose(kernel15.k(y), kernel15.k(-y), atol=1e-9)

    def test_g_is_logdensity_derivative(self, kernel15):
        eps = 1e-6
        for y in [0.3, 1.1, 2.5, 6.0]:
            fd = (kernel15.log_density(y + eps) - kernel15.log_density(y - eps)) / (2 * eps)
            assert abs(kernel15.g(y) - fd) < 1e-7

    def test_dg_is_g_derivative(self, kernel15):
        eps = 1e-6
        for y in [0.3, 1.1, 2.5, 6.0]:
            fd = (kernel15.g(y + eps) - kernel15.g(y - eps)) / (2 * eps)
            assert abs(kernel15.dg(y) - fd) < 1e-6

    def test_k_definition(self, kernel15):
        y = np.linspace(-8, 8, 33)
        assert np.allclose(kernel15.k(y), 1.0 + y * kernel15.g(y), atol=1e-12)

    def test_k_tail_limit(self, kernel15):
        # k(y) -> -beta as |y| -> infinity for the power-law tail
        assert abs(kernel15.k(500.0) + 1.5) < 1e-2

    @pytest.mark.parametrize("beta", [1.0, 1.2, 1.5, 1.8])
    def test_continuous_across_tail_cutoff(self, beta):
        # the near source ends and the tail series starts at the kernel's
        # cutoff: TAIL_CUTOFF, or 1e150 at beta = 1, where the bound is
        # relative (measured up to 1.5e-15, in dg)
        kernel = StableKernel(beta)
        edge = cutoff(beta)
        for side in (edge, -edge):
            inner = np.nextafter(side, 0.0)
            outer = np.nextafter(side, 2.0 * side)
            for method in ("log_density", "g", "dg"):
                f = getattr(kernel, method)
                if beta == 1.0:
                    assert abs(f(outer) / f(inner) - 1.0) < 4e-15, (method, side)
                else:
                    assert abs(f(outer) - f(inner)) < 1e-9, (method, side)

    @pytest.mark.parametrize("method", ["log_density", "g", "dg"])
    @pytest.mark.parametrize("beta", [1.0, 1.2, 1.5, 1.8])
    def test_table_and_tail_points_evaluate_apart(self, beta, method):
        # the near source (the table, or the Cauchy forms at beta = 1) serves
        # |y| up to the kernel's cutoff and the tail series the points beyond:
        # a 2-D array mixing both gives, in its shape, each subset's values as
        # evaluated alone
        kernel = StableKernel(beta)
        edge = cutoff(beta)
        scale = edge / stable_core.TAIL_CUTOFF
        y = scale * 20.0 * np.random.default_rng(3).standard_cauchy((40, 25))
        beyond = np.nextafter(edge, 2.0 * edge)
        y[0, :4] = [edge, -edge, beyond, -beyond]
        inside = np.abs(y) <= edge
        assert inside.any() and not inside.all()
        f = getattr(kernel, method)
        values = f(y)
        assert values.shape == y.shape
        assert np.array_equal(values[inside], f(y[inside]))
        assert np.array_equal(values[~inside], f(y[~inside]))

    @pytest.mark.parametrize("beta", [1.0, 1.2, 1.5, 1.8])
    def test_tail_values_are_pure_functions_of_each_point(self, beta):
        # a point's value does not depend on the other points of the call;
        # at beta = 1 the tail starts at 1e150, not at TAIL_CUTOFF
        kernel = StableKernel(beta)
        rng = np.random.default_rng(int(10 * beta))
        scale = cutoff(beta) / stable_core.TAIL_CUTOFF
        y = scale * (15.0 + rng.exponential(20.0, 1000)) * rng.choice([-1.0, 1.0], 1000)
        for method in ("log_density", "g", "dg"):
            f = getattr(kernel, method)
            together = f(y)
            alone = np.array([f(yi) for yi in y])
            assert together.tobytes() == alone.tobytes(), method

    @pytest.mark.parametrize("y", [0.0, 0.4, -1.3, 2.5, 7.0, 14.9, 15.2, -30.0])
    def test_density_derivatives_match_differences(self, kernel15, y):
        step = 1e-5
        fd1 = (kernel15.density(y + step) - kernel15.density(y - step)) / (2 * step)
        fd2 = (kernel15.ddensity(y + step) - kernel15.ddensity(y - step)) / (2 * step)
        assert abs(kernel15.ddensity(y) - fd1) < 1e-8
        assert abs(kernel15.dddensity(y) - fd2) < 1e-8

    def test_cauchy_scores_closed_form(self, kernel1):
        y = np.linspace(-10, 10, 101)
        assert np.allclose(kernel1.g(y), -2 * y / (1 + y**2), atol=1e-12)
        assert np.allclose(kernel1.k(y), (1 - y**2) / (1 + y**2), atol=1e-12)

    def test_cauchy_finite_in_far_tail(self, kernel1):
        # 1 + y^2 overflows here; the closed forms must not
        y = np.array([1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [kernel1.log_density(y), kernel1.g(y), kernel1.dg(y)]
            k = kernel1.k(y)
        assert all(np.all(np.isfinite(v)) for v in values)
        assert np.array_equal(k, [-1.0, -1.0])

    def test_cauchy_agrees_with_direct_formulas(self, kernel1):
        y = np.concatenate([np.linspace(-1e3, 1e3, 20001), np.linspace(-3, 3, 6001)])
        s = 1.0 + y * y
        log_phi = kernel1.log_density(np.append(y, 1e300))[:-1]
        np.testing.assert_allclose(log_phi, -np.log(np.pi) - np.log1p(y * y), rtol=1e-15)
        np.testing.assert_allclose(kernel1.g(y), -2.0 * y / s, rtol=0, atol=1e-15)
        # dg divides by s twice where this divides by s^2: a few ulp of |dg| <= 2
        np.testing.assert_allclose(kernel1.dg(y), -2.0 * (1.0 - y * y) / s**2, rtol=0, atol=4e-15)

    @pytest.mark.parametrize("method", ["log_density", "g", "dg"])
    def test_cauchy_far_point_leaves_other_values_unchanged(self, kernel1, method):
        # a point beyond 1e150 takes the tail series; the other points of
        # the call keep their forms in 1 + y^2, bit for bit
        y = np.concatenate([np.linspace(-1e3, 1e3, 20001), np.linspace(-3, 3, 6001)])
        f = getattr(kernel1, method)
        assert f(np.append(y, 1e300))[:-1].tobytes() == f(y).tobytes()

    @pytest.mark.parametrize("beta", [1.2, 1.5, 1.8])
    def test_tables_match_scipy_hermite_splines(self, beta):
        # oracle: scipy's cubic Hermite splines on the mirrored grid, from the
        # same tables; the gaps measured at these points are 3.6e-15, 4.4e-16
        # and 2.7e-13 for log phi, g and dg
        from scipy.interpolate import CubicHermiteSpline

        kernel = StableKernel(beta)
        phi, dphi, ddphi = kernel._build_tables()
        g = dphi / phi
        dg = ddphi / phi - g * g

        def even(v):
            return np.concatenate([v[:0:-1], v])

        def odd(v):
            return np.concatenate([-v[:0:-1], v])

        grid = odd(stable_core._half_grid())
        g_spline = CubicHermiteSpline(grid, odd(g), even(dg))
        log_phi = CubicHermiteSpline(grid, even(np.log(phi)), odd(g))
        y = np.concatenate([grid, np.random.default_rng(0).uniform(-15.0, 15.0, 100_000)])
        assert np.abs(kernel.log_density(y) - log_phi(y)).max() < 1e-14
        assert np.abs(kernel.g(y) - g_spline(y)).max() < 2e-15
        assert np.abs(kernel.dg(y) - g_spline.derivative()(y)).max() < 1e-12


class TestInfoConstants:
    def test_beta_one_exact(self, kernel1):
        const = kernel1.info_constants()
        assert abs(const.c_alpha - 0.5) < 1e-6
        assert abs(const.c_gamma - 0.5) < 1e-6

    def test_beta_15_reference_values(self, kernel15):
        const = kernel15.info_constants()
        assert abs(const.c_alpha - 0.4281) < 5e-3
        assert abs(const.c_gamma - 0.9556) < 5e-3

    def test_score_orthogonality(self, kernel15):
        val, _ = quad(
            lambda y: kernel15.g(y) * kernel15.k(y) * kernel15.density(y),
            -40, 40, limit=400,
        )
        assert abs(val) < 1e-8

    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_stored_at_construction(self, monkeypatch, beta):
        kernel = StableKernel(beta)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("information constants integrated after construction")

        monkeypatch.setattr(stable_core, "_line_quadrature", no_quadrature)
        first = kernel.info_constants()
        assert isinstance(first, stable_core.InfoConstants)
        assert kernel.info_constants() is first
        assert abs(kernel.normalization() - 1.0) < 1e-8

    @pytest.mark.parametrize("beta", [1.05, 1.2, 1.5, 1.8, 1.95])
    def test_match_adaptive_quadrature(self, beta):
        # oracle: g^2 phi and k^2 phi by adaptive quadrature over [0, inf)
        kernel = StableKernel(beta)
        oracle = [
            2.0 * quad(f, 0.0, np.inf, epsabs=1e-10, epsrel=1e-10, limit=400)[0]
            for f in (
                lambda y: kernel.g(y) ** 2 * kernel.density(y),
                lambda y: kernel.k(y) ** 2 * kernel.density(y),
            )
        ]
        const = kernel.info_constants()
        np.testing.assert_allclose([const.c_alpha, const.c_gamma], oracle, rtol=1e-12, atol=0)

    def test_cauchy_within_two_ulp(self, kernel1):
        const = kernel1.info_constants()
        two_ulp = 2.0 * np.spacing(0.5)
        assert abs(const.c_alpha - 0.5) <= two_ulp
        assert abs(const.c_gamma - 0.5) <= two_ulp

    def test_line_quadrature_is_exact_on_tail_power_series(self):
        # in t = (y / TAIL_CUTOFF)^(-beta), y^(-k beta - 1) dy is a multiple of
        # t^(k-1), a polynomial Gauss-Legendre integrates exactly
        beta = 1.5
        y, w = stable_core._line_quadrature(beta)
        tail = y > stable_core.TAIL_CUTOFF
        assert np.count_nonzero(tail) == stable_core.TAIL_NODES
        for k in (1, 5, 10):
            exact = 2.0 * stable_core.TAIL_CUTOFF ** (-k * beta) / (k * beta)
            approx = w[tail] @ y[tail] ** (-k * beta - 1.0)
            assert approx == pytest.approx(exact, rel=1e-13)
        # Simpson is exact for cubics: int y^2 over [-TAIL_CUTOFF, TAIL_CUTOFF]
        cubic = 2.0 * stable_core.TAIL_CUTOFF**3 / 3.0
        assert w[~tail] @ y[~tail] ** 2 == pytest.approx(cubic, rel=1e-13)

    def test_information_identity(self, kernel15):
        # integration by parts: int g^2 phi = -int dg phi
        val, _ = quad(lambda y: kernel15.dg(y) * kernel15.density(y), -40, 40, limit=400)
        assert abs(kernel15.info_constants().c_alpha + val) < 5e-6


class TestTrigSums:
    @pytest.mark.parametrize("count", [1, 2, 7, 50**2 - 1, 50**2 + 1, 6001, 15001])
    def test_matches_direct_sums(self, count):
        rng = np.random.default_rng(count)
        nodes = np.concatenate([1e-12 * 2.0 ** np.arange(30), rng.uniform(0.0, 40.0, 300)])
        cos_w = rng.normal(size=(nodes.size, 2))
        sin_w = rng.normal(size=nodes.size)
        step = 1e-3
        c, s = stable_core._uniform_trig_sums(nodes, step, count, cos_w, sin_w)
        arg = np.outer(np.arange(count) * step, nodes)
        assert c.shape == (count, 2) and s.shape == (count,)
        assert np.all(np.abs(c - np.cos(arg) @ cos_w) <= 1e-12 * np.abs(cos_w).sum(axis=0))
        assert np.all(np.abs(s - np.sin(arg) @ sin_w) <= 1e-12 * np.abs(sin_w).sum())

    def test_build_tables_match_direct_sums(self, kernel15):
        u_max = stable_core._frequency_cutoff(lambda u: 2.0 * np.log1p(u) - u**1.5)
        u, w = stable_core._panel_nodes(u_max, stable_core.TAIL_CUTOFF)
        damp = w * np.exp(-(u**1.5))
        half_grid = stable_core._half_grid()
        idx = np.random.default_rng(0).choice(half_grid.size, 200, replace=False)
        arg = np.outer(half_grid[idx], u)
        phi, dphi, ddphi = kernel15._build_tables()
        assert np.abs(phi[idx] - np.cos(arg) @ damp / math.pi).max() < 1e-12
        assert np.abs(dphi[idx] + np.sin(arg) @ (damp * u) / math.pi).max() < 1e-12
        assert np.abs(ddphi[idx] + np.cos(arg) @ (damp * u**2) / math.pi).max() < 1e-12


class TestTailCoefficient:
    def test_cauchy_limit(self):
        assert abs(stable_tail_coefficient(1.0) - 1.0 / math.pi) < 1e-14

    def test_gamma_form(self):
        # c_beta = Gamma(1+beta) sin(beta pi / 2) / pi
        for beta in [1.2, 1.5, 1.8]:
            expected = math.gamma(1 + beta) * math.sin(beta * math.pi / 2) / math.pi
            assert abs(stable_tail_coefficient(beta) - expected) < 1e-13

    def test_invalid_beta(self):
        with pytest.raises(DomainError):
            StableKernel(2.0)
        with pytest.raises(DomainError):
            StableKernel(0.0)
