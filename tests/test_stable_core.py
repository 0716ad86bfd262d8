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

    @pytest.mark.parametrize("beta", [1.2, 1.5, 1.8])
    def test_continuous_across_tail_cutoff(self, beta):
        # the table ends and the tail series starts at +-tail_cutoff
        kernel = StableKernel(beta)
        edge = kernel.tail_cutoff
        for side in (edge, -edge):
            inner = np.nextafter(side, 0.0)
            outer = np.nextafter(side, 2.0 * side)
            for method in ("log_density", "g", "dg"):
                f = getattr(kernel, method)
                assert abs(f(outer) - f(inner)) < 1e-9, (method, side)

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
        # one far point moves log phi off its log1p(y^2) form onto hypot
        log_phi = kernel1.log_density(np.append(y, 1e300))[:-1]
        np.testing.assert_allclose(log_phi, -np.log(np.pi) - np.log1p(y * y), rtol=1e-15)
        np.testing.assert_allclose(kernel1.g(y), -2.0 * y / s, rtol=0, atol=1e-15)
        # dg = -2 v^2 (v^2 - u^2) cancels near |y| = 1: a few ulp of |dg| <= 2
        np.testing.assert_allclose(kernel1.dg(y), -2.0 * (1.0 - y * y) / s**2, rtol=0, atol=4e-15)


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

    def test_computed_once_per_kernel(self, monkeypatch):
        kernel = StableKernel(1.0)
        first = kernel.info_constants()

        def no_quadrature(*args, **kwargs):
            raise AssertionError("information constants integrated again")

        monkeypatch.setattr(stable_core.integrate, "quad", no_quadrature)
        assert kernel.info_constants() == first

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
        u, w = stable_core._panel_nodes(
            kernel15._u_max(), stable_core.PANEL_WIDTH, stable_core.PANEL_ORDER
        )
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
