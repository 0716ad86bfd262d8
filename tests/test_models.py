"""Model specifications: parsing, derivatives, bounds."""

import numpy as np
import pytest

from stableql.errors import DomainError, UsageError
from stableql.models import MODEL_REGISTRY, ModelSpec, Theta, build_model


class TestTheta:
    def test_roundtrip(self):
        theta = Theta.from_full([1.0, 2.0, 3.0], p_alpha=2)
        assert np.array_equal(theta.alpha, [1.0, 2.0])
        assert np.array_equal(theta.gamma, [3.0])
        assert np.array_equal(theta.full, [1.0, 2.0, 3.0])


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_builds_with_theta_true_inside_bounds(self, name):
        model = build_model(name)
        assert model.theta_true is not None
        assert model.contains(model.theta_true)

    def test_unknown_name(self):
        with pytest.raises(UsageError, match="unknown model"):
            build_model("no-such-model")

    def test_nonlinear_2d_values(self, nonlinear_2d):
        x = np.array([0.0, 1.0])
        theta = nonlinear_2d.theta_true
        a = nonlinear_2d.drift(x, theta.alpha)
        c = nonlinear_2d.scale(x, theta.gamma)
        assert np.allclose(a, [-1.0 * 0 + 1.0 / 1.0, -1.0 + 1.0 / 2.0])
        assert np.allclose(
            c, np.exp(1.5 * np.cos(x) + 0.5 * np.sin(x))
        )


class TestExpressionModels:
    def test_custom_model(self):
        m = build_model(
            drift="a1*x + a2", scale="exp(g1)", p_alpha=2, p_gamma=1,
            bounds=[(-5, 5), (-5, 5), (-3, 3)], theta_true=[1.0, 0.5, 0.2],
        )
        x = np.array([2.0])
        assert np.allclose(m.drift(x, [1.0, 0.5]), [2.5])
        assert np.allclose(m.scale(x, [0.2]), [np.exp(0.2)])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(UsageError, match="unknown symbols"):
            build_model(drift="b1*x", scale="g1", p_alpha=1, p_gamma=1,
                        bounds=[(-1, 1), (0, 1)])

    def test_parse_error(self):
        with pytest.raises(UsageError, match="cannot parse"):
            build_model(drift="a1*(x", scale="g1", p_alpha=1, p_gamma=1,
                        bounds=[(-1, 1), (0, 1)])

    def test_missing_pieces(self):
        with pytest.raises(UsageError):
            build_model(drift="a1*x", scale="g1")

    def test_bad_bounds(self):
        with pytest.raises(DomainError, match="empty bounds"):
            ModelSpec("m", "a1*x", "g1", 1, 1, [(1, 1), (0, 1)])

    def test_bounds_count_mismatch(self):
        with pytest.raises(DomainError):
            ModelSpec("m", "a1*x", "g1", 1, 1, [(0, 1)])

    def test_theta_true_size_mismatch(self):
        with pytest.raises(DomainError, match="theta_true"):
            build_model(drift="a1*x", scale="g1", p_alpha=1, p_gamma=1,
                        bounds=[(-1, 1), (0, 1)], theta_true=[0.5, 0.5, 0.5])


class TestDerivatives:
    @pytest.mark.parametrize("name", ["nonlinear-1d", "nonlinear-2d"])
    def test_first_and_second_derivatives_match_fd(self, name):
        model = build_model(name)
        x = np.linspace(-2, 3, 17)
        alpha = model.theta_true.alpha + 0.3
        gamma = model.theta_true.gamma - 0.2
        eps = 1e-6

        da = model.drift_dalpha(x, alpha)
        dda = model.drift_ddalpha(x, alpha)
        assert da.shape == (model.p_alpha, len(x))
        assert dda.shape == (model.p_alpha, model.p_alpha, len(x))
        for i in range(model.p_alpha):
            e = np.zeros(model.p_alpha)
            e[i] = eps
            fd = (model.drift(x, alpha + e) - model.drift(x, alpha - e)) / (2 * eps)
            assert np.allclose(da[i], fd, atol=1e-7)
            fd2 = (model.drift_dalpha(x, alpha + e) - model.drift_dalpha(x, alpha - e)) / (2 * eps)
            assert np.allclose(dda[:, i], fd2, atol=1e-6)

        dc = model.scale_dgamma(x, gamma)
        ddc = model.scale_ddgamma(x, gamma)
        for i in range(model.p_gamma):
            e = np.zeros(model.p_gamma)
            e[i] = eps
            fd = (model.scale(x, gamma + e) - model.scale(x, gamma - e)) / (2 * eps)
            assert np.allclose(dc[i], fd, atol=1e-6)
            fd2 = (model.scale_dgamma(x, gamma + e) - model.scale_dgamma(x, gamma - e)) / (2 * eps)
            assert np.allclose(ddc[:, i], fd2, atol=1e-5)

    def test_constant_scale_broadcasts(self):
        model = build_model("ou-const")
        x = np.linspace(-1, 1, 9)
        c = model.scale(x, [0.7])
        assert c.shape == x.shape
        assert np.allclose(c, 0.7)
        assert model.scale_dgamma(x, [0.7]).shape == (1, 9)


class TestBoundsHelpers:
    def test_clip(self, nonlinear_1d):
        lo = np.array([b[0] for b in nonlinear_1d.bounds])
        hi = np.array([b[1] for b in nonlinear_1d.bounds])
        clipped = nonlinear_1d.clip_to_bounds(hi + 5.0)
        assert np.array_equal(clipped, hi)
        clipped = nonlinear_1d.clip_to_bounds(lo - 5.0)
        assert np.array_equal(clipped, lo)

    def test_describe(self, nonlinear_1d):
        d = nonlinear_1d.describe()
        assert d["name"] == "nonlinear-1d"
        assert d["p_alpha"] == 1 and d["p_gamma"] == 1
        assert d["theta_true"] == [-1.0, 1.5]
