"""Model specifications: parsing, derivatives, bounds."""

import numpy as np
import pytest
import sympy

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

    def test_override_compiles_one_model(self, monkeypatch):
        calls = []
        init = ModelSpec.__init__

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "__init__", counting)
        model = build_model("nonlinear-2d", theta_true=[-0.5, 1.0, 1.5, 0.5])
        assert calls == ["nonlinear-2d"]
        assert list(model.theta_true.full) == [-0.5, 1.0, 1.5, 0.5]
        assert model.bounds == build_model("nonlinear-2d").bounds

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="theta"):
            build_model("nonlinear-1d", theta=[0.0, 1.0])

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


def _by_hand(name, x, alpha, gamma):
    """(a, c, da, dc, dda, ddc) of a registry model, written out in numpy."""
    zero, one = np.zeros_like(x), np.ones_like(x)
    if name == "nonlinear-2d":
        (a1, a2), (g1, g2) = alpha, gamma
        cos, sin = np.cos(x), np.sin(x)
        c = np.exp(g1 * cos + g2 * sin)
        return (
            a1 * x + a2 / (1 + x**2), c,
            [x, 1 / (1 + x**2)], [cos * c, sin * c],
            [[zero, zero], [zero, zero]],
            [[cos * cos * c, cos * sin * c], [sin * cos * c, sin * sin * c]],
        )
    (a1,), (g1,) = alpha, gamma
    if name == "nonlinear-1d":
        cos = np.cos(x)
        c = np.exp(g1 * cos)
        return a1 * x, c, [x], [cos * c], [[zero]], [[cos * cos * c]]
    if name == "ou-const":
        return a1 * x, g1 * one, [x], [one], [[zero]], [[zero]]
    assert name == "ou-expscale"
    c = np.exp(g1) * one
    return a1 * x, c, [x], [c], [[zero]], [[c]]


class TestCoefficients:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_every_evaluation_matches_hand_written_formulas(self, name):
        model = build_model(name)
        x = np.linspace(-2, 3, 41)
        alpha = model.theta_true.alpha + 0.3
        gamma = model.theta_true.gamma - 0.2
        a, c, da, dc, dda, ddc = (np.asarray(v) for v in _by_hand(name, x, alpha, gamma))
        got = {
            "coefficients": model.coefficients(x, alpha, gamma),
            "named": (
                model.drift(x, alpha), model.scale(x, gamma),
                model.drift_dalpha(x, alpha), model.scale_dgamma(x, gamma),
            ),
        }
        for path, values in got.items():
            for value, want in zip(values, (a, c, da, dc)):
                assert value.shape == want.shape, path
                np.testing.assert_allclose(value, want, rtol=1e-14, atol=0, err_msg=path)
        for value, want in ((model.drift_ddalpha(x, alpha), dda),
                            (model.scale_ddgamma(x, gamma), ddc)):
            assert value.shape == want.shape
            np.testing.assert_allclose(value, want, rtol=1e-14, atol=0)

    def test_four_compiled_blocks(self, monkeypatch):
        # drift with its first derivatives, scale with its first derivatives,
        # and the two blocks of second derivatives; the Euler walk is exec'd
        calls = []
        lambdify = sympy.lambdify

        def counting(*args, **kwargs):
            calls.append(args[1])
            return lambdify(*args, **kwargs)

        monkeypatch.setattr(sympy, "lambdify", counting)
        model = build_model("nonlinear-2d")
        assert len(calls) == 4
        assert model.euler_walk is not None

    def test_constants_broadcast(self):
        model = build_model("ou-const")
        x = np.linspace(-1, 1, 9)
        a, c, da, dc = model.coefficients(x, [-1.0], [0.7])
        assert c.shape == x.shape and np.all(c == 0.7)
        assert dc.shape == (1, 9) and np.all(dc == 1.0)
        assert da.shape == (1, 9) and np.array_equal(da[0], x)


class TestBoundsHelpers:
    def test_describe(self, nonlinear_1d):
        d = nonlinear_1d.describe()
        assert d["name"] == "nonlinear-1d"
        assert d["p_alpha"] == 1 and d["p_gamma"] == 1
        assert d["theta_true"] == [-1.0, 1.5]
