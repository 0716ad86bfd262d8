"""Model specifications: parsing, derivatives, bounds."""

import os
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, reject, settings, strategies as st

from stableql import models
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

    # a drift takes the alphas and a scale the gammas, as a(x, alpha), c(x, gamma)
    @pytest.mark.parametrize("drift, scale", [
        ("a1*x + a2", "g1"), ("g1*x", "g1"), ("a1*x", "a1"),
    ])
    def test_parameter_outside_its_block_rejected(self, drift, scale):
        with pytest.raises(UsageError, match="unknown symbols"):
            build_model(drift=drift, scale=scale, p_alpha=1, p_gamma=1,
                        bounds=[(-1, 1), (0, 1)])

    def test_parse_error(self):
        with pytest.raises(UsageError, match="cannot parse"):
            build_model(drift="a1*(x", scale="g1", p_alpha=1, p_gamma=1,
                        bounds=[(-1, 1), (0, 1)])

    @pytest.mark.parametrize("drift, part", [
        ("__import__('os').getcwd()", "__import__('os').getcwd()"),
        ("x.real", "x.real"),
        ("(lambda: 1)()", "lambda: 1"),
        ("[x][0]", "[x][0]"),
        ("x if g1 else 1", "x if g1 else 1"),
        ("foo(x)", "'foo'"),
    ])
    def test_syntax_outside_the_grammar_rejected_unevaluated(self, drift, part, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "getcwd", lambda: calls.append("getcwd"))
        with pytest.raises(UsageError, match=re.escape(part)):
            build_model(drift=drift, scale="g1", p_alpha=1, p_gamma=1,
                        bounds=[(-1, 1), (0, 1)])
        assert calls == []

    def test_whole_grammar(self):
        # ^ is a power, as sympify read it
        m = build_model(
            drift="-a1*x^2 + pow(x, 3)/E - +pi*a1", p_alpha=1, p_gamma=1,
            scale="sqrt(Abs(g1*tanh(x))) + tan(x) + log(exp(sin(x)*cos(x)))",
            bounds=[(-5, 5), (-3, 3)], theta_true=[0.5, 2.0],
        )
        x = np.linspace(-1.2, 1.3, 7)
        a1, g1 = 0.7, -1.3
        np.testing.assert_allclose(
            m.drift(x, [a1]), -a1 * x**2 + x**3 / np.e - np.pi * a1, rtol=1e-14
        )
        np.testing.assert_allclose(
            m.drift_dalpha(x, [a1])[0], -(x**2) - np.pi, rtol=1e-14
        )
        np.testing.assert_allclose(
            m.scale(x, [g1]),
            np.sqrt(np.abs(g1 * np.tanh(x))) + np.tan(x) + np.sin(x) * np.cos(x),
            rtol=1e-14,
        )
        states, error = m.euler_walk(0.3, 0.01, [0.1, -0.2])
        assert error is None and len(states) == 2

    @pytest.mark.parametrize("drift", ["log(0)*x", "a1*x + 1/(2 - 2)", "a1*exp(1000)"])
    def test_undefined_constant_rejected(self, drift):
        with pytest.raises(UsageError, match="not a finite number"):
            build_model(drift=drift, scale="g1", p_alpha=1, p_gamma=1,
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
        compile_block = models._compile_block

        def counting(trees, args):
            calls.append(args)
            return compile_block(trees, args)

        monkeypatch.setattr(models, "_compile_block", counting)
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


# Points where no drawn expression is singular by construction (0, +-1, ...).
# Away from 0 and below 1.5 in size, so that drawn towers stay well
# conditioned: sympy evaluates sin((x*x)**(x + x)) as sin(Abs(x)**(4*x)),
# and sin(a1/x**pi) as sin(a1*x**(-pi)), which round differently; at
# x = 2.93 and at x = 0.03 the two differ by 1e-10 relative or more.
_GRID = np.linspace(-1.43, 1.37, 8)


def _grammar(symbols, depth):
    """Expression strings of the model grammar over ``symbols``, nested at most
    ``depth`` deep.  Numbers are floats: sympy would raise integer towers such
    as 3**(3**(3**3)) exactly."""
    leaf = st.sampled_from([*symbols, "2.0", "0.5", "pi", "E"])
    if depth == 0:
        return leaf
    sub = _grammar(symbols, depth - 1)
    functions = ["exp", "log", "sin", "cos", "tan", "tanh", "sqrt", "Abs"]
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "**"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(st.sampled_from(["-", "+"]), sub).map(lambda t: f"({t[0]}{t[1]})"),
        st.tuples(st.sampled_from(functions), sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"pow({t[0]}, {t[1]})"),
    )


def _sympy_oracle(text, params, values):
    """The expression, its first and its second parameter derivatives by
    sympy.diff and lambdify, at _GRID, as complex arrays."""
    x, *syms = sympy.symbols(["x", *params], real=True)
    # pi and E are the doubles the compiler reads them as; exact, sympy would
    # make sin(pi)**x zero where the compiler has 1.2e-16**x
    names = {"x": x, **dict(zip(params, syms)), "pow": sympy.Pow,
             "pi": sympy.Float(np.pi), "E": sympy.Float(np.e)}
    expr = sympy.sympify(text, locals=names)
    exprs = [expr, *(sympy.diff(expr, s) for s in syms),
             *(sympy.diff(expr, s, t) for s in syms for t in syms)]
    # the derivative of sign (from Abs) is 2*DiracDelta: 0 off a null set
    exprs = [e.replace(sympy.DiracDelta, lambda *args: sympy.S.Zero) for e in exprs]
    # undefined constants, and derivatives sympy leaves unevaluated (of Abs
    # of an argument that may be complex, such as log(a1))
    if any(e.has(sympy.zoo, sympy.nan, sympy.Derivative) for e in exprs):
        reject()
    values = sympy.lambdify((x, *syms), exprs, modules="numpy")(_GRID, *values)
    return [np.broadcast_to(np.asarray(v, complex), _GRID.shape) for v in values]


# Derandomized, so that each run draws the same examples: a rare draw whose
# value at a grid point is ill-conditioned, like those above, would
# otherwise fail one run in many without a fault in the compiler.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    drift=_grammar(["x", "a1", "a2"], 3),
    scale=_grammar(["x", "g1", "g2"], 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_match_sympy(drift, scale, seed):
    rng = np.random.default_rng(seed)
    # |theta| >= 0.25: cancellations that sympy does exactly, such as
    # (x + a1) - x, lose relative precision as a parameter nears 0
    theta = rng.uniform(0.25, 1.5, 4) * rng.choice([-1.0, 1.0], 4)
    alpha, gamma = theta[:2], theta[2:]
    try:
        model = ModelSpec("oracle", drift, scale, 2, 2, [(-10.0, 10.0)] * 4)
    except UsageError as exc:
        assert "not a finite number" in str(exc)
        reject()
    with np.errstate(all="ignore"):
        blocks = [
            (drift, [model.drift(_GRID, alpha), *model.drift_dalpha(_GRID, alpha),
                     *model.drift_ddalpha(_GRID, alpha).reshape(4, -1)],
             _sympy_oracle(drift, ["a1", "a2"], alpha)),
            (scale, [model.scale(_GRID, gamma), *model.scale_dgamma(_GRID, gamma),
                     *model.scale_ddgamma(_GRID, gamma).reshape(4, -1)],
             _sympy_oracle(scale, ["g1", "g2"], gamma)),
        ]
    # Compared where sympy's value is real and finite.  Points where the
    # compiled value is nan are skipped too: there the expression as written
    # is undefined, and sympy is finite only through an identity that holds
    # off the real domain, such as exp(log(u)) = u, u/u = 1 or
    # d/dg log(x**g) = log(x) at x < 0.
    for text, values, oracles in blocks:
        for i, (value, oracle) in enumerate(zip(values, oracles)):
            finite = np.isfinite(oracle) & (oracle.imag == 0) & ~np.isnan(value)
            np.testing.assert_allclose(
                value[finite], oracle.real[finite], rtol=1e-10, atol=1e-12,
                err_msg=f"{text}: entry {i}",
            )


class TestBoundsHelpers:
    def test_describe(self, nonlinear_1d):
        d = nonlinear_1d.describe()
        assert d["name"] == "nonlinear-1d"
        assert d["p_alpha"] == 1 and d["p_gamma"] == 1
        assert d["theta_true"] == [-1.0, 1.5]
