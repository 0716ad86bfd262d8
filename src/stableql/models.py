"""Parametric SDE coefficient models a(x, alpha), c(x, gamma).

A model supplies the drift and scale together with first and second
parameter derivatives, a bounded box of admissible parameters, and an
optional true value used by the simulators.  Models are defined by sympy
expressions in the variable ``x`` and parameters ``a1..ap`` / ``g1..gq``;
derivatives come from symbolic differentiation, so user-defined expression
models get analytic scores for free.  A model with a true value also carries
its Euler update at that value, compiled once to scalar ``math`` code for the
simulators.

Because lambdified functions do not pickle, a ModelSpec carries its
defining expressions and can be rebuilt in worker processes via
``build_model`` or the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import sympy as sp
from sympy.printing.pycode import PythonCodePrinter

from .errors import DomainError, UsageError

__all__ = ["ModelSpec", "Theta", "build_model", "MODEL_REGISTRY"]

_ALLOWED_FUNCS = {
    "exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos,
    "tan": sp.tan, "sqrt": sp.sqrt, "pow": sp.Pow, "Abs": sp.Abs,
}


@dataclass(frozen=True)
class Theta:
    """Parameter point theta = (alpha, gamma)."""

    alpha: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, float)))
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, float)))

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.gamma])

    @classmethod
    def from_full(cls, vec: Sequence[float], p_alpha: int) -> "Theta":
        vec = np.asarray(vec, float)
        return cls(alpha=vec[:p_alpha], gamma=vec[p_alpha:])


def _like_x(val, x: np.ndarray) -> np.ndarray:
    """val as a float array of x's shape; lambdified constants return scalars."""
    val = np.asarray(val, float)
    return val if val.shape == x.shape else np.broadcast_to(val, x.shape).copy()


def _lambdify_stack(exprs, args):
    """Lambdify a list of expressions into f(x, params) -> array (len, n)."""
    funcs = [sp.lambdify(args, e, modules="numpy") for e in exprs]

    def evaluate(x, params):
        x = np.asarray(x, float)
        return np.stack([_like_x(f(x, *params), x) for f in funcs], axis=0)

    return evaluate


class _ScalarPrinter(PythonCodePrinter):
    """Python-float code in which a non-integer power is ``math.pow``.

    ``math.pow`` raises ValueError for a negative base, where ``**`` would
    return a complex number that no finiteness check accepts.
    """

    def _print_Pow(self, expr, rational=False):
        if expr.exp.is_integer or expr.exp in (sp.S.Half, -sp.S.Half):
            return super()._print_Pow(expr, rational=rational)
        base, exp = self._print(expr.base), self._print(expr.exp)
        return f"{self._module_format('math.pow')}({base}, {exp})"


def _compile_euler_step(x, a_sym, c_sym, values):
    """step(x, delta, dj) = x + a(x)*delta + c(x)*dj on Python floats.

    ``values`` maps the parameter symbols to numbers.  They are substituted
    as 17-digit Floats, so the printed literals round-trip to the same
    doubles.  Failures surface as the math module's OverflowError,
    ValueError or ZeroDivisionError.
    """
    delta, dj = sp.symbols("delta dj")
    subs = {s: sp.Float(float(v), 17) for s, v in values.items()}
    expr = (x + a_sym * delta + c_sym * dj).subs(subs)
    printer = _ScalarPrinter(
        {"fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True}
    )
    return sp.lambdify((x, delta, dj), expr, modules="math", printer=printer)


class ModelSpec:
    """Drift/scale pair with analytic parameter derivatives and a bounds box.

    ``euler_step(x, delta, dj)`` is the Euler update at ``theta_true`` on
    Python floats, or None for a model without a true value.
    """

    def __init__(
        self,
        name: str,
        drift_expr: str,
        scale_expr: str,
        p_alpha: int,
        p_gamma: int,
        bounds: Sequence[tuple[float, float]],
        theta_true: Theta | None = None,
    ):
        if p_alpha < 1 or p_gamma < 1:
            raise DomainError("p_alpha and p_gamma must be at least 1")
        if len(bounds) != p_alpha + p_gamma:
            raise DomainError(
                f"bounds must have {p_alpha + p_gamma} entries, got {len(bounds)}"
            )
        for lo, hi in bounds:
            if not lo < hi:
                raise DomainError(f"empty bounds interval ({lo}, {hi})")
        if theta_true is not None and (
            theta_true.alpha.size != p_alpha or theta_true.gamma.size != p_gamma
        ):
            raise DomainError(
                f"theta_true needs {p_alpha} alpha and {p_gamma} gamma entries, got "
                f"{theta_true.alpha.size} and {theta_true.gamma.size}"
            )
        self.name = name
        self.drift_expr = drift_expr
        self.scale_expr = scale_expr
        self.p_alpha = p_alpha
        self.p_gamma = p_gamma
        self.bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        self.theta_true = theta_true

        x = sp.Symbol("x")
        alphas = [sp.Symbol(f"a{i+1}") for i in range(p_alpha)]
        gammas = [sp.Symbol(f"g{i+1}") for i in range(p_gamma)]
        local = dict(_ALLOWED_FUNCS)
        local["x"] = x
        local.update({str(s): s for s in alphas + gammas})
        try:
            a_sym = sp.sympify(drift_expr, locals=local)
            c_sym = sp.sympify(scale_expr, locals=local)
        except (sp.SympifyError, SyntaxError) as exc:
            raise UsageError(f"cannot parse model expression: {exc}") from exc
        free = (a_sym.free_symbols | c_sym.free_symbols) - set(alphas) - set(gammas) - {x}
        if free:
            raise UsageError(f"unknown symbols in model expressions: {sorted(map(str, free))}")

        da = [sp.diff(a_sym, s) for s in alphas]
        dda = [[sp.diff(a_sym, s, t) for t in alphas] for s in alphas]
        dc = [sp.diff(c_sym, s) for s in gammas]
        ddc = [[sp.diff(c_sym, s, t) for t in gammas] for s in gammas]

        args_a = (x, *alphas)
        args_g = (x, *gammas)
        self._a = sp.lambdify(args_a, a_sym, modules="numpy")
        self._c = sp.lambdify(args_g, c_sym, modules="numpy")
        self._da = _lambdify_stack(da, args_a)
        self._dda = _lambdify_stack([e for row in dda for e in row], args_a)
        self._dc = _lambdify_stack(dc, args_g)
        self._ddc = _lambdify_stack([e for row in ddc for e in row], args_g)
        # Compiled here, not on first use, so that forked workers inherit it.
        self.euler_step = None
        if theta_true is not None:
            values = dict(zip(alphas + gammas, theta_true.full))
            self.euler_step = _compile_euler_step(x, a_sym, c_sym, values)

    # -- evaluation (vectorized over x) -----------------------------------

    def drift(self, x, alpha) -> np.ndarray:
        x = np.asarray(x, float)
        return _like_x(self._a(x, *np.atleast_1d(alpha)), x)

    def scale(self, x, gamma) -> np.ndarray:
        x = np.asarray(x, float)
        return _like_x(self._c(x, *np.atleast_1d(gamma)), x)

    def drift_dalpha(self, x, alpha) -> np.ndarray:
        """Shape (p_alpha, n)."""
        return self._da(x, np.atleast_1d(alpha))

    def drift_ddalpha(self, x, alpha) -> np.ndarray:
        """Shape (p_alpha, p_alpha, n)."""
        flat = self._dda(x, np.atleast_1d(alpha))
        n = np.asarray(x, float).shape
        return flat.reshape(self.p_alpha, self.p_alpha, *n)

    def scale_dgamma(self, x, gamma) -> np.ndarray:
        return self._dc(x, np.atleast_1d(gamma))

    def scale_ddgamma(self, x, gamma) -> np.ndarray:
        flat = self._ddc(x, np.atleast_1d(gamma))
        n = np.asarray(x, float).shape
        return flat.reshape(self.p_gamma, self.p_gamma, *n)

    # -- misc --------------------------------------------------------------

    @property
    def p(self) -> int:
        return self.p_alpha + self.p_gamma

    def clip_to_bounds(self, vec: np.ndarray) -> np.ndarray:
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.clip(vec, lo, hi)

    def contains(self, theta: Theta) -> bool:
        v = theta.full
        return all(lo <= t <= hi for t, (lo, hi) in zip(v, self.bounds))

    def describe(self) -> dict:
        d = {
            "name": self.name,
            "drift": self.drift_expr,
            "scale": self.scale_expr,
            "p_alpha": self.p_alpha,
            "p_gamma": self.p_gamma,
            "bounds": self.bounds,
        }
        if self.theta_true is not None:
            d["theta_true"] = list(self.theta_true.full)
        return d


# Built-in models.  Bounds default to a wide box so that the uniform
# multistart windows of the experiment presets fit inside.
def _builtin(name, drift, scale, p_a, p_g, theta0, half_width=12.0):
    bounds = [(t - half_width, t + half_width) for t in theta0]
    theta = Theta(alpha=np.array(theta0[:p_a]), gamma=np.array(theta0[p_a:]))
    return lambda: ModelSpec(name, drift, scale, p_a, p_g, bounds, theta_true=theta)


MODEL_REGISTRY: dict[str, Callable[[], ModelSpec]] = {
    # nonlinear mean-reverting drift with bounded perturbation and
    # log-trigonometric scale; 1d variant pins the second coordinates at 0
    "nonlinear-1d": _builtin(
        "nonlinear-1d", "a1*x", "exp(g1*cos(x))", 1, 1, (-1.0, 1.5)
    ),
    "nonlinear-2d": _builtin(
        "nonlinear-2d",
        "a1*x + a2/(1+x**2)",
        "exp(g1*cos(x) + g2*sin(x))",
        2, 2, (-1.0, 1.0, 1.5, 0.5),
    ),
    "ou-const": _builtin("ou-const", "a1*x", "g1", 1, 1, (-1.0, 1.0), half_width=0.95),
    "ou-expscale": _builtin("ou-expscale", "a1*x", "exp(g1)", 1, 1, (-1.0, 0.0)),
}


def build_model(
    name: str | None = None,
    *,
    drift: str | None = None,
    scale: str | None = None,
    p_alpha: int | None = None,
    p_gamma: int | None = None,
    bounds=None,
    theta_true=None,
) -> ModelSpec:
    """Build a model from the registry or from explicit expressions."""
    if name is not None and drift is None:
        try:
            spec = MODEL_REGISTRY[name]()
        except KeyError:
            raise UsageError(
                f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
            ) from None
        if bounds is not None or theta_true is not None:
            theta = spec.theta_true
            if theta_true is not None:
                theta = Theta.from_full(np.asarray(theta_true, float), spec.p_alpha)
            spec = ModelSpec(
                spec.name, spec.drift_expr, spec.scale_expr,
                spec.p_alpha, spec.p_gamma,
                bounds if bounds is not None else spec.bounds,
                theta_true=theta,
            )
        return spec
    if drift is None or scale is None or p_alpha is None or p_gamma is None or bounds is None:
        raise UsageError(
            "expression models need drift, scale, p_alpha, p_gamma and bounds"
        )
    theta = None
    if theta_true is not None:
        theta = Theta.from_full(np.asarray(theta_true, float), p_alpha)
    return ModelSpec(name or "custom", drift, scale, p_alpha, p_gamma, bounds, theta_true=theta)
