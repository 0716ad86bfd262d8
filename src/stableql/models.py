"""Parametric SDE coefficient models a(x, alpha), c(x, gamma).

A model supplies the drift and scale together with first and second
parameter derivatives, a bounded box of admissible parameters, and an
optional true value used by the simulators.  Models are defined by sympy
expressions in the variable ``x`` and parameters ``a1..ap`` / ``g1..gq``;
derivatives come from symbolic differentiation, so user-defined expression
models get analytic scores for free.  Everything is compiled once, at
construction, one numpy function per parameter block and derivative order:
the drift block (a, da), the scale block (c, dc), and the second
derivatives dda and ddc, each evaluated in one pass with common
subexpressions shared.  ``coefficients`` and the six named methods
(``drift``, ``scale``, ``drift_dalpha``, ...) are slices of these four.  A
model with a true value also carries its Euler walk at that value, a scalar
``math`` loop for the simulators.

Built-in models are plain mappings in ``MODEL_REGISTRY``, holding the same
keyword fields as a config's ``model:`` mapping; ``build_model`` turns
either into one ModelSpec.  Because lambdified functions do not pickle, a
ModelSpec carries its defining expressions and can be rebuilt in worker
processes via ``build_model``.  sympy is imported by the first model build,
not by this module, so the paths that need no model (the local-limit lab,
the ``constants`` command) start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

import numpy as np

from .errors import DomainError, UsageError

__all__ = ["ModelSpec", "Theta", "build_model", "MODEL_REGISTRY"]


@dataclass(frozen=True)
class Theta:
    """Parameter point theta = (alpha, gamma).

    alpha and gamma are read-only copies, so a point never changes.  The
    likelihood functions of ``sqlik`` remember their last pass over the
    observations at this point in ``_memo``, which is neither compared,
    printed nor pickled.
    """

    alpha: np.ndarray
    gamma: np.ndarray
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha", "gamma"):
            value = np.array(getattr(self, name), float, ndmin=1)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __getstate__(self):
        return {"alpha": self.alpha, "gamma": self.gamma}

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


def _lambdify_block(exprs, args):
    """f(x, params) -> list of arrays of x's shape, one per expression.

    One numpy function lambdified with common subexpressions shared; a
    constant expression, such as the derivative of the scale g1, is
    broadcast to x.
    """
    import sympy as sp

    func = sp.lambdify(args, exprs, modules="numpy", cse=True)

    def evaluate(x, params):
        x = np.asarray(x, float)
        return [_like_x(v, x) for v in func(x, *np.atleast_1d(params))]

    return evaluate


@cache
def _scalar_printer_class():
    """Printer class of Python-float code in which a non-integer power is ``math.pow``.

    ``math.pow`` raises ValueError for a negative base, where ``**`` would
    return a complex number that no finiteness check accepts.
    """
    import sympy as sp
    from sympy.printing.pycode import PythonCodePrinter

    class _ScalarPrinter(PythonCodePrinter):
        def _print_Pow(self, expr, rational=False):
            if expr.exp.is_integer or expr.exp in (sp.S.Half, -sp.S.Half):
                return super()._print_Pow(expr, rational=rational)
            base, exp = self._print(expr.base), self._print(expr.exp)
            return f"{self._module_format('math.pow')}({base}, {exp})"

    return _ScalarPrinter


def _compile_euler_walk(x, a_sym, c_sym, values):
    """walk(x, delta, increments) -> (states, error) on Python floats.

    The walk applies x <- x + a(x)*delta + c(x)*dj for each dj in turn,
    with the update inlined in the loop body, and returns the list of
    states.  ``values`` maps the parameter symbols to numbers.  They are
    substituted as 17-digit Floats, so the printed literals round-trip to
    the same doubles.  An OverflowError, ValueError or ZeroDivisionError
    raised by the ``math`` functions ends the walk; it is returned as
    ``error`` together with the states before it.  A state that becomes
    non-finite without an exception is returned like any other.
    """
    import sympy as sp

    delta, dj = sp.symbols("delta dj")
    subs = {s: sp.Float(float(v), 17) for s, v in values.items()}
    expr = (x + a_sym * delta + c_sym * dj).subs(subs)
    printer = _scalar_printer_class()(
        {"fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True}
    )
    source = (
        f"def euler_walk({x}, {delta}, increments):\n"
        "    states = []\n"
        "    append = states.append\n"
        "    try:\n"
        f"        for {dj} in increments:\n"
        f"            {x} = {printer.doprint(expr)}\n"
        f"            append({x})\n"
        "    except (OverflowError, ValueError, ZeroDivisionError) as error:\n"
        "        return states, error\n"
        "    return states, None\n"
    )
    namespace = dict(vars(math))
    exec(compile(source, f"<euler walk {expr}>", "exec"), namespace)
    return namespace["euler_walk"]


class ModelSpec:
    """Drift/scale pair with analytic parameter derivatives and a bounds box.

    ``coefficients(x, alpha, gamma)`` gives a, c and their first parameter
    derivatives together, for the likelihood, from one call of the drift
    block and one of the scale block.  ``euler_walk(x, delta, increments)``
    is the Euler walk at ``theta_true`` on Python floats, or None for a model
    without a true value.  All are compiled here, once.
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

        import sympy as sp

        x = sp.Symbol("x")
        alphas = [sp.Symbol(f"a{i+1}") for i in range(p_alpha)]
        gammas = [sp.Symbol(f"g{i+1}") for i in range(p_gamma)]
        # the functions an expression may call, and its variables
        local = {
            "exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos,
            "tan": sp.tan, "sqrt": sp.sqrt, "pow": sp.Pow, "Abs": sp.Abs, "x": x,
        }
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

        # Compiled here, not on first use, so that forked workers inherit them.
        self._drift_block = _lambdify_block([a_sym, *da], (x, *alphas))
        self._scale_block = _lambdify_block([c_sym, *dc], (x, *gammas))
        self._dda_block = _lambdify_block([e for row in dda for e in row], (x, *alphas))
        self._ddc_block = _lambdify_block([e for row in ddc for e in row], (x, *gammas))
        self.euler_walk = None
        if theta_true is not None:
            values = dict(zip(alphas + gammas, theta_true.full))
            self.euler_walk = _compile_euler_walk(x, a_sym, c_sym, values)

    # -- evaluation (vectorized over x) -----------------------------------

    def drift(self, x, alpha) -> np.ndarray:
        return self._drift_block(x, alpha)[0]

    def scale(self, x, gamma) -> np.ndarray:
        return self._scale_block(x, gamma)[0]

    def drift_dalpha(self, x, alpha) -> np.ndarray:
        """Shape (p_alpha, n)."""
        return np.stack(self._drift_block(x, alpha)[1:])

    def drift_ddalpha(self, x, alpha) -> np.ndarray:
        """Shape (p_alpha, p_alpha, n)."""
        flat = np.stack(self._dda_block(x, alpha))
        return flat.reshape(self.p_alpha, self.p_alpha, *flat.shape[1:])

    def scale_dgamma(self, x, gamma) -> np.ndarray:
        """Shape (p_gamma, n)."""
        return np.stack(self._scale_block(x, gamma)[1:])

    def scale_ddgamma(self, x, gamma) -> np.ndarray:
        """Shape (p_gamma, p_gamma, n)."""
        flat = np.stack(self._ddc_block(x, gamma))
        return flat.reshape(self.p_gamma, self.p_gamma, *flat.shape[1:])

    def coefficients(self, x, alpha, gamma):
        """drift, scale, drift_dalpha and scale_dgamma at x, one call per block.

        a and c have x's shape, da and dc shapes (p_alpha, n) and
        (p_gamma, n); constants, such as the scale g1, are broadcast to them.
        """
        a, *da = self._drift_block(x, alpha)
        c, *dc = self._scale_block(x, gamma)
        return a, c, np.stack(da), np.stack(dc)

    # -- misc --------------------------------------------------------------

    @property
    def p(self) -> int:
        return self.p_alpha + self.p_gamma

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


def _box(theta_true, half_width=12.0):
    return [[t - half_width, t + half_width] for t in theta_true]


# Built-in models, as the keyword fields of build_model (the vocabulary of a
# config's model: mapping).  Bounds default to theta_true +- 12 so that the
# presets' start windows theta_true +- 10 fit inside.
MODEL_REGISTRY: dict[str, dict] = {
    # nonlinear mean-reverting drift with bounded perturbation and
    # log-trigonometric scale; 1d variant pins the second coordinates at 0
    "nonlinear-1d": {
        "drift": "a1*x", "scale": "exp(g1*cos(x))", "p_alpha": 1, "p_gamma": 1,
        "bounds": _box([-1.0, 1.5]), "theta_true": [-1.0, 1.5],
    },
    "nonlinear-2d": {
        "drift": "a1*x + a2/(1+x**2)", "scale": "exp(g1*cos(x) + g2*sin(x))",
        "p_alpha": 2, "p_gamma": 2,
        "bounds": _box([-1.0, 1.0, 1.5, 0.5]), "theta_true": [-1.0, 1.0, 1.5, 0.5],
    },
    "ou-const": {
        "drift": "a1*x", "scale": "g1", "p_alpha": 1, "p_gamma": 1,
        "bounds": _box([-1.0, 1.0], half_width=0.95), "theta_true": [-1.0, 1.0],
    },
    "ou-expscale": {
        "drift": "a1*x", "scale": "exp(g1)", "p_alpha": 1, "p_gamma": 1,
        "bounds": _box([-1.0, 0.0]), "theta_true": [-1.0, 0.0],
    },
}

_REQUIRED = ("drift", "scale", "p_alpha", "p_gamma", "bounds")


def build_model(name: str | None = None, **fields) -> ModelSpec:
    """Build a model from the keyword fields of a MODEL_REGISTRY entry.

    When ``name`` is a registry key and no drift is given, the registry
    entry supplies the fields not given.  None counts as absent.
    """
    unknown = sorted(set(fields) - {*_REQUIRED, "theta_true"})
    if unknown:
        raise TypeError(f"build_model() got unexpected keyword arguments {unknown}")
    given = {key: value for key, value in fields.items() if value is not None}
    if name is not None and "drift" not in given:
        if name not in MODEL_REGISTRY:
            raise UsageError(f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
        given = {**MODEL_REGISTRY[name], **given}
    if any(key not in given for key in _REQUIRED):
        raise UsageError(
            "expression models need drift, scale, p_alpha, p_gamma and bounds"
        )
    theta = given.get("theta_true")
    if theta is not None:
        theta = Theta.from_full(np.asarray(theta, float), given["p_alpha"])
    return ModelSpec(
        name or "custom", given["drift"], given["scale"], given["p_alpha"],
        given["p_gamma"], given["bounds"], theta_true=theta,
    )
