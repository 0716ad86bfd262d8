"""Parametric SDE coefficient models a(x, alpha), c(x, gamma).

A model supplies the drift and scale together with first and second
parameter derivatives, a bounded box of admissible parameters, and an
optional true value used by the simulators.  Models are defined by
expression strings in the variable ``x`` and parameters ``a1..ap`` /
``g1..gq``, compiled here without any symbolic-algebra package:

* a string is parsed with ``ast.parse(expr, mode="eval")`` and only this
  grammar is accepted: finite numbers; the symbols ``x`` and ``a1..ap`` in
  the drift, ``x`` and ``g1..gq`` in the scale; the constants ``pi`` and
  ``E``; binary ``+ - * / **`` (``^`` is read as ``**``); unary ``-`` and
  ``+``; and the calls ``exp log sin cos tan tanh sqrt Abs`` of one
  argument and ``pow`` of two.  Any other syntax (an attribute, subscript,
  lambda, conditional, comparison, keyword, other function...) raises
  ``UsageError`` naming it, as do another name ("unknown symbols") and a
  constant part that is not a finite number, such as ``log(0)``.  Nothing
  in the string is ever evaluated.
* derivatives come from the chain rule on the parsed tree, built by
  constructors that fold constants and drop ``0*``, ``1*`` and ``+0``, so
  user-defined expression models get analytic scores for free.
* everything is compiled once, at construction, one numpy function per
  parameter block and derivative order: the drift block (a, da), the scale
  block (c, dc), and the second derivatives dda and ddc.  In each, a
  subexpression used more than once is computed once, and one used once
  stays inline, and each function writes its trees into the rows of one
  array.  ``coefficients`` and the six named methods (``drift``, ``scale``,
  ``drift_dalpha``, ...) are views of one array per block.  A model with a
  true value also carries its Euler walk at that value, a scalar ``math``
  loop for the simulators.

Built-in models are plain mappings in ``MODEL_REGISTRY``, holding the same
keyword fields as a config's ``model:`` mapping; ``build_model`` turns
either into one ModelSpec.  Because compiled functions do not pickle, a
ModelSpec carries its defining expressions and can be rebuilt in worker
processes via ``build_model``.
"""

from __future__ import annotations

import ast
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, UsageError

__all__ = ["ModelSpec", "Theta", "build_model", "MODEL_REGISTRY"]


@dataclass(frozen=True)
class Theta:
    """Parameter point theta = (alpha, gamma), or a stack of B points, whose
    alpha and gamma have shapes (B, p_alpha) and (B, p_gamma).

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
        return np.concatenate([self.alpha, self.gamma], axis=-1)

    @classmethod
    def from_full(cls, vec: Sequence[float], p_alpha: int) -> "Theta":
        vec = np.asarray(vec, float)
        return cls(alpha=vec[..., :p_alpha], gamma=vec[..., p_alpha:])


# -- expression compiler ----------------------------------------------------
#
# An expression is a tree of tuples: ("num", value), ("sym", name), a binary
# operator ("+", "-", "*", "/" or "**") with its two operands, ("neg", u), or
# a function name with its one operand.  Trees compare and hash by value, so
# a repeated subexpression is found by dictionary lookup.  Nodes are made only
# by the constructors below, which fold numbers and drop 0*, 1* and +0.

_ZERO, _ONE, _TWO = ("num", 0.0), ("num", 1.0), ("num", 2.0)
_MINUS_ONE = ("num", -1.0)
_X, _DELTA, _DJ = ("sym", "x"), ("sym", "delta"), ("sym", "dj")

# the one-argument functions of the grammar, and the functions each compiled
# form calls them as; sign appears only in derivatives of Abs
_SCALAR = {
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
    "tan": math.tan, "tanh": math.tanh, "sqrt": math.sqrt, "Abs": abs,
}
_NUMPY = {
    "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "tanh": np.tanh, "sqrt": np.sqrt, "Abs": np.abs, "sign": np.sign,
}
_CONSTANTS = {"pi": ("num", math.pi), "E": ("num", math.e)}


def _fold(op, *values):
    """op(*values) as a number node; UsageError where it is not a finite number."""
    try:
        value = op(*values)
    except (ArithmeticError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(
            "a constant in a model expression is not a finite number: "
            f"{op.__name__}({', '.join(map(repr, values))})"
        )
    return ("num", value)


def _numbers(u, v):
    return u[0] == "num" and v[0] == "num"


def _add(u, v):
    if u == _ZERO:
        return v
    if v == _ZERO:
        return u
    if v[0] == "neg":
        return _sub(u, v[1])
    if u[0] == "neg":
        return _sub(v, u[1])
    return (_numbers(u, v) and _fold(operator.add, u[1], v[1])) or ("+", u, v)


def _sub(u, v):
    if v == _ZERO:
        return u
    if u == _ZERO:
        return _neg(v)
    if v[0] == "neg":
        return _add(u, v[1])
    return (_numbers(u, v) and _fold(operator.sub, u[1], v[1])) or ("-", u, v)


def _neg(u):
    if u[0] == "num":
        return ("num", -u[1])
    return u[1] if u[0] == "neg" else ("neg", u)


def _mul(u, v):
    # x*(-y) == -(x*y) exactly, so signs move out to where + and - absorb them
    if u == _ZERO or v == _ZERO:
        return _ZERO
    if u == _ONE:
        return v
    if v == _ONE:
        return u
    if u == _MINUS_ONE:
        return _neg(v)
    if v == _MINUS_ONE:
        return _neg(u)
    if u[0] == "neg":
        return _neg(_mul(u[1], v))
    if v[0] == "neg":
        return _neg(_mul(u, v[1]))
    return (_numbers(u, v) and _fold(operator.mul, u[1], v[1])) or ("*", u, v)


def _div(u, v):
    if u == _ZERO:
        return _ZERO
    if v == _ONE:
        return u
    return (_numbers(u, v) and _fold(operator.truediv, u[1], v[1])) or ("/", u, v)


def _pow(u, v):
    if v == _ZERO:
        return _ONE
    if v == _ONE:
        return u
    return (_numbers(u, v) and _fold(math.pow, u[1], v[1])) or ("**", u, v)


def _call(name, u):
    return (u[0] == "num" and name in _SCALAR and _fold(_SCALAR[name], u[1])) or (name, u)


_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div, ast.Pow: _pow}


def _names(params, values=None) -> dict:
    """The names an expression in x and ``params`` may use, each with its node.

    With ``values``, each parameter is bound to its number, as in the Euler
    walk at theta_true.
    """
    if values is None:
        nodes = [("sym", s) for s in params]
    else:
        nodes = [("num", float(v)) for v in values]
    return {**_CONSTANTS, "x": _X, **dict(zip(params, nodes))}


def _parse(text: str, names: dict) -> tuple:
    """The tree of an expression string whose names are the keys of ``names``.

    Each name becomes its node in ``names``: a symbol, or a number when a
    parameter is bound to a value.  Syntax outside the grammar raises
    UsageError naming it; so do names outside ``names``, all together.  As
    in sympify, ``^`` is replaced by ``**`` before parsing, so it binds as a
    power, not as Python's xor.
    """
    try:
        body = ast.parse(str(text).strip().replace("^", "**"), mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise UsageError(f"cannot parse model expression {text!r}: {exc}") from exc
    unknown = set()

    def convert(node):
        if isinstance(node, ast.Constant):
            if type(node.value) in (int, float) and abs(node.value) <= sys.float_info.max:
                return ("num", float(node.value))
        elif isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            unknown.add(node.id)
            return ("sym", node.id)
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](convert(node.left), convert(node.right))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = convert(node.operand)
            return _neg(operand) if isinstance(node.op, ast.USub) else operand
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name != "pow" and name not in _SCALAR:
                raise UsageError(f"unknown function {name!r} in model expression {text!r}")
            arity = 2 if name == "pow" else 1
            if len(node.args) == arity and not node.keywords:
                args = [convert(arg) for arg in node.args]
                return _pow(*args) if name == "pow" else _call(name, *args)
        raise UsageError(
            f"unsupported syntax {ast.unparse(node)!r} in model expression {text!r}"
        )

    tree = convert(body)
    if unknown:
        raise UsageError(
            f"unknown symbols in model expression {text!r}: {sorted(unknown)}"
        )
    return tree


# d/du of each function f(u), times du
_CHAIN = {
    "exp": lambda f, du: _mul(f, du),
    "log": lambda f, du: _div(du, f[1]),
    "sin": lambda f, du: _mul(_call("cos", f[1]), du),
    "cos": lambda f, du: _neg(_mul(_call("sin", f[1]), du)),
    "tan": lambda f, du: _mul(_add(_ONE, _pow(f, _TWO)), du),
    "tanh": lambda f, du: _mul(_sub(_ONE, _pow(f, _TWO)), du),
    "sqrt": lambda f, du: _div(du, _mul(_TWO, f)),
    "Abs": lambda f, du: _mul(_call("sign", f[1]), du),
    "sign": lambda f, du: _ZERO,
}


def _diff(tree: tuple, var: str) -> tuple:
    """d tree / d var by the chain rule, built with the folding constructors."""
    memo = {}

    def d(u):
        if u not in memo:
            memo[u] = rule(u)
        return memo[u]

    def rule(u):
        kind = u[0]
        if kind == "num":
            return _ZERO
        if kind == "sym":
            return _ONE if u[1] == var else _ZERO
        if kind == "neg":
            return _neg(d(u[1]))
        if kind in ("+", "-"):
            return (_add if kind == "+" else _sub)(d(u[1]), d(u[2]))
        if kind == "*":
            return _add(_mul(d(u[1]), u[2]), _mul(u[1], d(u[2])))
        # Terms are built only where they are used: folding an unused term,
        # such as den**2 in d(x/1e200), could raise for a constant that the
        # derivative does not contain.
        if kind == "/":
            top, den = u[1], u[2]
            quotient, dden = _div(d(top), den), d(den)
            if dden == _ZERO:
                return quotient
            return _sub(quotient, _div(_mul(top, dden), _pow(den, _TWO)))
        if kind == "**":
            base, power = u[1], u[2]
            if power[0] == "num":
                return _mul(_mul(power, _pow(base, ("num", power[1] - 1.0))), d(base))
            terms, dpower = _div(_mul(power, d(base)), base), d(power)
            if dpower != _ZERO:
                terms = _add(_mul(dpower, _call("log", base)), terms)
            return _mul(u, terms)
        du = d(u[1])
        return _ZERO if du == _ZERO else _CHAIN[kind](u, du)

    return d(tree)


def _emit(roots, scalar: bool) -> tuple[list[str], list[str]]:
    """Python source computing the trees ``roots``: (statements, expressions).

    A subexpression used more than once is computed once, by a statement
    ``t<i> = ...`` before its first use; one used once stays inline.  With
    ``scalar``, a power whose exponent is not an integer is ``pow(u, v)``,
    which the Euler walk binds to ``math.pow``: it raises ValueError for a
    negative base, where ``**`` on floats would return a complex number.
    """
    uses, order = {}, []

    def count(u):
        uses[u] = uses.get(u, 0) + 1
        if uses[u] == 1 and u[0] not in ("num", "sym"):
            for child in u[1:]:
                if isinstance(child, tuple):
                    count(child)
            order.append(u)

    for root in roots:
        count(root)

    names = {}

    def render(u):
        if u in names:
            return names[u]
        kind = u[0]
        if kind == "num":
            return repr(u[1]) if math.copysign(1.0, u[1]) > 0 else f"({u[1]!r})"
        if kind == "sym":
            return u[1]
        if kind == "neg":
            return f"(-{render(u[1])})"
        if len(u) == 2:
            return f"{kind}({render(u[1])})"
        if kind == "**" and scalar and not (u[2][0] == "num" and u[2][1].is_integer()):
            return f"pow({render(u[1])}, {render(u[2])})"
        return f"({render(u[1])} {kind} {render(u[2])})"

    lines = []
    for u in order:
        if uses[u] > 1:
            text, name = render(u), f"t{len(names)}"
            lines.append(f"{name} = {text}")
            names[u] = name
    return lines, [render(root) for root in roots]


def _compile_block(trees, args):
    """f(x, params) -> one float array, row i the value of tree i.

    params is one parameter vector, and the array has shape (k,) + x.shape
    for k trees, or a stack of B vectors, shape (B, p), whose columns
    broadcast against x as (B, 1) arrays, and the array has shape (k, B) +
    x.shape.  One numpy function with repeated subexpressions computed once;
    a tree that does not involve both x and the parameters, such as the
    derivative of the scale g1, is broadcast into its row by assignment.
    """
    lines, results = _emit(trees, scalar=False)
    source = (
        f"def block({', '.join(args)}):\n"
        + "".join(f"    {line}\n" for line in lines)
        + f"    return [{', '.join(results)}]\n"
    )
    namespace = dict(_NUMPY)
    exec(compile(source, "<model block>", "exec"), namespace)
    func = namespace["block"]

    def evaluate(x, params):
        x = np.asarray(x, float)
        params = np.atleast_1d(np.asarray(params, float))
        stack = params.shape[:-1]
        columns = params.T.reshape(params.shape[-1:] + stack + (1,) * x.ndim)
        out = np.empty((len(trees),) + stack + x.shape)
        for i, value in enumerate(func(x, *columns)):
            out[i] = value
        return out

    return evaluate


def _compile_euler_walk(a, c):
    """walk(x, delta, increments) -> (states, error) on Python floats.

    ``a`` and ``c`` are the drift and scale trees with the parameters bound
    to numbers, whose ``repr`` literals round-trip to the same doubles.  The
    walk applies x <- a(x)*delta + c(x)*dj + x for each dj in turn, with the
    update inlined in the loop body, and returns the list of states.  An
    OverflowError, ValueError or ZeroDivisionError raised by the ``math``
    functions or the float operators ends the walk; it is returned as
    ``error`` together with the states before it.  A state that becomes
    non-finite without an exception is returned like any other.
    """
    # Summed as (a*delta + c*dj) + x, the order in which the registry models'
    # seeded paths were first generated, so that they keep their bits.
    step = _add(_mul(a, _DELTA), _mul(c, _DJ))
    lines, (update,) = _emit([_add(step, _X)], scalar=True)
    source = (
        "def euler_walk(x, delta, increments):\n"
        "    states = []\n"
        "    append = states.append\n"
        "    try:\n"
        "        for dj in increments:\n"
        + "".join(f"            {line}\n" for line in lines)
        + f"            x = {update}\n"
        "            append(x)\n"
        "    except (OverflowError, ValueError, ZeroDivisionError) as error:\n"
        "        return states, error\n"
        "    return states, None\n"
    )
    namespace = {**_SCALAR, "pow": math.pow}
    exec(compile(source, f"<euler walk {update}>", "exec"), namespace)
    return namespace["euler_walk"]


class ModelSpec:
    """Drift/scale pair with analytic parameter derivatives and a bounds box.

    ``coefficients(x, alpha, gamma)`` gives a, c and their first parameter
    derivatives together, for the likelihood, from one call of the drift
    block and one of the scale block; it and the six named methods return
    views of one array per block.  ``euler_walk(x, delta, increments)``
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

        alphas = [f"a{i+1}" for i in range(p_alpha)]
        gammas = [f"g{i+1}" for i in range(p_gamma)]
        a, c = _parse(drift_expr, _names(alphas)), _parse(scale_expr, _names(gammas))
        da = [_diff(a, s) for s in alphas]
        dda = [_diff(d, t) for d in da for t in alphas]
        dc = [_diff(c, s) for s in gammas]
        ddc = [_diff(d, t) for d in dc for t in gammas]

        # Compiled here, not on first use, so that forked workers inherit them.
        self._drift_block = _compile_block([a, *da], ("x", *alphas))
        self._scale_block = _compile_block([c, *dc], ("x", *gammas))
        self._dda_block = _compile_block(dda, ("x", *alphas))
        self._ddc_block = _compile_block(ddc, ("x", *gammas))
        self.euler_walk = None
        if theta_true is not None:
            self.euler_walk = _compile_euler_walk(
                _parse(drift_expr, _names(alphas, theta_true.alpha)),
                _parse(scale_expr, _names(gammas, theta_true.gamma)),
            )

    # -- evaluation (vectorized over x) -----------------------------------

    def drift(self, x, alpha) -> np.ndarray:
        return self._drift_block(x, alpha)[0]

    def scale(self, x, gamma) -> np.ndarray:
        return self._scale_block(x, gamma)[0]

    def drift_dalpha(self, x, alpha) -> np.ndarray:
        """Shape (p_alpha, n)."""
        return self._drift_block(x, alpha)[1:]

    def drift_ddalpha(self, x, alpha) -> np.ndarray:
        """Shape (p_alpha, p_alpha, n)."""
        block = self._dda_block(x, alpha)
        return block.reshape((self.p_alpha, self.p_alpha) + block.shape[1:])

    def scale_dgamma(self, x, gamma) -> np.ndarray:
        """Shape (p_gamma, n)."""
        return self._scale_block(x, gamma)[1:]

    def scale_ddgamma(self, x, gamma) -> np.ndarray:
        """Shape (p_gamma, p_gamma, n)."""
        block = self._ddc_block(x, gamma)
        return block.reshape((self.p_gamma, self.p_gamma) + block.shape[1:])

    def coefficients(self, x, alpha, gamma):
        """drift, scale, drift_dalpha and scale_dgamma at x, one call per block.

        a and c have x's shape, da and dc shapes (p_alpha, n) and
        (p_gamma, n); constants, such as the scale g1, are broadcast to them.
        For stacks of B parameter vectors, shapes (B, p_alpha) and (B,
        p_gamma), a and c have shape (B, n) and da and dc (p_alpha, B, n) and
        (p_gamma, B, n), and each row is what its vectors give alone.  All
        four are views of the two block arrays.
        """
        drift = self._drift_block(x, alpha)
        scale = self._scale_block(x, gamma)
        return drift[0], scale[0], drift[1:], scale[1:]

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
