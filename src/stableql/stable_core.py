"""Symmetric beta-stable density, score functions and information constants.

The standard symmetric beta-stable law has characteristic function
exp(-|u|^beta), beta in [1, 2).  Its density phi is recovered by the cosine
transform

    phi(y) = (1/pi) * int_0^inf exp(-u^beta) cos(u y) du.

The quasi-likelihood needs three functions of phi, thousands of times per
optimizer run:

    log phi(y)                        (objective)
    g(y)  = phi'(y) / phi(y)          (score; k(y) = 1 + y g(y))
    dg(y) = phi''/phi - (phi'/phi)^2  (Hessian)

StableKernel decides at construction how to evaluate them.  At beta = 1 the
law is standard Cauchy and all three are closed form.  Otherwise phi, phi'
and phi'' are computed once by the inversion integral on a uniform grid over
[-TAIL_CUTOFF, TAIL_CUTOFF] (composite Gauss-Legendre quadrature, summed at
every grid point by _uniform_trig_sums, which llt's density inversion shares;
angle addition leaves each node the cosines and sines of about
4 count^(1/4) angles for count grid points), and log phi, g and dg are
tabulated from them:
log phi and g as cubic Hermite splines whose slopes are the exact g and dg,
dg as a cubic spline.  Beyond the cutoff the asymptotic tail series of phi
and its derivatives takes over.  phi, phi', phi'' and k derive from log phi,
g and dg.

The scalar information constants are

    c_alpha = int g^2 phi dy,   c_gamma = int k^2 phi dy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.special import gamma as gamma_fn

from .errors import DomainError, NumericError

__all__ = [
    "StableKernel",
    "InfoConstants",
    "stable_tail_coefficient",
]

_TAIL_TERMS = 10
# Tabulation grid: step and half-width; the tail series is used beyond it.
GRID_STEP = 1e-3
TAIL_CUTOFF = 15.0
# Composite Gauss-Legendre quadrature of cosine-transform inversions.
PANEL_WIDTH = 0.25
PANEL_ORDER = 12
# Absolute tolerance of the information-constant quadrature.
QUAD_TOL = 1e-10


def stable_tail_coefficient(beta: float) -> float:
    """Leading tail coefficient c such that phi(y) ~ c / |y|^(1+beta).

    Equals (1/pi) * Gamma(1+beta) * sin(beta*pi/2); reduces to 1/pi at beta=1.
    """
    return _tail_series_coefficients(beta, 1)[0]


def _tail_series_coefficients(beta: float, terms: int = _TAIL_TERMS) -> np.ndarray:
    """Coefficients of the large-|y| expansion phi(y) = sum_k a_k y^(-k*beta-1)."""
    ks = np.arange(1, terms + 1)
    return (
        (-1.0) ** (ks + 1)
        * gamma_fn(ks * beta + 1.0)
        / gamma_fn(ks + 1.0)
        * np.sin(ks * beta * np.pi / 2.0)
        / np.pi
    )


def _panel_nodes(u_max: float, panel_width: float, order: int):
    """Composite Gauss-Legendre nodes/weights on [0, u_max].

    The first panel is subdivided geometrically towards 0: integrands of the
    form exp(-u^beta) have unbounded higher derivatives there for non-integer
    beta, which would otherwise cap the accuracy around 1e-8.
    """
    n_panels = max(1, int(np.ceil(u_max / panel_width)))
    uniform = np.linspace(0.0, u_max, n_panels + 1)
    graded = uniform[1] * 0.5 ** np.arange(40, 0, -1)
    edges = np.concatenate([[0.0], graded, uniform[1:]])
    x, w = leggauss(order)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _cos_sin(nodes, step, count):
    """cos and sin of u k step for k < count at the nodes u; shape (count, len(nodes)).

    Writing k = p * q + r with q = ceil(sqrt(count)), angle addition forms
    them from the cosines and sines of about 2 sqrt(count) angles per node.
    """
    q = math.isqrt(count - 1) + 1
    coarse = np.multiply.outer(step * q * np.arange(-(-count // q)), nodes)[:, None, :]
    fine = np.multiply.outer(step * np.arange(q), nodes)
    cos_c, sin_c = np.cos(coarse), np.sin(coarse)
    cos_f, sin_f = np.cos(fine), np.sin(fine)
    cos = (cos_c * cos_f - sin_c * sin_f).reshape(-1, nodes.size)[:count]
    sin = (sin_c * cos_f + cos_c * sin_f).reshape(-1, nodes.size)[:count]
    return cos, sin


def _uniform_trig_sums(nodes, step, count, cos_weights, sin_weights):
    """Sums over the nodes u of w(u) cos(u j step) and w(u) sin(u j step), j < count.

    Each weight array has shape (len(nodes),) or (len(nodes), k), or is None
    to skip its sum; each sum has shape (count,) or (count, k).  Writing
    j = m * b + i with b = ceil(sqrt(count)), the angle-addition identities

        cos(A + B) = cos A cos B - sin A sin B
        sin(A + B) = sin A cos B + cos A sin B

    with A = u m b step and B = u i step reduce each sum to two matrix
    products over tables of count / b coarse and b fine angles per node.
    _cos_sin builds each table by the same identities, so a node needs the
    cosines and sines of about 4 count^(1/4) angles: 36 for the 6001-point
    half grid of make_grid(), whose two tables hold 155.
    """
    nodes = np.asarray(nodes, dtype=float)
    block = math.isqrt(count - 1) + 1
    cos_c, sin_c = _cos_sin(nodes, step * block, -(-count // block))
    cos_f, sin_f = _cos_sin(nodes, step, block)

    def trig_sum(weights, first, second, sign):
        if weights is None:
            return None
        weights = np.asarray(weights, dtype=float)
        w = weights.reshape(nodes.size, -1).T[:, None, :]
        # (k, blocks, b): rows m, columns i of the sum at j = m * b + i
        table = (w * first) @ cos_f.T
        table += sign * ((w * second) @ sin_f.T)
        flat = table.reshape(table.shape[0], -1)[:, :count]
        return flat.T.reshape((count,) + weights.shape[1:])

    return (
        trig_sum(cos_weights, cos_c, sin_c, -1.0),
        trig_sum(sin_weights, sin_c, cos_c, 1.0),
    )


def _half_grid() -> np.ndarray:
    """Tabulation grid on [0, TAIL_CUTOFF]; the table mirrors it to the left."""
    return np.linspace(0.0, TAIL_CUTOFF, int(round(TAIL_CUTOFF / GRID_STEP)) + 1)


def _points(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("non-finite evaluation point")
    return y


# Cauchy closed forms through r = hypot(1, y), u = y / r and v = 1 / r, finite
# for every finite y; 1 + y^2 itself overflows beyond |y| ~ 1e154.  log phi
# and g, which every objective evaluation and score call, keep the cheaper
# forms in 1 + y^2 while all points lie below _CAUCHY_SQUARE_SAFE.
_CAUCHY_SQUARE_SAFE = 1e150


def _cauchy_log_phi(y):
    if np.abs(y).max(initial=0.0) < _CAUCHY_SQUARE_SAFE:
        return -np.log(np.pi) - np.log1p(y * y)
    return -np.log(np.pi) - 2.0 * np.log(np.hypot(1.0, y))


def _cauchy_g(y):
    if np.abs(y).max(initial=0.0) < _CAUCHY_SQUARE_SAFE:
        return -2.0 * y / (1.0 + y * y)
    r = np.hypot(1.0, y)
    return -2.0 * (y / r) * (1.0 / r)


def _cauchy_dg(y):
    r = np.hypot(1.0, y)
    u, v = y / r, 1.0 / r
    return -2.0 * v * v * (v * v - u * u)


@dataclass(frozen=True)
class InfoConstants:
    c_alpha: float
    c_gamma: float


class StableKernel:
    """Evaluator for log phi, g and dg and the quantities derived from them.

    Immutable after construction; all evaluation methods are pure, accept
    scalars or arrays and reject non-finite points with DomainError.
    """

    def __init__(self, beta: float):
        if not np.isfinite(beta):
            raise DomainError(f"beta must be finite, got {beta!r}")
        if not (1.0 <= beta < 2.0):
            raise DomainError(
                f"beta must lie in [1, 2), got {beta}; beta=2 is rejected because "
                "the Gaussian-limit normalization is incompatible with exp(-|u|^2)"
            )
        self.beta = float(beta)
        self.tail_cutoff = TAIL_CUTOFF
        self._info_constants: InfoConstants | None = None
        self._tail_coeffs = _tail_series_coefficients(self.beta)
        self._tail_powers = np.arange(1, self._tail_coeffs.size + 1) * self.beta + 1.0
        if self.beta == 1.0:
            self._log_phi, self._g, self._dg = _cauchy_log_phi, _cauchy_g, _cauchy_dg
        else:
            self._log_phi, self._g, self._dg = (
                partial(self._interpolate, spline, part)
                for part, spline in enumerate(self._splines())
            )

    # -- construction ------------------------------------------------------

    def _u_max(self) -> float:
        """Upper quadrature limit: exp(-u^beta) * (1 + u^2) below ~1e-18."""
        u = 4.0
        for _ in range(100):
            target = (42.0 + 2.0 * np.log1p(u)) ** (1.0 / self.beta)
            if abs(target - u) < 1e-9:
                break
            u = target
        return u

    def _build_tables(self):
        """phi, phi' and phi'' at the points of _half_grid(), y_j = j * GRID_STEP."""
        u, w = _panel_nodes(self._u_max(), PANEL_WIDTH, PANEL_ORDER)
        damp = w * np.exp(-(u**self.beta))
        even, odd = _uniform_trig_sums(
            u, GRID_STEP, _half_grid().size,
            np.stack([damp, damp * u**2], axis=1), damp * u,
        )
        return even[:, 0] / np.pi, -odd / np.pi, -even[:, 1] / np.pi

    def _splines(self):
        """Interpolants of log phi, g and dg on [-TAIL_CUTOFF, TAIL_CUTOFF]."""
        half_grid = _half_grid()
        phi, dphi, ddphi = self._build_tables()
        g = dphi / phi
        dg = ddphi / phi - g * g
        grid = np.concatenate([-half_grid[:0:-1], half_grid])

        def even(v):
            return np.concatenate([v[:0:-1], v])

        def odd(v):
            return np.concatenate([-v[:0:-1], v])

        return (
            CubicHermiteSpline(grid, even(np.log(phi)), odd(g)),
            CubicHermiteSpline(grid, odd(g), even(dg)),
            CubicSpline(grid, even(dg)),
        )

    # -- tail series -------------------------------------------------------

    def _tail(self, y: np.ndarray):
        """(log phi, g, dg) at points y beyond the table, from the tail series.

        The series is scaled by its leading power, so the ratios stay finite
        where the individual terms underflow.
        """
        ay = np.abs(y)
        powers = self._tail_powers
        rel = ay[:, None] ** -(powers - powers[0])[None, :]
        c = self._tail_coeffs
        s0 = rel @ c
        s1 = rel @ (c * powers)
        s2 = rel @ (c * powers * (powers + 1.0))
        inv = 1.0 / y
        g = -inv * s1 / s0
        return np.log(s0) - powers[0] * np.log(ay), g, inv * inv * s2 / s0 - g * g

    def _interpolate(self, spline, part: int, y: np.ndarray) -> np.ndarray:
        """Tabulated spline inside the cutoff, tail series beyond it."""
        inner = np.clip(y, -self.tail_cutoff, self.tail_cutoff)
        out = spline(inner)
        far = inner != y
        if far.any():
            out[far] = self._tail(y[far])[part]
        return out

    def tail_mass(self) -> float:
        """Analytic mass of the tail series on (tail_cutoff, inf)."""
        y0 = self.tail_cutoff
        ks = np.arange(1, self._tail_coeffs.size + 1)
        return float(np.sum(self._tail_coeffs / (ks * self.beta) * y0 ** (-(ks * self.beta))))

    # -- evaluation --------------------------------------------------------

    def log_density(self, y):
        """log phi(y)."""
        return self._log_phi(_points(y))[()]

    def g(self, y):
        """Log-density derivative phi'/phi; odd and bounded."""
        return self._g(_points(y))[()]

    def dg(self, y):
        """Derivative of g: phi''/phi - (phi'/phi)^2."""
        return self._dg(_points(y))[()]

    def density(self, y):
        """phi(y)."""
        return np.exp(self.log_density(y))

    def ddensity(self, y):
        """phi'(y) = g phi."""
        return self.g(y) * self.density(y)

    def dddensity(self, y):
        """phi''(y) = (dg + g^2) phi."""
        return (self.dg(y) + self.g(y) ** 2) * self.density(y)

    def k(self, y):
        """1 + y * g(y); even, bounded, tends to -beta in the tails."""
        return 1.0 + np.asarray(y, dtype=float) * self.g(y)

    # -- information constants --------------------------------------------

    def normalization(self) -> float:
        """int phi over the line: trapezoid over the table grid plus tail masses."""
        half_grid = _half_grid()
        return 2.0 * (float(np.trapezoid(self.density(half_grid), half_grid)) + self.tail_mass())

    def info_constants(self) -> InfoConstants:
        """C_alpha = int g^2 phi, C_gamma = int k^2 phi, by adaptive quadrature.

        Computed on the first call and returned from then on.
        """
        if self._info_constants is not None:
            return self._info_constants

        def ga(y):
            return self.g(y) ** 2 * self.density(y)

        def ka(y):
            return self.k(y) ** 2 * self.density(y)

        pieces = []
        for f in (ga, ka):
            val, err = integrate.quad(
                f, 0.0, np.inf, points=None, epsabs=QUAD_TOL, epsrel=1e-10, limit=400
            )
            if not np.isfinite(val) or err > 1e-6:
                raise NumericError(
                    f"information-constant quadrature did not converge (residual {err:.2e})"
                )
            pieces.append(2.0 * val)
        self._info_constants = InfoConstants(c_alpha=pieces[0], c_gamma=pieces[1])
        return self._info_constants
