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

StableKernel evaluates each of them through one evaluator, _evaluate, which
splits every call once, at a cutoff fixed at construction: a near source
serves the points inside it, and the tail series of phi and its derivatives,
as polynomials in |y|^(-beta) by Horner's rule, those beyond.  At beta = 1
the near source is the standard Cauchy law's closed forms in 1 + y^2, up to
|y| = 1e150, beyond which the tail series is the exact asymptote.  Otherwise
phi, phi' and phi'' are computed once, at construction, by the inversion
integral on a uniform grid over [0, TAIL_CUTOFF] (composite Gauss-Legendre
quadrature, summed at every grid point by _uniform_trig_sums; angle addition
leaves each node the cosines and sines of about 4 count^(1/4) angles for
count grid points), and log phi and g are tabulated from them as cubic
Hermite interpolants whose slopes are the exact g and dg; dg is the
derivative of the g interpolant.  These tables, mirrored for negative y,
serve |y| <= TAIL_CUTOFF.  Every value is a function of its own point alone:
evaluating an array at once and point by point gives the same bits.  phi,
phi', phi'' and k derive from log phi, g and dg.

llt's density inversion shares the quadrature: _frequency_cutoff picks
where the nodes end and _panel_nodes places them, for the kernel's tables
and for every driver's characteristic function alike.

The information constants c_alpha = int g^2 phi dy, c_gamma = int k^2 phi dy
and the mass int phi dy are computed at construction by _line_quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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
# Composite Gauss-Legendre quadrature of cosine-transform inversions; see
# _panel_nodes.
PANEL_WIDTH = 0.25
PANEL_PHASE = 15.0
PANEL_ORDER = 12
# Gauss-Legendre nodes of _line_quadrature beyond TAIL_CUTOFF.
TAIL_NODES = 80


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
        * np.array([math.gamma(k * beta + 1.0) / math.gamma(k + 1.0) for k in ks])
        * np.sin(ks * beta * np.pi / 2.0)
        / np.pi
    )


def _frequency_cutoff(log_integrand) -> float:
    """Smallest u with log_integrand(u) <= -42 (integrand below 1e-18), to 1e-3 relative.

    log_integrand is the log of the largest integrand column, decreasing
    beyond the crossing, and takes an array of u.  One call at the powers of
    1.5 up to 1.5^63 brackets the crossing; a second on a geometric grid of
    ratio at most 1.001 inside the bracket finds the first grid point where
    log_integrand <= -42, which is returned.
    """
    powers = 1.5 ** np.arange(64)
    decayed = np.asarray(log_integrand(powers)) <= -42.0
    if not decayed.any():
        raise NumericError("integrand decays too slowly to invert")
    hi = powers[np.argmax(decayed)]
    count = math.ceil(math.log(1.5) / math.log(1.001))
    grid = np.append(hi * 1.5 ** (np.arange(1 - count, 0) / count), hi)
    # hi is known to have decayed; it is not evaluated again
    decayed = np.append(np.asarray(log_integrand(grid[:-1])) <= -42.0, True)
    return float(grid[np.argmax(decayed)])


def _panel_nodes(u_max: float, y_max: float):
    """Composite Gauss-Legendre nodes/weights on [0, u_max] for a cosine
    transform evaluated at |y| <= y_max.

    Panels are min(PANEL_WIDTH, PANEL_PHASE / y_max) wide, so cos(u y) turns
    through at most PANEL_PHASE radians in one panel at every |y| <= y_max:
    on grids wider than y_max = 60, PANEL_WIDTH panels alias the far grid.
    The first panel is subdivided geometrically towards 0: integrands of the
    form exp(-u^beta) have unbounded higher derivatives there for non-integer
    beta, which would otherwise cap the accuracy around 1e-8.
    """
    panel_width = min(PANEL_WIDTH, PANEL_PHASE / y_max)
    n_panels = max(1, int(np.ceil(u_max / panel_width)))
    uniform = np.linspace(0.0, u_max, n_panels + 1)
    graded = uniform[1] * 0.5 ** np.arange(40, 0, -1)
    edges = np.concatenate([[0.0], graded, uniform[1:]])
    x, w = leggauss(PANEL_ORDER)
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


# Nodes per pass of _uniform_trig_sums.  Its tables of about 80 angles by
# 128 nodes, 83 kB each, stay in cache and below glibc's 128 kB mmap
# threshold, so they are not mapped and faulted in afresh on every pass.
_NODE_CHUNK = 128


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
    half grid of make_grid(), whose two tables hold 155.  The nodes are
    taken _NODE_CHUNK at a time and the products summed.
    """
    nodes = np.asarray(nodes, dtype=float)
    block = math.isqrt(count - 1) + 1
    blocks = -(-count // block)
    weights = [None if w is None else np.asarray(w, dtype=float) for w in (cos_weights, sin_weights)]
    # (k, blocks, b) per sum: rows m, columns i of the sum at j = m * b + i
    tables = [None if w is None else np.zeros((w.size // nodes.size, blocks, block)) for w in weights]
    for start in range(0, nodes.size, _NODE_CHUNK):
        part = slice(start, start + _NODE_CHUNK)
        cos_c, sin_c = _cos_sin(nodes[part], step * block, blocks)
        cos_f, sin_f = _cos_sin(nodes[part], step, block)
        pairs = ((cos_c, sin_c, -1.0), (sin_c, cos_c, 1.0))
        for w, table, (first, second, sign) in zip(weights, tables, pairs):
            if w is not None:
                w = w[part].reshape(first.shape[1], -1).T[:, None, :]
                table += (w * first) @ cos_f.T
                table += sign * ((w * second) @ sin_f.T)
    return tuple(
        None if w is None else t.reshape(t.shape[0], -1)[:, :count].T.reshape((count,) + w.shape[1:])
        for w, t in zip(weights, tables)
    )


def _half_grid() -> np.ndarray:
    """Tabulation grid on [0, TAIL_CUTOFF]; the table mirrors it to the left."""
    return np.linspace(0.0, TAIL_CUTOFF, int(round(TAIL_CUTOFF / GRID_STEP)) + 1)


def _hermite(values, slopes) -> np.ndarray:
    """Cubic Hermite interpolant of values and slopes at the points of _half_grid().

    Row i holds its coefficients, lowest power first, in t = y / GRID_STEP - i
    on the interval [y_i, y_(i+1)].
    """
    d = np.diff(values)
    s0, s1 = GRID_STEP * slopes[:-1], GRID_STEP * slopes[1:]
    return np.stack([values[:-1], s0, 3.0 * d - 2.0 * s0 - s1, s0 + s1 - 2.0 * d], axis=1)


def _line_quadrature(beta: float):
    """Nodes y >= 0 and weights w with int f dy over the line = sum w f(y) for even f.

    2 x (composite Simpson on _half_grid() + TAIL_NODES-point Gauss-Legendre
    on t in (0, 1] beyond the cutoff, with y = TAIL_CUTOFF * t^(-1/beta),
    which makes each term a_k y^(-k beta - 1) dy of phi's tail series a
    multiple of t^(k-1)).
    """
    grid = _half_grid()
    assert grid.size % 2 == 1, "Simpson's rule needs an even number of intervals"
    simpson = np.where(np.arange(grid.size) % 2, 4.0, 2.0)
    simpson[[0, -1]] = 1.0
    x, w = leggauss(TAIL_NODES)
    t = (x + 1.0) / 2.0
    tail = TAIL_CUTOFF * t ** (-1.0 / beta)
    weights = [simpson * (2.0 * GRID_STEP / 3.0), w * tail / (beta * t)]
    return np.concatenate([grid, tail]), np.concatenate(weights)


def _points(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("non-finite evaluation point")
    return y


def _horner(coefficients, r):
    """sum_k coefficients[k] r^k by Horner's rule, each value a function of
    its own r alone."""
    value = coefficients[-1] * r + coefficients[-2]
    for c in coefficients[-3::-1]:
        value *= r
        value += c
    return value


# At beta = 1 the forms in 1 + y^2, which overflows past |y| ~ 1e154, serve |y|
# up to here; beyond, the tail series, its r^2 below 1e-300, is the exact asymptote.
_CAUCHY_SQUARE_SAFE = 1e150


def _cauchy(y, part):
    """log phi, g or dg of the standard Cauchy law, in 1 + y^2."""
    if part == 0:
        return -np.log(np.pi) - np.log1p(y * y)
    s = 1.0 + y * y
    return -2.0 * y / s if part == 1 else -2.0 * (1.0 - y * y) / s / s


@dataclass(frozen=True)
class InfoConstants:
    c_alpha: float
    c_gamma: float


class StableKernel:
    """Evaluator for log phi, g and dg and the quantities derived from them.

    Immutable after construction, which computes the information constants;
    all evaluation methods are pure, accept scalars or arrays and reject
    non-finite points with DomainError.
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
        # the tail series of phi, phi' and phi'', scaled by |y|^(1+beta) and
        # by -y and y^2, as polynomials in r = |y|^(-beta), lowest power first
        coeffs = _tail_series_coefficients(self.beta)
        powers = np.arange(1, coeffs.size + 1) * self.beta + 1.0
        self._tail_polys = tuple(
            poly.tolist() for poly in (coeffs, coeffs * powers, coeffs * powers * (powers + 1.0))
        )
        if self.beta == 1.0:
            self._near, self._cutoff = _cauchy, _CAUCHY_SQUARE_SAFE
        else:
            self._tables = self._hermite_tables()
            self._near, self._cutoff = self._interpolate, TAIL_CUTOFF
        y, w = _line_quadrature(self.beta)
        w_phi, g = w * np.exp(self._evaluate(y, 0)), self._evaluate(y, 1)
        self._mass = float(np.sum(w_phi))
        self._constants = InfoConstants(float(w_phi @ g**2), float(w_phi @ (1.0 + y * g) ** 2))

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        """phi, phi' and phi'' at the points of _half_grid(), y_j = j * GRID_STEP.

        The nodes end where (1 + u)^2 exp(-u^beta), which bounds the largest
        weight column u^2 exp(-u^beta), falls below 1e-18.
        """
        u_max = _frequency_cutoff(lambda u: 2.0 * np.log1p(u) - u**self.beta)
        u, w = _panel_nodes(u_max, TAIL_CUTOFF)
        damp = w * np.exp(-(u**self.beta))
        even, odd = _uniform_trig_sums(
            u, GRID_STEP, _half_grid().size,
            np.stack([damp, damp * u**2], axis=1), damp * u,
        )
        return even[:, 0] / np.pi, -odd / np.pi, -even[:, 1] / np.pi

    def _hermite_tables(self):
        """Polynomial tables of log phi, g and dg on the intervals of _half_grid().

        log phi and g are cubic Hermite interpolants whose knot slopes are the
        exact g and dg; the dg table is the derivative of the g table.
        """
        phi, dphi, ddphi = self._build_tables()
        g = dphi / phi
        dg = ddphi / phi - g * g
        g_table = _hermite(g, dg)
        return _hermite(np.log(phi), g), g_table, g_table[:, 1:] * (np.arange(1, 4) / GRID_STEP)

    # -- evaluation --------------------------------------------------------

    def _interpolate(self, y, part):
        """Table of part at the points |y| <= TAIL_CUTOFF: the polynomial of half-grid
        interval int(|y| / GRID_STEP), with the sign of y for the odd g."""
        table = self._tables[part]
        pos = np.abs(y) / GRID_STEP
        row = np.minimum(pos.astype(np.intp), len(table) - 1)
        value = _horner(table[row].T, pos - row)
        return value * np.sign(y) if part == 1 else value

    def _evaluate(self, y: np.ndarray, part: int) -> np.ndarray:
        """log phi (part 0), g (part 1) or dg (part 2) at the finite points y.

        The near source, _cauchy at beta = 1 and _interpolate otherwise,
        serves the points with |y| up to the kernel's cutoff.  The tail series
        serves the points beyond, scaled by its leading power so that its
        ratios stay finite where the individual terms underflow: three
        polynomials in r = |y|^(-beta) that share r.
        """
        flat = y.reshape(-1)
        ay = np.abs(flat)
        far = ay > self._cutoff
        if not far.any():
            return self._near(flat, part).reshape(y.shape)
        out = np.empty_like(ay)
        near = ~far
        out[near] = self._near(flat[near], part)
        ay = ay[far]
        r = ay ** -self.beta
        s0 = _horner(self._tail_polys[0], r)
        if part == 0:
            out[far] = np.log(s0) - (self.beta + 1.0) * np.log(ay)
        else:
            inv = 1.0 / flat[far]
            g = -inv * _horner(self._tail_polys[1], r) / s0
            out[far] = g if part == 1 else inv * inv * _horner(self._tail_polys[2], r) / s0 - g * g
        return out.reshape(y.shape)

    def log_density(self, y):
        """log phi(y)."""
        return self._evaluate(_points(y), 0)[()]

    def g(self, y):
        """Log-density derivative phi'/phi; odd and bounded."""
        return self._evaluate(_points(y), 1)[()]

    def dg(self, y):
        """Derivative of g: phi''/phi - (phi'/phi)^2."""
        return self._evaluate(_points(y), 2)[()]

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
        """int phi over the line, by _line_quadrature."""
        return self._mass

    def info_constants(self) -> InfoConstants:
        """C_alpha = int g^2 phi and C_gamma = int k^2 phi, by _line_quadrature."""
        return self._constants
