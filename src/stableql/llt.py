"""Small-time local limit lab: density inversion and L1 decay-rate fits.

For a symmetric pure-jump Levy process J, the rescaled increment
h^(-1/beta) J_h has real characteristic function exp(psi_h(u)) with

    psi_h(u) = h * psi_1(h^(-1/beta) u),

where psi_1 is the unit-time characteristic exponent.  Locally stable
drivers satisfy psi_h(u) -> -|u|^beta as h -> 0, and the increment density
f_h converges to the stable density phi_beta in L1 at a family-specific
rate: h^(1/beta) for exponentially tempered beta-stable noise and
h log(1/h) for generalized hyperbolic (locally Cauchy) noise.  This module
computes f_h by cosine-transform inversion, measures the L1 distance to
phi_beta, and fits log-log decay slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import kve

from .errors import DomainError, NumericError, UsageError
from .stable_core import (
    PANEL_ORDER,
    PANEL_WIDTH,
    StableKernel,
    _panel_nodes,
    _uniform_trig_sums,
    stable_tail_coefficient,
)

__all__ = [
    "CfModel",
    "RateFit",
    "make_grid",
    "invert_density",
    "l1_distance",
    "rate_fit",
]


# -- characteristic exponent models ---------------------------------------


@dataclass(frozen=True)
class CfModel:
    """Characteristic exponent psi_h of the rescaled increment h^(-1/beta)J_h.

    kind 'stable': exact self-similarity, psi_h(u) = -u^beta for every h.
    kind 'tempered_stable': exponentially tempered beta-stable with tempering
    rate lambda_tempering, beta in [1, 2).
    kind 'gh_nig': symmetric generalized hyperbolic GH(gh_lambda, gh_eta, 1),
    locally Cauchy, so beta = 1; gh_lambda = -1/2 is the NIG subfamily.
    """

    kind: str
    beta: float
    lambda_tempering: float | None = None
    gh_lambda: float | None = None
    gh_eta: float | None = None

    def __post_init__(self):
        if self.kind not in ("stable", "tempered_stable", "gh_nig"):
            raise DomainError(f"unknown cf model kind {self.kind!r}")
        if not (0.0 < self.beta < 2.0):
            raise DomainError(f"beta must be in (0,2), got {self.beta}")
        if self.kind == "tempered_stable":
            if self.lambda_tempering is None or self.lambda_tempering <= 0:
                raise DomainError("tempered_stable requires lambda_tempering > 0")
            if self.beta < 1.0:
                raise DomainError("tempered_stable closed forms require beta >= 1")
        if self.kind == "gh_nig":
            if self.gh_lambda is None or self.gh_eta is None or self.gh_eta <= 0:
                raise DomainError("gh_nig requires gh_lambda and gh_eta > 0")
            if self.beta != 1.0:
                raise DomainError("gh_nig is locally Cauchy; beta must be 1")

    def exponent(self, u, h: float) -> np.ndarray:
        """psi_h(u) on u > 0; real-valued and nonpositive."""
        if h <= 0:
            raise DomainError(f"h must be positive, got {h}")
        u = np.asarray(u, float)
        if np.any(u <= 0.0):
            raise DomainError("exponent is defined for u > 0")
        if self.kind == "stable":
            return -(u**self.beta)
        if self.kind == "tempered_stable":
            lam = self.lambda_tempering
            if self.beta == 1.0:
                return (
                    lam * h * np.log1p(u**2 / (lam * h) ** 2)
                    - 2.0 * u * np.arctan(u / (lam * h))
                ) / np.pi
            b = self.beta
            cb = stable_tail_coefficient(b)
            hp = h ** (1.0 / b)
            return (
                2.0
                * cb
                * gamma_fn(-b)
                * (
                    (lam**2 * hp**2 + u**2) ** (b / 2.0)
                    * np.cos(b * np.arctan(u / (lam * hp)))
                    - lam**b * h
                )
            )
        return h * self._gh_unit_exponent(u / h)

    def _gh_unit_exponent(self, v: np.ndarray) -> np.ndarray:
        """log of the GH(lambda, eta, 1) characteristic function at v."""
        lam, eta = self.gh_lambda, self.gh_eta
        s = np.sqrt(eta**2 + v**2)
        # log K_lam(x) = log kve(lam, x) - x (kve is the exponentially
        # scaled Bessel function, stable for large arguments)
        log_k_s = np.log(kve(lam, s)) - s
        log_k_eta = math.log(kve(lam, eta)) - eta
        return 0.5 * lam * (2.0 * math.log(eta) - np.log(eta**2 + v**2)) + log_k_s - log_k_eta


# -- density inversion and L1 metrics -------------------------------------


# Radians of cos(u y_max) that one PANEL_ORDER-point panel integrates; 15/60
# is PANEL_WIDTH, so the default grid keeps PANEL_WIDTH panels.
_PANEL_PHASE = 15.0


def make_grid(half_width: float = 60.0, spacing: float = 1e-2) -> np.ndarray:
    """Uniform symmetric grid on [-half_width, half_width]."""
    m = int(round(half_width / spacing))
    return np.arange(-m, m + 1) * spacing


def _frequency_cutoff(cf: CfModel, h: float) -> float:
    """Smallest u with psi_h(u) <= -42 (integrand below 1e-18), to 1e-3 relative.

    Powers of 1.5 bracket the crossing, and bisection narrows the bracket
    below 1e-3 of its upper end, which is returned: psi_h <= -42 holds there.
    """

    def decayed(u: float) -> bool:
        return float(cf.exponent(u, h)) <= -42.0

    hi = 1.0
    for _ in range(64):
        if decayed(hi):
            break
        hi *= 1.5
    else:
        raise NumericError("characteristic exponent decays too slowly to invert")
    lo = hi / 1.5
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if decayed(mid):
            hi = mid
        else:
            lo = mid
    return hi


def invert_density(cf: CfModel, h: float, grid: np.ndarray) -> np.ndarray:
    """Density of h^(-1/beta) J_h on the grid via cosine-transform inversion.

    f_h(y) = (1/pi) int_0^inf cos(uy) exp(psi_h(u)) du, computed with
    composite Gauss-Legendre panels up to _frequency_cutoff, within 1e-3
    of the first u where the integrand drops below 1e-18.  Tiny negative
    lobes from quadrature ringing are clipped to zero.

    The grid must be uniform and symmetric about 0, y_j = j * step as
    make_grid builds it; otherwise UsageError.  The transform is evaluated
    at all points at once by angle addition (stable_core._uniform_trig_sums).
    Panels are min(PANEL_WIDTH, _PANEL_PHASE / y_max) wide, so cos(u y) turns
    through at most _PANEL_PHASE radians in one panel at every grid point:
    on grids wider than y_max = 60, PANEL_WIDTH panels alias the far grid.
    """
    grid = np.asarray(grid, float)
    if grid.ndim != 1 or len(grid) < 2:
        raise UsageError("grid must be a 1d array with at least 2 points")
    if len(grid) % 2 == 0 or not np.allclose(grid, -grid[::-1], atol=1e-12):
        raise UsageError("grid must be symmetric about 0 and contain 0")
    center = len(grid) // 2
    step = float(grid[center + 1] - grid[center])
    uniform = step * np.arange(-center, center + 1)
    if step == 0.0 or not np.allclose(grid, uniform, rtol=1e-12, atol=1e-12):
        raise UsageError("grid must be uniform, y_j = j * step")
    step = abs(step)
    y_max = center * step
    u_max = _frequency_cutoff(cf, h)
    panel_width = min(PANEL_WIDTH, _PANEL_PHASE / y_max)
    nodes, weights = _panel_nodes(u_max, panel_width=panel_width, order=PANEL_ORDER)
    wphi = weights * np.exp(cf.exponent(nodes, h))
    if not np.all(np.isfinite(wphi)):
        raise NumericError("non-finite characteristic function values")
    out_half, _ = _uniform_trig_sums(nodes, step, center + 1, wphi, None)
    out_half /= np.pi
    np.clip(out_half, 0.0, None, out=out_half)
    return np.concatenate([out_half[:0:-1], out_half])


def l1_distance(grid: np.ndarray, f: np.ndarray, kernel: StableKernel) -> float:
    """Trapezoidal L1 distance between f and the stable density on the grid,
    plus a tail correction beyond the grid edge.

    Both tails are dominated by the stable power law c_beta/|y|^(1+beta).
    Writing f ~ r phi_beta near the boundary with r = f(y_max)/phi(y_max),
    the mass beyond the grid is estimated as |r - 1| c_beta/(beta y_max^beta)
    per tail.  The correction vanishes when f matches the stable density and
    scales with the boundary discrepancy otherwise, so it adds no constant
    floor that would mask the decay rate.

    It cannot see a discrepancy that starts beyond the grid.  gh_nig (eta = 5)
    increments are tempered at |y| of order 1/(eta h), while f_h still
    matches phi_1 at the default edge y = 60; so at h = 1e-3 the L1 is
    5.90e-3, 6.89e-3 and 7.86e-3 at half-widths 60, 120 and 240, and
    criterion 8's NIG slope moves with the width (0.891 at 60, 0.827 at 240).
    """
    grid = np.asarray(grid, float)
    f = np.asarray(f, float)
    if f.shape != grid.shape:
        raise UsageError(f"density shape {f.shape} does not match grid {grid.shape}")
    phi = kernel.density(grid)
    core = float(np.trapezoid(np.abs(f - phi), grid))
    y_max = float(grid[-1])
    beta = kernel.beta
    ratio = float(f[-1]) / float(phi[-1])
    tail = 2.0 * abs(ratio - 1.0) * stable_tail_coefficient(beta) / (beta * y_max**beta)
    return core + tail


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay fit of log L1 distance against log h."""

    h_values: np.ndarray
    l1_values: np.ndarray
    slope: float
    intercept: float
    excluded_h: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "h_values", np.asarray(self.h_values, float))
        object.__setattr__(self, "l1_values", np.asarray(self.l1_values, float))


def rate_fit(
    cf: CfModel,
    kernel: StableKernel,
    h_values,
    grid: np.ndarray | None = None,
) -> RateFit:
    """Fit the L1 decay slope over a decreasing sequence of h values.

    Distances indistinguishable from quadrature noise (below 1e-8) are
    excluded from the regression, as is the largest h when the quadratic
    curvature of the log-log relation exceeds 0.1 (rates are asymptotic).
    """
    h_values = np.asarray(sorted(h_values, reverse=True), float)
    if len(h_values) < 4:
        raise UsageError("rate_fit needs at least 4 h values")
    if h_values[0] / h_values[-1] < 100.0:
        raise UsageError("h values must span at least two decades")
    if grid is None:
        grid = make_grid()
    l1 = np.array([l1_distance(grid, invert_density(cf, h, grid), kernel) for h in h_values])

    usable = l1 > 1e-8
    excluded = [float(h) for h in h_values[~usable]]
    hs, ds = h_values[usable], l1[usable]
    if len(hs) < 3:
        return RateFit(h_values, l1, slope=float("nan"), intercept=float("nan"),
                       excluded_h=tuple(excluded))
    lh, ld = np.log(hs), np.log(ds)
    if len(hs) >= 4:
        curvature = abs(np.polyfit(lh, ld, 2)[0])
        if curvature > 0.1:
            excluded.append(float(hs[0]))
            lh, ld = lh[1:], ld[1:]
    slope, intercept = np.polyfit(lh, ld, 1)
    return RateFit(h_values, l1, slope=float(slope), intercept=float(intercept),
                   excluded_h=tuple(excluded))
