"""Small-time local limit lab: density inversion and L1 decay-rate fits.

For a driver J of small-time stable index beta, the density f_h of
h^(-1/beta) J_h (characteristic function exp(psi_h), psi_h =
``NoiseSpec.exponent``) converges to the stable density phi_beta in L1 at a
family-specific rate: h^(1/beta) for exponentially tempered beta-stable noise
and h log(1/h) for generalized hyperbolic (locally Cauchy) noise, NIG
included.  This module computes f_h by cosine-transform inversion, measures
the L1 distance to phi_beta, and fits log-log decay slopes.  The inversion
chooses its quadrature nodes by the same two rules as the StableKernel
tables (stable_core._frequency_cutoff and _panel_nodes) and sums them at
every grid point by the same nonuniform FFT (_uniform_trig_sums), so on a
stable driver it reproduces the kernel's density on the kernel's own grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .samplers import NoiseSpec
from .stable_core import (
    StableKernel,
    _frequency_cutoff,
    _panel_nodes,
    _uniform_trig_sums,
    stable_tail_coefficient,
)

__all__ = [
    "RateFit",
    "make_grid",
    "invert_density",
    "l1_distance",
    "rate_fit",
]

# The lab's former name for the driver type.  The benchmark's tracer wraps
# stableql.llt.CfModel.exponent, so the name stays importable from here.
CfModel = NoiseSpec


# -- density inversion and L1 metrics -------------------------------------


def make_grid(half_width: float = 60.0, spacing: float = 1e-2) -> np.ndarray:
    """Uniform symmetric grid on [-half_width, half_width]."""
    m = int(round(half_width / spacing))
    return np.arange(-m, m + 1) * spacing


def invert_density(cf: NoiseSpec, h: float, grid: np.ndarray) -> np.ndarray:
    """Density of h^(-1/beta) J_h on the grid via cosine-transform inversion.

    f_h(y) = (1/pi) int_0^inf cos(uy) exp(psi_h(u)) du, computed with
    composite Gauss-Legendre quadrature by the StableKernel tables' own
    rules: the nodes end within 1e-3 of the first u where exp(psi_h) drops
    below 1e-18 (stable_core._frequency_cutoff), and the panels narrow on
    grids wider than |y| = 60 (stable_core._panel_nodes).  Tiny negative
    lobes from quadrature ringing are clipped to zero.

    The grid must be finite, uniform and symmetric about 0, y_j = j * step
    as make_grid builds it: each y_j within 1e-12 + 1e-5 |y_-j| of -y_-j
    and within 1e-12 + 1e-12 |j step| of j step, allclose's tests written
    out; otherwise UsageError.  The transform is evaluated at all points at
    once by a nonuniform FFT (stable_core._uniform_trig_sums).
    A nig or gh_nig (gh_lambda = -1/2) exponent is in closed form, so the
    FFT and its gridding take nearly all of such an inversion.
    """
    grid = np.asarray(grid, float)
    if grid.ndim != 1 or len(grid) < 2:
        raise UsageError("grid must be a 1d array with at least 2 points")
    # both tests are allclose's |a - b| <= atol + rtol |b|, written out:
    # isclose's care for infinities costs as much as the test, and isfinite
    # rejects them first
    mirror = grid[::-1]
    if (
        len(grid) % 2 == 0
        or not np.isfinite(grid).all()
        or not np.all(np.abs(grid + mirror) <= 1e-12 + 1e-5 * np.abs(mirror))
    ):
        raise UsageError("grid must be symmetric about 0 and contain 0")
    center = len(grid) // 2
    step = float(grid[center + 1] - grid[center])
    uniform = step * np.arange(-center, center + 1)
    if step == 0.0 or not np.all(np.abs(grid - uniform) <= 1e-12 + 1e-12 * np.abs(uniform)):
        raise UsageError("grid must be uniform, y_j = j * step")
    step = abs(step)
    y_max = center * step
    u_max = _frequency_cutoff(lambda u: cf.exponent(u, h))
    nodes, weights = _panel_nodes(u_max, y_max)
    wphi = weights * np.exp(cf.exponent(nodes, h))
    if not np.all(np.isfinite(wphi)):
        raise NumericError("non-finite characteristic function values")
    out_half, _ = _uniform_trig_sums(nodes, step, center + 1, wphi, None)
    out_half /= np.pi
    np.clip(out_half, 0.0, None, out=out_half)
    return np.concatenate([out_half[:0:-1], out_half])


def l1_distance(grid: np.ndarray, f: np.ndarray, phi: np.ndarray, beta: float) -> float:
    """Trapezoidal L1 distance between f and phi, the beta-stable density on
    the grid, plus a tail correction beyond the grid edge.

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
    phi = np.asarray(phi, float)
    if f.shape != grid.shape or phi.shape != grid.shape:
        raise UsageError(f"density shapes {f.shape}, {phi.shape} do not match grid {grid.shape}")
    core = float(np.trapezoid(np.abs(f - phi), grid))
    y_max = float(grid[-1])
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
    cf: NoiseSpec,
    kernel: StableKernel,
    h_values,
    grid: np.ndarray | None = None,
) -> RateFit:
    """Fit the L1 decay slope over a decreasing sequence of h values.

    The kernel must be the stable limit of cf, of the same beta.  Distances
    indistinguishable from quadrature noise (below 1e-8) are excluded from
    the regression, as is the largest h when the quadratic curvature of the
    log-log relation exceeds 0.1 (rates are asymptotic).
    """
    if kernel.beta != cf.beta:
        raise DomainError(
            f"kernel is for beta={kernel.beta}, but the cf model has beta={cf.beta}"
        )
    h_values = np.asarray(sorted(h_values, reverse=True), float)
    if len(h_values) < 4:
        raise UsageError("rate_fit needs at least 4 h values")
    if h_values[0] / h_values[-1] < 100.0:
        raise UsageError("h values must span at least two decades")
    if grid is None:
        grid = make_grid()
    phi = kernel.density(grid)
    l1 = np.array(
        [l1_distance(grid, invert_density(cf, h, grid), phi, kernel.beta) for h in h_values]
    )

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
