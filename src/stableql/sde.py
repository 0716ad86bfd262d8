"""Euler path simulation on a fine grid and thinning to the observation grid.

Data generation follows the two-stage protocol used throughout the
experiments: simulate on a grid much finer than the observation frequency
(default 50 sub-steps per observation interval), then keep every
``factor``-th point.  The scale coefficient is evaluated at the left end of
each step, matching the predictable integrand of the stochastic integral.

Each step is one call of the model's compiled scalar update
``ModelSpec.euler_step`` on Python floats, about ten times faster than
numpy-lambdified coefficients called on scalars.  The increments are
converted to floats, and the states written back into the path array, in
chunks of ``_CHUNK`` steps, which keeps the Python lists short on long
paths.  A non-finite state, or an overflow or domain error raised by the
``math`` functions of the update, ends the simulation with
``SimulationOverflowError`` carrying the step at which it happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SimulationOverflowError, UsageError
from .models import ModelSpec
from .samplers import NoiseSpec, RngStream

__all__ = ["FinePath", "ObservationSeries", "simulate_fine", "thin"]

# Steps per chunk of increments converted to Python floats at a time.
_CHUNK = 4096


@dataclass(frozen=True)
class ObservationSeries:
    """Equidistant records X_{jh}, j = 0..n, over horizon T = n*h."""

    x: np.ndarray
    h: float
    T: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        if self.x.shape != (self.n + 1,):
            raise DomainError(
                f"expected {self.n + 1} observations, got shape {self.x.shape}"
            )
        if abs(self.h * self.n - self.T) > 1e-12 * max(1.0, self.T):
            raise DomainError(f"h*n={self.h * self.n} inconsistent with T={self.T}")
        if not np.all(np.isfinite(self.x)):
            raise DomainError("non-finite observation values")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h


@dataclass(frozen=True)
class FinePath:
    """Simulation-resolution path with step delta = T / n_fine."""

    x: np.ndarray
    T: float
    n_fine: int

    @property
    def delta(self) -> float:
        return self.T / self.n_fine


def simulate_fine(
    model: ModelSpec,
    noise: NoiseSpec,
    T: float,
    n_fine: int,
    x0: float,
    rng: RngStream,
    increments: np.ndarray | None = None,
) -> FinePath:
    """Euler scheme for dX = a(X, alpha0) dt + c(X-, gamma0) dJ at theta_true.

    ``increments`` overrides the noise draws (used by deterministic tests and
    common-random-number experiments); otherwise n_fine increments at step
    delta are drawn from the noise spec.
    """
    if model.theta_true is None:
        raise UsageError("simulate_fine requires model.theta_true")
    if n_fine < 1:
        raise DomainError(f"n_fine must be >= 1, got {n_fine}")
    if T <= 0:
        raise DomainError(f"T must be positive, got {T}")
    delta = T / n_fine
    if increments is None:
        increments = noise.sample(delta, n_fine, rng)
    elif len(increments) != n_fine:
        raise UsageError(f"need {n_fine} increments, got {len(increments)}")
    increments = np.asarray(increments, dtype=float)

    step = model.euler_step
    isfinite = math.isfinite
    x = np.empty(n_fine + 1)
    x[0] = xk = float(x0)
    for lo in range(0, n_fine, _CHUNK):
        states = []
        append = states.append
        try:
            for dj in increments[lo : lo + _CHUNK].tolist():
                xk = step(xk, delta, dj)
                if not isfinite(xk):
                    raise SimulationOverflowError(lo + len(states) + 1, xk)
                append(xk)
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise SimulationOverflowError(lo + len(states) + 1, math.nan) from exc
        x[lo + 1 : lo + 1 + len(states)] = states
    return FinePath(x=x, T=T, n_fine=n_fine)


def thin(fine: FinePath, factor: int) -> ObservationSeries:
    """Keep every factor-th point of a fine path."""
    if factor < 1 or fine.n_fine % factor != 0:
        raise UsageError(
            f"thinning factor {factor} must divide the fine step count {fine.n_fine}"
        )
    n = fine.n_fine // factor
    return ObservationSeries(x=fine.x[::factor], h=fine.delta * factor, T=fine.T, n=n)
