"""Euler path simulation on a fine grid and thinning to the observation grid.

Data generation follows the two-stage protocol used throughout the
experiments: simulate on a grid much finer than the observation frequency
(default 50 sub-steps per observation interval), then keep every
``factor``-th point.  One type, ``ObservationSeries(x, h)``, holds a path on
either grid; its step count ``n`` and horizon ``T = n*h`` follow from ``x``
and ``h``.  The scale coefficient is evaluated at the left end of each step,
matching the predictable integrand of the stochastic integral.

The steps run in the model's compiled Euler walk ``ModelSpec.euler_walk``,
a loop on Python floats with the update inlined, so no Python function is
called per step.  The increments are converted to floats, and the states
written back into the path array, in chunks of ``_CHUNK`` steps, which keeps
the Python lists short on long paths.  An overflow or domain error raised by
the ``math`` functions of the update ends the walk; each chunk's states are
then checked for finiteness at once.  Either failure ends the simulation
with ``SimulationOverflowError`` carrying the step of the first non-finite
state, or else of the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SimulationOverflowError, UsageError
from .models import ModelSpec
from .samplers import NoiseSpec, RngStream

__all__ = ["ObservationSeries", "simulate_fine", "thin"]

# Steps per chunk of increments converted to Python floats at a time.
_CHUNK = 4096


@dataclass(frozen=True)
class ObservationSeries:
    """Records X_{jh}, j = 0..n, on a uniform grid of step h over horizon T = n*h."""

    x: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        if self.x.ndim != 1:
            raise DomainError(f"expected a 1-d series, got shape {self.x.shape}")
        if not np.all(np.isfinite(self.x)):
            raise DomainError("non-finite observation values")
        if not (math.isfinite(self.h) and self.h > 0):
            raise DomainError(f"step h must be positive and finite, got {self.h}")

    @property
    def n(self) -> int:
        return len(self.x) - 1

    @property
    def T(self) -> float:
        return self.n * self.h

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h


def simulate_fine(
    model: ModelSpec,
    noise: NoiseSpec,
    T: float,
    n_fine: int,
    x0: float,
    rng: RngStream,
    increments: np.ndarray | None = None,
) -> ObservationSeries:
    """Euler scheme for dX = a(X, alpha0) dt + c(X-, gamma0) dJ at theta_true,
    on the grid of step delta = T / n_fine.

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

    walk = model.euler_walk
    x = np.empty(n_fine + 1)
    x[0] = xk = float(x0)
    for lo in range(0, n_fine, _CHUNK):
        states, error = walk(xk, delta, increments[lo : lo + _CHUNK].tolist())
        chunk = x[lo + 1 : lo + 1 + len(states)]
        chunk[:] = states
        finite = np.isfinite(chunk)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise SimulationOverflowError(lo + bad + 1, float(chunk[bad]))
        if error is not None:
            raise SimulationOverflowError(lo + len(states) + 1, math.nan) from error
        xk = states[-1]
    return ObservationSeries(x=x, h=delta)


def thin(path: ObservationSeries, factor: int) -> ObservationSeries:
    """Keep every factor-th point of a series."""
    if factor < 1 or path.n % factor != 0:
        raise UsageError(f"thinning factor {factor} must divide the step count {path.n}")
    return ObservationSeries(x=path.x[::factor], h=path.h * factor)
