"""Stable quasi-likelihood: objective, analytic derivatives, and maximizer.

The objective for observations (X_j) with step h is

    H(theta) = sum_j [ log phi(eps_j(theta)) - log c_{j-1}(gamma) - (1/beta) log h ]

with Euler residuals

    eps_j(theta) = (X_j - X_{j-1} - h a_{j-1}(alpha)) / (h^(1/beta) c_{j-1}(gamma)).

A Theta is one point or a stack of B points, and each gets one pass over
the observations: one ModelSpec.coefficients call gives a, c and their
first derivatives, as (B, n) arrays for a stack, from which the residuals
follow.  H and the score are sums along each row, so a point's values have
the same bits alone and in any stack; a point of a stack that violates the
model gets H = -inf, where a single point raises ModelViolationError.  The
pass is remembered on the Theta, so quasi_score at the points of a stack
reuses the pass quasi_loglik made there.  log phi, g and dg come from
the StableKernel passed in, whose beta must be the likelihood's, and
k = 1 + eps g is formed here from g.
Analytic gradient and Hessian:

    dH/dalpha = -h^(1-1/beta) sum_j (da_{j-1}/c_{j-1}) g(eps_j)
    dH/dgamma = -sum_j (dc_{j-1}/c_{j-1}) k(eps_j)

with second derivatives obtained by one more differentiation (the
gamma-gamma block involves l(y) = 1 + 2 y g(y) + y^2 dg(y)).

fit maximizes H over the model's bounds box from several uniform starts,
each by a projected BFGS ascent (Byrd, Lu, Nocedal and Zhu, SISC 1995,
without the limited memory that p <= 4 does not need) with an Armijo
backtracking line search (Nocedal and Wright, Numerical Optimization, 2006,
ch. 3 and 6).  Its bookkeeping is in Python floats: on vectors of 2 or 4
entries numpy's per-call overhead exceeds the arithmetic.  H is first
evaluated at SCREEN starts in one stacked call, and the ascents start from
the best of them.  They advance in lockstep, so one stacked evaluation per
round serves them all.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ModelViolationError, OptimizationError, UsageError
from .models import ModelSpec, Theta
from .samplers import RngStream
from .sde import ObservationSeries
from .stable_core import StableKernel

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "residuals",
    "quasi_loglik",
    "quasi_score",
    "quasi_hessian",
    "fit",
    "rate_exponent",
]


def rate_exponent(h: float, beta: float) -> float:
    """h^(1 - 1/beta); exactly 1.0 at beta = 1."""
    return float(np.exp((1.0 - 1.0 / beta) * np.log(h)))


class _Pass(NamedTuple):
    """One pass over the observations at a stack of points, kept to its
    admissible rows: c and eps of shape (G, n), da and dc of shapes
    (p_alpha, G, n) and (p_gamma, G, n); rows, the positions of those G rows
    in the stack (every row when faults is empty); faults, the violation
    message of each other row by position; and stack, the number of points,
    or None for a single point (G = 1)."""

    c: np.ndarray
    eps: np.ndarray
    da: np.ndarray
    dc: np.ndarray
    rows: np.ndarray | slice
    faults: dict
    stack: int | None


def _pass(obs: ObservationSeries, model: ModelSpec, theta: Theta, beta: float) -> _Pass:
    """Scale coefficients c_{j-1}, Euler residuals eps_j, j = 1..n, and the
    coefficient derivatives da_{j-1}, dc_{j-1} at theta, a point or a stack.

    A row where c is not positive and finite or eps is not finite is a
    model violation: it is left out of the arrays, so its residuals reach no
    kernel, and its message is kept in faults.  For a single point the
    violation raises ModelViolationError, which fit treats as an inadmissible
    point.  Every row is computed elementwise from its own point, so it has
    the same bits in any stack.

    The result is remembered on theta, keyed by the identity of obs and model
    and by beta, so a second function evaluated at the same point reuses it.
    """
    memo = theta._memo
    if memo is not None and memo[0] is obs and memo[1] is model and memo[2] == beta:
        return memo[3]
    if obs.n < 1:
        raise DomainError("need at least one increment")
    stack = None if theta.alpha.ndim == 1 else len(theta.alpha)
    # overflow in the model or the residual surfaces as a model violation,
    # not as a floating-point warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, c, da, dc = model.coefficients(
            obs.x[:-1], np.atleast_2d(theta.alpha), np.atleast_2d(theta.gamma)
        )
        eps = (obs.x[1:] - obs.x[:-1] - obs.h * a) / (obs.h ** (1.0 / beta) * c)
    admissible = ((c > 0.0) & np.isfinite(c) & np.isfinite(eps)).all(axis=-1)
    rows, faults = slice(None), {}
    if not admissible.all():
        for row in np.flatnonzero(~admissible).tolist():
            faults[row] = _violation(c[row], eps[row])
        if stack is None:
            raise ModelViolationError(faults[0])
        rows = np.flatnonzero(admissible)
        c, eps, da, dc = c[rows], eps[rows], da[:, rows], dc[:, rows]
    result = _Pass(c, eps, da, dc, rows, faults, stack)
    object.__setattr__(theta, "_memo", (obs, model, beta, result))
    return result


def _violation(c, eps) -> str:
    """The message of a point's first violation: a scale coefficient that
    is not positive and finite, else a residual that is not finite."""
    bad = ~((c > 0.0) & np.isfinite(c))
    if bad.any():
        j = int(np.argmax(bad))
        return f"scale coefficient non-positive at observation {j}: c={float(c[j])!r}"
    j = int(np.argmax(~np.isfinite(eps)))
    return f"residual non-finite at observation {j}: eps={float(eps[j])!r}"


def _rows(p: _Pass, values: np.ndarray, fill: float):
    """values of the admissible rows of a pass, as the result for its theta:
    row 0 for a single point, else one row per point of the stack, with
    fill in the rows of the violating points."""
    if p.stack is None:
        return values[0]
    if not p.faults:
        return values
    out = np.full((p.stack,) + values.shape[1:], fill)
    out[p.rows] = values
    return out


def residuals(obs: ObservationSeries, model: ModelSpec, theta: Theta, beta: float) -> np.ndarray:
    """Euler residuals eps_j(theta), j = 1..n; NaN rows at the violating
    points of a stack."""
    p = _pass(obs, model, theta, beta)
    return _rows(p, p.eps, math.nan)


def quasi_loglik(
    obs: ObservationSeries,
    model: ModelSpec,
    theta: Theta,
    beta: float,
    kernel: StableKernel,
):
    """H(theta): a float for a single point, finite where _pass raises no
    ModelViolationError, since phi > 0; for a stack of B points an array of
    B values, -inf at the points that violate the model."""
    _check_kernel(beta, kernel)
    p = _pass(obs, model, theta, beta)
    values = (kernel.log_density(p.eps) - np.log(p.c)).sum(axis=-1) - obs.n / beta * np.log(obs.h)
    return float(values[0]) if p.stack is None else _rows(p, values, -math.inf)


def _check_kernel(beta: float, kernel: StableKernel) -> None:
    if kernel.beta != beta:
        raise DomainError(
            f"kernel is for beta={kernel.beta}, but the likelihood uses beta={beta}"
        )


def quasi_score(
    obs: ObservationSeries,
    model: ModelSpec,
    theta: Theta,
    beta: float,
    kernel: StableKernel,
) -> np.ndarray:
    """Gradient of H(theta), length p_alpha + p_gamma; for a stack of B
    points shape (B, p_alpha + p_gamma), NaN at the violating points."""
    _check_kernel(beta, kernel)
    p = _pass(obs, model, theta, beta)
    hpow = rate_exponent(obs.h, beta)
    gv = kernel.g(p.eps)
    kv = 1.0 + p.eps * gv
    # per-row sums along the observations, so a row's bits do not depend on
    # the other rows of the stack
    grad_alpha = (-hpow * (p.da / p.c) * gv).sum(axis=-1)
    grad_gamma = (-(p.dc / p.c) * kv).sum(axis=-1)
    return _rows(p, np.concatenate([grad_alpha.T, grad_gamma.T], axis=1), math.nan)


def quasi_hessian(
    obs: ObservationSeries,
    model: ModelSpec,
    theta: Theta,
    beta: float,
    kernel: StableKernel,
) -> np.ndarray:
    """Symmetric Hessian of H(theta) from analytic second derivatives; for a
    stack of B points shape (B, p, p), NaN at the violating points."""
    _check_kernel(beta, kernel)
    p = _pass(obs, model, theta, beta)
    c, eps, da, dc = p.c, p.eps, p.da, p.dc
    xl = obs.x[:-1]
    dda = model.drift_ddalpha(xl, np.atleast_2d(theta.alpha)[p.rows])
    ddc = model.scale_ddgamma(xl, np.atleast_2d(theta.gamma)[p.rows])
    hpow = rate_exponent(obs.h, beta)

    gv = kernel.g(eps)
    kv = 1.0 + eps * gv
    dgv = kernel.dg(eps)

    p_a, p_g = model.p_alpha, model.p_gamma
    H = np.zeros((len(c), p_a + p_g, p_a + p_g))

    # alpha-alpha block
    H[:, :p_a, :p_a] = -hpow * np.einsum("abzj,zj->zab", dda, gv / c) + hpow**2 * np.einsum(
        "azj,bzj,zj->zab", da, da, dgv / c**2
    )
    # gamma-gamma block
    dcc = dc / c
    H[:, p_a:, p_a:] = -np.einsum("abzj,zj->zab", ddc, kv / c) + np.einsum(
        "azj,bzj,zj->zab", dcc, dcc, kv + eps * gv + eps**2 * dgv
    )
    # mixed block
    cross = hpow * np.einsum("azj,bzj,zj->zab", da / c, dcc, gv + eps * dgv)
    H[:, :p_a, p_a:] = cross
    H[:, p_a:, :p_a] = cross.transpose(0, 2, 1)
    return _rows(p, H, math.nan)


# A restart stops after ITER_LIMIT accepted steps, or where its normalized
# projected score norm is at most GTOL: far below the 1e-3 that bench/spec.py
# allows a converged fit.  Rounding noise can stall an ascent above it: of
# 3600 stable15-1d cells fitted from a single start, 4 stalled within 1.1e-8
# of the optimum at norms of 1.3e-6 to 4.8e-6 (replicate 1 of T=5, n=100 at
# base seeds 41247, 51026 and 51050, and of T=5, n=200 at 41025).  A second
# ascent converged there in each of them, and TIE_RTOL lets it win, which is
# why the presets ascend from two starts.
ITER_LIMIT = 200
GTOL = 1e-6
# The line search's sufficient-increase constant and its trial cap.
ARMIJO = 1e-4
TRIAL_LIMIT = 40
# Two restarts whose H values differ by less than this, relative to
# max(1, |H|), reached one optimum: rounding moves H by about 1e-15 relative
# at n = 100.
TIE_RTOL = 1e-10
# fit draws max(SCREEN, restarts) starts and evaluates H at all of them in
# one stacked call; the restarts ascend from the best of them.
SCREEN = 16


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings for the projected BFGS ascent on the analytic
    score: max(SCREEN, ``restarts``) starts drawn uniformly over
    init_windows (default: the bounds box), of which the ``restarts`` with
    the largest H are ascended."""

    restarts: int = 10
    init_windows: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise DomainError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class FitResult:
    """The winning restart of a fit.

    n_evals counts the points where H was evaluated: the screened starts
    and every point of the ascents.  restarts_used is the number of
    ascents.  score_norm is the winner's normalized projected score norm,
    which is at most GTOL where converged is true; restarts_agreeing counts
    the converged ascents whose H is within TIE_RTOL of the winner's.
    """

    theta_hat: Theta
    loglik: float
    n_evals: int
    converged: bool
    restarts_used: int
    score_norm: float
    restarts_agreeing: int


def _start_box(model: ModelSpec, windows) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) of the box multistart points are drawn from: each init
    window intersected with its bounds interval, or the bounds box itself.

    Raises UsageError unless there is one window per parameter and every
    intersection is a non-empty interval.
    """
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    if windows is None:
        return lo, hi
    if len(windows) != model.p:
        raise UsageError(
            f"init_windows needs one window per parameter ({model.p}), got {len(windows)}"
        )
    wlo = np.maximum(lo, [w[0] for w in windows])
    whi = np.minimum(hi, [w[1] for w in windows])
    empty = np.flatnonzero(~(wlo < whi))
    if empty.size:
        i = int(empty[0])
        raise UsageError(
            f"init window {tuple(windows[i])} of parameter {i + 1} leaves no "
            f"interval inside its bounds {model.bounds[i]}"
        )
    return wlo, whi


def _stationarity(x, score, bounds, dn) -> tuple[list[float], float]:
    """The projected score, whose coordinates that sit on their bound and
    point out of the box are 0, and its norm scaled by the rates dn."""
    projected = [
        0.0 if (xi <= lo and si < 0.0) or (xi >= hi and si > 0.0) else si
        for xi, si, (lo, hi) in zip(x, score, bounds)
    ]
    return projected, _norm([si / di for si, di in zip(projected, dn)])


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _norm(v) -> float:
    return math.sqrt(_dot(v, v))


def _search(x, value, projected, direction, bounds):
    """Armijo backtracking along the projected path x(t) = P(x + t d).

    A generator: it yields each trial point and receives (H, score) there.
    Starts at t = 1 and shrinks t by safeguarded quadratic interpolation,
    to [0.1 t, 0.5 t], for at most TRIAL_LIMIT trials; a trial whose
    clipped step does not ascend is halved without an evaluation.  Returns
    the accepted (point, H, score), or None when no trial increases H
    enough or the point no longer moves.
    """
    t = 1.0
    for _ in range(TRIAL_LIMIT):
        trial = [min(max(xi + t * di, lo), hi) for xi, di, (lo, hi) in zip(x, direction, bounds)]
        if trial == x:
            return None
        slope = _dot(projected, [ti - xi for ti, xi in zip(trial, x)])
        if not slope > 0.0:
            t *= 0.5
            continue
        trial_value, trial_score = yield trial
        if trial_value >= value + ARMIJO * slope:
            return trial, trial_value, trial_score
        # the quadratic through H(x), the slope at x and H(x(t)) peaks at
        # t_max; 0 where H(x(t)) = -inf
        t_max = 0.5 * slope * t / (value + slope - trial_value)
        t = min(max(t_max, 0.1 * t), 0.5 * t)
    return None


def _ascend(start, bounds, dn):
    """One restart: maximize H from start by projected BFGS.

    A generator: it yields each point it evaluates, start first, and
    receives (H, score) there, H = -inf where the model is violated.  The
    first step follows the projected score, capped at unit length; later
    steps use the BFGS approximation of the inverse of -Hessian, Shanno-Phua
    scaled at its first update, on the coordinates not held on a bound, and
    the capped projected score where that direction does not ascend.  A step
    whose curvature s'y is at most 1e-12 |s| |y| leaves the approximation as
    it is.  Returns (H, -normalized projected score norm, point, converged),
    or None when H is not finite at start.
    """
    x = start
    value, score = yield x
    if not math.isfinite(value):
        return None
    projected, norm = _stationarity(x, score, bounds, dn)
    inverse = None
    for _ in range(ITER_LIMIT):
        if not norm > GTOL:
            break
        direction = None
        if inverse is not None:
            # a coordinate held on its bound is the one whose projected
            # score differs from its score
            direction = [
                _dot(row, projected) if si == pi else 0.0
                for row, si, pi in zip(inverse, score, projected)
            ]
        if direction is None or not _dot(direction, projected) > 0.0:
            scale = 1.0 / max(1.0, _norm(projected))
            direction = [pi * scale for pi in projected]
        accepted = yield from _search(x, value, projected, direction, bounds)
        if accepted is None:
            break
        new_x, value, new_score = accepted
        step = [b - a for a, b in zip(x, new_x)]
        change = [a - b for a, b in zip(score, new_score)]
        x, score = new_x, new_score
        projected, norm = _stationarity(x, score, bounds, dn)
        curvature = _dot(step, change)
        if not curvature > 1e-12 * _norm(step) * _norm(change):
            continue
        if inverse is None:
            scale = curvature / _dot(change, change)
            inverse = [[scale if i == j else 0.0 for j in range(len(x))] for i in range(len(x))]
        # H+ = H - rho (s (Hy)' + (Hy) s') + (rho^2 y'Hy + rho) s s'
        rho = 1.0 / curvature
        hy = [_dot(row, change) for row in inverse]
        outer = rho * rho * _dot(change, hy) + rho
        inverse = [
            [
                hij - rho * (si * hyj + hyi * sj) + outer * si * sj
                for hij, hyj, sj in zip(row, hy, step)
            ]
            for row, si, hyi in zip(inverse, step, hy)
        ]
    return value, -norm, x, norm <= GTOL


def _lockstep(obs, model, beta, kernel, starts, dn):
    """Run one _ascend per start in rounds, each of which evaluates the
    pending point of every restart still running as one stack.

    Returns each restart's outcome (None where H was not finite at its
    start), the number of points evaluated, and the violation messages of
    the inadmissible points, in round and stack order.
    """
    restarts = [_ascend(start, model.bounds, dn) for start in starts]
    pending = {i: next(restart) for i, restart in enumerate(restarts)}
    outcomes = [None] * len(restarts)
    violations: list[str] = []
    n_evals = 0
    while pending:
        stack = Theta.from_full(list(pending.values()), model.p_alpha)
        values = quasi_loglik(obs, model, stack, beta, kernel)
        scores = quasi_score(obs, model, stack, beta, kernel)
        violations += _pass(obs, model, stack, beta).faults.values()
        n_evals += len(pending)
        for i, value, score in zip(list(pending), values.tolist(), scores.tolist()):
            try:
                pending[i] = restarts[i].send((value, score))
            except StopIteration as stop:
                del pending[i]
                outcomes[i] = stop.value
    return outcomes, n_evals, violations


def fit(
    obs: ObservationSeries,
    model: ModelSpec,
    beta: float,
    kernel: StableKernel,
    opt: OptimizerConfig | None = None,
    rng: RngStream | None = None,
) -> FitResult:
    """Maximize H over the bounds box by projected BFGS with uniform
    multistart.

    The screen draws max(SCREEN, opt.restarts) starts, the first
    opt.restarts of which do not depend on SCREEN, and evaluates H at all of
    them in one quasi_loglik call.  The opt.restarts starts of largest H,
    ties to the earlier draw, are ascended; a start where the model is
    violated has H = -inf and comes last.  They are ascended in draw order.

    The restarts (_ascend) run in lockstep: each round stacks the next point
    of every restart still running and evaluates quasi_loglik and
    quasi_score there, in one call each and one pass over the observations;
    a restart leaves the stack when it finishes.  A row of the stack has the
    bits its point has alone, so each restart ends where it would alone.  A
    point where the model is violated counts as H = -inf.  n_evals counts
    the points evaluated, the screened starts included.  A restart has
    converged when its normalized projected score norm, the score scaled by
    the Studentization rates sqrt(n) h^(1-1/beta) (alpha) and sqrt(n)
    (gamma), is at most GTOL.

    The winner is the restart with the largest H value; exact ties are broken
    by the smaller normalized score norm so the result is deterministic.  An
    unconverged winner gives way to a converged restart whose H is within
    TIE_RTOL of it: a line search can fail on rounding noise at an optimum
    another restart converged to.
    """
    opt = opt or OptimizerConfig()
    rng = rng or RngStream(0, 0)
    _check_kernel(beta, kernel)

    wlo, whi = _start_box(model, opt.init_windows)
    gen = rng.generator(purpose=7)
    draws = gen.uniform(wlo, whi, size=(max(SCREEN, opt.restarts), model.p))
    screen = Theta.from_full(draws, model.p_alpha)
    values = quasi_loglik(obs, model, screen, beta, kernel).tolist()
    ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
    starts = [draws[i].tolist() for i in sorted(ranked[: opt.restarts])]
    root_n = math.sqrt(obs.n)
    dn = [root_n * rate_exponent(obs.h, beta)] * model.p_alpha + [root_n] * model.p_gamma

    outcomes, n_evals, violations = _lockstep(obs, model, beta, kernel, starts, dn)
    n_evals += len(values)
    candidates = [outcome for outcome in outcomes if outcome is not None]
    if not candidates:
        detail = f"model violation: {violations[-1]}" if violations else "no detail"
        raise OptimizationError(f"all {len(draws)} starts failed ({detail})")
    best = max(candidates, key=lambda cand: cand[:2])
    tied = [
        cand for cand in candidates
        if cand[3] and best[0] - cand[0] <= TIE_RTOL * max(1.0, abs(best[0]))
    ]
    if not best[3] and tied:
        best = max(tied, key=lambda cand: cand[:2])
    value, neg_norm, x, converged = best
    agreeing = sum(
        1 for cand in candidates
        if cand[3] and abs(value - cand[0]) <= TIE_RTOL * max(1.0, abs(value))
    )
    return FitResult(
        theta_hat=Theta.from_full(x, model.p_alpha),
        loglik=value,
        n_evals=n_evals,
        converged=converged,
        restarts_used=len(starts),
        score_norm=-neg_norm,
        restarts_agreeing=agreeing,
    )
