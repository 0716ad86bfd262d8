"""Stable quasi-likelihood: objective, analytic derivatives, and maximizer.

The objective for observations (X_j) with step h is

    H(theta) = sum_j [ log phi(eps_j(theta)) - log c_{j-1}(gamma) - (1/beta) log h ]

with Euler residuals

    eps_j(theta) = (X_j - X_{j-1} - h a_{j-1}(alpha)) / (h^(1/beta) c_{j-1}(gamma)).

Each point gets one pass over the observations: one ModelSpec.coefficients
call gives a, c and their first derivatives, from which the residuals
follow.  The pass is remembered on the Theta, so quasi_loglik and
quasi_score at the same Theta, as in the fit's objective, share it.  log phi,
g, k and dg come from the StableKernel passed in, whose beta must be the
likelihood's; at beta = 1 it is the closed-form Cauchy one.
Analytic gradient and Hessian:

    dH/dalpha = -h^(1-1/beta) sum_j (da_{j-1}/c_{j-1}) g(eps_j)
    dH/dgamma = -sum_j (dc_{j-1}/c_{j-1}) k(eps_j)

with second derivatives obtained by one more differentiation (the
gamma-gamma block involves l(y) = 1 + 2 y g(y) + y^2 dg(y)).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _pass(obs: ObservationSeries, model: ModelSpec, theta: Theta, beta: float):
    """Scale coefficients c_{j-1}, Euler residuals eps_j, j = 1..n, and the
    coefficient derivatives da_{j-1}, dc_{j-1} at theta.

    Raises ModelViolationError, which fit treats as an inadmissible point,
    where c is not positive and finite or eps is not finite.

    The result is remembered on theta, keyed by the identity of obs and model
    and by beta, so a second function evaluated at the same point reuses it.
    """
    memo = theta._memo
    if memo is not None and memo[0] is obs and memo[1] is model and memo[2] == beta:
        return memo[3]
    if obs.n < 1:
        raise DomainError("need at least one increment")
    # overflow in the model or the residual surfaces as the
    # ModelViolationError below, not as a floating-point warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, c, da, dc = model.coefficients(obs.x[:-1], theta.alpha, theta.gamma)
        eps = (np.diff(obs.x) - obs.h * a) / (obs.h ** (1.0 / beta) * c)
    _require((c > 0.0) & np.isfinite(c), "scale coefficient non-positive", "c", c)
    _require(np.isfinite(eps), "residual non-finite", "eps", eps)
    result = (c, eps, da, dc)
    object.__setattr__(theta, "_memo", (obs, model, beta, result))
    return result


def _require(ok, violation: str, name: str, values) -> None:
    if not np.all(ok):
        bad = int(np.argmax(~ok))
        raise ModelViolationError(
            f"{violation} at observation {bad}: {name}={float(values[bad])!r}"
        )


def residuals(obs: ObservationSeries, model: ModelSpec, theta: Theta, beta: float) -> np.ndarray:
    """Euler residuals eps_j(theta), j = 1..n."""
    return _pass(obs, model, theta, beta)[1]


def quasi_loglik(
    obs: ObservationSeries,
    model: ModelSpec,
    theta: Theta,
    beta: float,
    kernel: StableKernel,
) -> float:
    """H(theta); finite where _pass raises no ModelViolationError, since phi > 0."""
    _check_kernel(beta, kernel)
    c, eps, _, _ = _pass(obs, model, theta, beta)
    return float(
        np.sum(kernel.log_density(eps) - np.log(c)) - obs.n / beta * np.log(obs.h)
    )


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
    """Gradient of H(theta), length p_alpha + p_gamma."""
    _check_kernel(beta, kernel)
    c, eps, da, dc = _pass(obs, model, theta, beta)
    hpow = rate_exponent(obs.h, beta)
    gv = kernel.g(eps)
    kv = 1.0 + eps * gv
    grad_alpha = -hpow * (da / c) @ gv
    grad_gamma = -(dc / c) @ kv
    return np.concatenate([grad_alpha, grad_gamma])


def quasi_hessian(
    obs: ObservationSeries,
    model: ModelSpec,
    theta: Theta,
    beta: float,
    kernel: StableKernel,
) -> np.ndarray:
    """Symmetric Hessian of H(theta) from analytic second derivatives."""
    _check_kernel(beta, kernel)
    c, eps, da, dc = _pass(obs, model, theta, beta)
    xl = obs.x[:-1]
    dda = model.drift_ddalpha(xl, theta.alpha)
    ddc = model.scale_ddgamma(xl, theta.gamma)
    hpow = rate_exponent(obs.h, beta)

    gv = kernel.g(eps)
    kv = 1.0 + eps * gv
    dgv = kernel.dg(eps)

    p_a, p_g = model.p_alpha, model.p_gamma
    H = np.zeros((p_a + p_g, p_a + p_g))

    # alpha-alpha block
    H[:p_a, :p_a] = -hpow * np.einsum("abj,j->ab", dda, gv / c) + hpow**2 * np.einsum(
        "aj,bj,j->ab", da, da, dgv / c**2
    )
    # gamma-gamma block
    dcc = dc / c
    H[p_a:, p_a:] = -np.einsum("abj,j->ab", ddc, kv / c) + np.einsum(
        "aj,bj,j->ab", dcc, dcc, kv + eps * gv + eps**2 * dgv
    )
    # mixed block
    cross = hpow * np.einsum("aj,bj,j->ab", da / c, dcc, gv + eps * dgv)
    H[:p_a, p_a:] = cross
    H[p_a:, :p_a] = cross.T
    return H


# L-BFGS-B iteration cap per restart
ITER_LIMIT = 2000
# Two restarts whose H values differ by less than this, relative to
# max(1, |H|), reached one optimum: rounding moves H by about 1e-15 relative
# at n = 100.
TIE_RTOL = 1e-10


def _minimize():
    """scipy.optimize.minimize, imported at first use: the fitter is the only
    user of scipy, whose import costs about half a second."""
    from scipy.optimize import minimize

    return minimize


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings for L-BFGS-B on the analytic score: ``restarts``
    initial points drawn uniformly over init_windows (default: the bounds
    box)."""

    restarts: int = 10
    init_windows: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise DomainError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class FitResult:
    theta_hat: Theta
    loglik: float
    n_evals: int
    converged: bool
    restarts_used: int
    score_norm: float


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


def fit(
    obs: ObservationSeries,
    model: ModelSpec,
    beta: float,
    kernel: StableKernel,
    opt: OptimizerConfig | None = None,
    rng: RngStream | None = None,
) -> FitResult:
    """Maximize H over the bounds box by L-BFGS-B with uniform multistart.

    The winner is the restart with the largest H value; exact ties are broken
    by the smaller normalized score norm so the result is deterministic.  A
    winner whose L-BFGS-B run stopped abnormally gives way to a converged
    restart whose H is within TIE_RTOL of it: the line search can fail on
    rounding noise at an optimum another restart converged to.
    """
    opt = opt or OptimizerConfig()
    rng = rng or RngStream(0, 0)
    _check_kernel(beta, kernel)

    wlo, whi = _start_box(model, opt.init_windows)
    gen = rng.generator(purpose=7)
    inits = gen.uniform(wlo, whi, size=(opt.restarts, model.p))
    dn = np.concatenate(
        [
            np.full(model.p_alpha, np.sqrt(obs.n) * rate_exponent(obs.h, beta)),
            np.full(model.p_gamma, np.sqrt(obs.n)),
        ]
    )

    violations: list[str] = []

    def objective(vec):
        # one Theta per evaluation: quasi_score reuses the pass quasi_loglik made
        theta = Theta.from_full(vec, model.p_alpha)
        try:
            return (
                -quasi_loglik(obs, model, theta, beta, kernel),
                -quasi_score(obs, model, theta, beta, kernel),
            )
        except ModelViolationError as exc:
            violations.append(str(exc))
            return np.inf, np.zeros(model.p)

    minimize = _minimize()
    candidates = []
    n_evals = 0
    failures = []
    for start in inits:
        res = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=model.bounds,
            options={"maxiter": ITER_LIMIT},
        )
        n_evals += int(res.nfev)
        if not np.isfinite(res.fun):
            failures.append(res.message)
            continue
        snorm = float(np.linalg.norm(res.jac / dn))
        candidates.append((-float(res.fun), -snorm, res.x, bool(res.success)))
    if not candidates:
        detail = failures[-1] if failures else "no detail"
        if violations:
            detail = f"model violation: {violations[-1]}"
        raise OptimizationError(f"all {len(inits)} restarts failed ({detail})")
    best = max(candidates, key=lambda cand: cand[:2])
    tied = [
        cand for cand in candidates
        if cand[3] and best[0] - cand[0] <= TIE_RTOL * max(1.0, abs(best[0]))
    ]
    if not best[3] and tied:
        best = max(tied, key=lambda cand: cand[:2])
    value, neg_snorm, vec, success = best
    return FitResult(
        theta_hat=Theta.from_full(vec, model.p_alpha),
        loglik=value,
        n_evals=n_evals,
        converged=success,
        restarts_used=len(inits),
        score_norm=-neg_snorm,
    )
