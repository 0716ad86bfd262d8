"""Stable quasi-likelihood: objective, analytic derivatives, and maximizer.

The objective for observations (X_j) with step h is

    H(theta) = sum_j [ log phi(eps_j(theta)) - log c_{j-1}(gamma) - (1/beta) log h ]

with Euler residuals

    eps_j(theta) = (X_j - X_{j-1} - h a_{j-1}(alpha)) / (h^(1/beta) c_{j-1}(gamma)).

Each evaluation computes the coefficients and residuals once and takes
log phi, g, k and dg from a StableKernel of the same beta; at beta = 1 that
kernel is the closed-form Cauchy one, built on demand when none is given.
Analytic gradient and Hessian:

    dH/dalpha = -h^(1-1/beta) sum_j (da_{j-1}/c_{j-1}) g(eps_j)
    dH/dgamma = -sum_j (dc_{j-1}/c_{j-1}) k(eps_j)

with second derivatives obtained by one more differentiation (the
gamma-gamma block involves l(y) = 1 + 2 y g(y) + y^2 dg(y)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, ModelViolationError, OptimizationError
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


def _scale_and_residuals(
    obs: ObservationSeries, model: ModelSpec, theta: Theta, beta: float
):
    """Scale coefficients c_{j-1} and Euler residuals eps_j, j = 1..n."""
    if obs.n < 1:
        raise DomainError("need at least one increment")
    xl = obs.x[:-1]
    a = model.drift(xl, theta.alpha)
    c = model.scale(xl, theta.gamma)
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        bad = int(np.argmax(~((c > 0.0) & np.isfinite(c))))
        raise ModelViolationError(
            f"scale coefficient non-positive at observation {bad}: c={float(c[bad])!r}"
        )
    eps = (np.diff(obs.x) - obs.h * a) / (obs.h ** (1.0 / beta) * c)
    return c, eps


def residuals(obs: ObservationSeries, model: ModelSpec, theta: Theta, beta: float) -> np.ndarray:
    """Euler residuals eps_j(theta), j = 1..n."""
    return _scale_and_residuals(obs, model, theta, beta)[1]


def quasi_loglik(
    obs: ObservationSeries,
    model: ModelSpec,
    theta: Theta,
    beta: float,
    kernel: StableKernel | None = None,
) -> float:
    """H(theta); finite for any admissible theta since phi > 0 everywhere."""
    kernel = _kernel_scores(beta, kernel)
    c, eps = _scale_and_residuals(obs, model, theta, beta)
    return float(
        np.sum(kernel.log_density(eps) - np.log(c)) - obs.n / beta * np.log(obs.h)
    )


def _kernel_scores(beta: float, kernel: StableKernel | None) -> StableKernel:
    """The kernel every likelihood function evaluates: the given one, whose
    beta must equal the fit's, or the Cauchy kernel when beta = 1."""
    if beta == 1.0 and kernel is None:
        kernel = StableKernel(1.0)
    if kernel is None:
        raise DomainError("beta != 1 requires a StableKernel")
    if kernel.beta != beta:
        raise DomainError(
            f"kernel is for beta={kernel.beta}, but the likelihood uses beta={beta}"
        )
    return kernel


def quasi_score(
    obs: ObservationSeries,
    model: ModelSpec,
    theta: Theta,
    beta: float,
    kernel: StableKernel | None = None,
) -> np.ndarray:
    """Gradient of H(theta), length p_alpha + p_gamma."""
    kernel = _kernel_scores(beta, kernel)
    c, eps = _scale_and_residuals(obs, model, theta, beta)
    xl = obs.x[:-1]
    da = model.drift_dalpha(xl, theta.alpha)
    dc = model.scale_dgamma(xl, theta.gamma)
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
    kernel: StableKernel | None = None,
) -> np.ndarray:
    """Symmetric Hessian of H(theta) from analytic second derivatives."""
    kernel = _kernel_scores(beta, kernel)
    c, eps = _scale_and_residuals(obs, model, theta, beta)
    xl = obs.x[:-1]
    da = model.drift_dalpha(xl, theta.alpha)
    dda = model.drift_ddalpha(xl, theta.alpha)
    dc = model.scale_dgamma(xl, theta.gamma)
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


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart settings for L-BFGS-B on the analytic score: ``restarts``
    initial points drawn uniformly over init_windows (default: the bounds
    box)."""

    restarts: int = 10
    init_windows: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class FitResult:
    theta_hat: Theta
    loglik: float
    n_evals: int
    converged: bool
    restarts_used: int
    score_norm: float


def fit(
    obs: ObservationSeries,
    model: ModelSpec,
    beta: float,
    kernel: StableKernel | None = None,
    opt: OptimizerConfig | None = None,
    rng: RngStream | None = None,
) -> FitResult:
    """Maximize H over the bounds box by L-BFGS-B with uniform multistart.

    The winner is the restart with the largest H value; exact ties are broken
    by the smaller normalized score norm so the result is deterministic.
    """
    opt = opt or OptimizerConfig()
    rng = rng or RngStream(0, 0)
    kernel = _kernel_scores(beta, kernel)

    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    windows = opt.init_windows
    if windows is None:
        wlo, whi = lo, hi
    else:
        wlo = np.maximum(lo, [w[0] for w in windows])
        whi = np.minimum(hi, [w[1] for w in windows])
    gen = rng.generator(purpose=7)
    inits = gen.uniform(wlo, whi, size=(max(1, opt.restarts), model.p))
    dn = np.concatenate(
        [
            np.full(model.p_alpha, np.sqrt(obs.n) * rate_exponent(obs.h, beta)),
            np.full(model.p_gamma, np.sqrt(obs.n)),
        ]
    )

    violations: list[str] = []

    def objective(vec):
        theta = Theta.from_full(vec, model.p_alpha)
        try:
            return (
                -quasi_loglik(obs, model, theta, beta, kernel),
                -quasi_score(obs, model, theta, beta, kernel),
            )
        except ModelViolationError as exc:
            violations.append(str(exc))
            return np.inf, np.zeros(model.p)

    best = None
    n_evals = 0
    failures = []
    for start in inits:
        res = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": ITER_LIMIT},
        )
        n_evals += int(res.nfev)
        if not np.isfinite(res.fun):
            failures.append(res.message)
            continue
        snorm = float(np.linalg.norm(res.jac / dn))
        cand = (-float(res.fun), -snorm, res.x, bool(res.success))
        if best is None or cand[:2] > best[:2]:
            best = cand
    if best is None:
        detail = failures[-1] if failures else "no detail"
        if violations:
            detail = f"model violation: {violations[-1]}"
        raise OptimizationError(f"all {len(inits)} restarts failed ({detail})")
    value, neg_snorm, vec, success = best
    return FitResult(
        theta_hat=Theta.from_full(vec, model.p_alpha),
        loglik=value,
        n_evals=n_evals,
        converged=success,
        restarts_used=len(inits),
        score_norm=-neg_snorm,
    )
