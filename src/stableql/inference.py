"""Studentization and confidence intervals for the stable quasi-MLE.

Under high-frequency asymptotics the estimator satisfies a mixed-normal
limit theorem with block-diagonal information, and the Studentized pivots

    z_alpha = (C_alpha Sig_alpha)^(1/2) sqrt(n) h^(1-1/beta) (alpha_hat - alpha0)
    z_gamma = (C_gamma Sig_gamma)^(1/2) sqrt(n) (gamma_hat - gamma0)

are asymptotically standard normal, where

    Sig_alpha = (1/n) sum_j (da_{j-1} da_{j-1}^T) / c_{j-1}^2
    Sig_gamma = (1/n) sum_j (dc_{j-1} dc_{j-1}^T) / c_{j-1}^2

are the empirical information matrices evaluated at the estimate, and
C_alpha, C_gamma are the scalar kernel information constants.  One
``studentize(obs, model, theta_hat, theta_ref, kernel)`` call computes all of
these once, taking beta and the constants from the kernel, and
``confidence_intervals(report, level)`` inverts the pivots of that report
coordinatewise without computing them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NumericError
from .models import ModelSpec, Theta
from .sde import ObservationSeries
from .sqlik import rate_exponent
from .stable_core import StableKernel

__all__ = [
    "StudentizedReport",
    "empirical_information",
    "studentize",
    "confidence_intervals",
    "psd_sqrt",
]


def psd_sqrt(mat: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below ``floor`` times the largest are clipped up to keep the
    root well defined for nearly singular information matrices.
    """
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    if vals[-1] <= 0.0:
        raise NumericError("information matrix is not positive semidefinite")
    vals = np.clip(vals, floor * vals[-1], None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def empirical_information(
    obs: ObservationSeries, model: ModelSpec, theta: Theta
) -> tuple[np.ndarray, np.ndarray]:
    """(Sig_alpha, Sig_gamma) evaluated at theta, each averaged over n steps."""
    xl = obs.x[:-1]
    c = model.scale(xl, theta.gamma)
    da = model.drift_dalpha(xl, theta.alpha) / c
    dc = model.scale_dgamma(xl, theta.gamma) / c
    sig_a = da @ da.T / obs.n
    sig_g = dc @ dc.T / obs.n
    return sig_a, sig_g


@dataclass(frozen=True)
class StudentizedReport:
    """Pivots of theta_hat and the scaling matrices that produced them."""

    theta_hat: Theta
    z_alpha: np.ndarray
    z_gamma: np.ndarray
    sig_alpha: np.ndarray
    sig_gamma: np.ndarray
    scale_alpha: np.ndarray
    scale_gamma: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return np.concatenate([self.z_alpha, self.z_gamma])


def studentize(
    obs: ObservationSeries,
    model: ModelSpec,
    theta_hat: Theta,
    theta_ref: Theta,
    kernel: StableKernel,
) -> StudentizedReport:
    """Studentized pivots of theta_hat around a reference value.

    beta is the kernel's, and C_alpha, C_gamma are its (cached) information
    constants.  With theta_ref equal to the data-generating parameter the
    pivots are asymptotically N(0, I).  Information matrices are evaluated at
    theta_hat, which is all that is available in practice.
    """
    constants = kernel.info_constants()
    sig_a, sig_g = empirical_information(obs, model, theta_hat)
    root_a = np.sqrt(constants.c_alpha) * psd_sqrt(sig_a)
    root_g = np.sqrt(constants.c_gamma) * psd_sqrt(sig_g)
    rate_a = np.sqrt(obs.n) * rate_exponent(obs.h, kernel.beta)
    rate_g = np.sqrt(obs.n)
    z_a = rate_a * root_a @ (theta_hat.alpha - theta_ref.alpha)
    z_g = rate_g * root_g @ (theta_hat.gamma - theta_ref.gamma)
    return StudentizedReport(
        theta_hat=theta_hat,
        z_alpha=z_a,
        z_gamma=z_g,
        sig_alpha=sig_a,
        sig_gamma=sig_g,
        scale_alpha=rate_a * root_a,
        scale_gamma=rate_g * root_g,
    )


def confidence_intervals(report: StudentizedReport, level: float = 0.95) -> np.ndarray:
    """Coordinatewise (lower, upper) bounds around report.theta_hat, shape (p, 2).

    Each half-width is q * sqrt(diag(M^-2)) where M is the report's pivot
    scaling matrix of the block and q the standard normal quantile; this
    inverts the marginal of the joint pivot rather than treating coordinates
    as independent.
    """
    if not 0.0 < level < 1.0:
        raise NumericError(f"confidence level must be in (0,1), got {level}")
    q = NormalDist().inv_cdf(0.5 + level / 2.0)
    center = report.theta_hat.full
    sds = []
    for scale in (report.scale_alpha, report.scale_gamma):
        inv = np.linalg.inv(scale)
        sds.append(np.sqrt(np.diag(inv @ inv.T)))
    sd = np.concatenate(sds)
    return np.column_stack([center - q * sd, center + q * sd])
