"""Driving Levy processes: one type, ``NoiseSpec``, that samples increments
and gives the characteristic exponent of the rescaled increment.

One table, ``_PARAMETERS``, lists the parameters of each kind; a missing,
out-of-range or stray parameter is a DomainError naming it.  Only the stable
kind (exact polar/CMS transform) and the nig kind (Gaussian variance mixture,
inverse-Gaussian subordinator by Michael-Schucany-Haas) can be sampled.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_id, purpose): identical keys reproduce identical sequences
bit-for-bit and distinct keys give statistically independent streams, so
Monte Carlo replicates can run in parallel without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError
from .stable_core import stable_tail_coefficient

__all__ = ["RngStream", "NoiseSpec"]


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def generator(self, purpose: int = 0) -> np.random.Generator:
        seq = np.random.SeedSequence((self.seed, self.stream_id, purpose))
        return np.random.Generator(np.random.Philox(seed=seq))

    def substream(self, purpose: int) -> "RngStream":
        """Derived stream for a distinct purpose within the same replicate."""
        return RngStream(self.seed, self.stream_id * 1009 + purpose + 1)


_POSITIVE = (None, lambda value: value > 0.0, "> 0")
_INDEX = (None, lambda beta: 0.0 < beta < 2.0, "in (0, 2)")
_TEMPERED_INDEX = (None, lambda beta: 1.0 <= beta < 2.0, "in [1, 2) for the closed forms")
# nig and gh_nig are locally Cauchy: beta defaults to 1 and takes no other value.
_CAUCHY = (1.0, lambda beta: beta == 1.0, "= 1 (locally Cauchy)")

# kind -> {parameter: (default, test, requirement)}; a None default marks a
# required parameter, and a parameter the kind does not list must be absent.
_PARAMETERS = {
    "stable": {"beta": _INDEX},
    "nig": {"beta": _CAUCHY, "eta": _POSITIVE},
    "tempered_stable": {"beta": _TEMPERED_INDEX, "lambda_tempering": _POSITIVE},
    "gh_nig": {"beta": _CAUCHY, "gh_lambda": (None, math.isfinite, "finite"), "gh_eta": _POSITIVE},
}


@dataclass(frozen=True)
class NoiseSpec:
    """One driving Levy process J, by kind:

    stable           beta: standard symmetric beta-stable, log cf -t|u|^beta
    nig              eta: symmetric NIG(eta, 0, t, 0) at time t, variance t/eta
    tempered_stable  beta, lambda_tempering: exponentially tempered beta-stable
    gh_nig           gh_lambda, gh_eta: symmetric GH(gh_lambda, gh_eta, 1) at
                     time 1; nig is its gh_lambda = -1/2 member

    The exponent of nig and gh_nig needs eta (gh_eta) >= 0.01, the smallest
    argument of its Bessel function; sampling nig takes any eta > 0.
    """

    kind: str
    beta: float | None = None
    eta: float | None = None
    lambda_tempering: float | None = None
    gh_lambda: float | None = None
    gh_eta: float | None = None

    def __post_init__(self):
        table = _PARAMETERS.get(self.kind)
        if table is None:
            raise DomainError(f"unknown driver kind {self.kind!r}; kinds: {sorted(_PARAMETERS)}")
        for name in ("beta", "eta", "lambda_tempering", "gh_lambda", "gh_eta"):
            value = getattr(self, name)
            if name not in table:
                if value is not None:
                    raise DomainError(f"{self.kind} driver takes no {name!r}, got {value}")
                continue
            default, test, requirement = table[name]
            if value is None and default is not None:
                object.__setattr__(self, name, default)
            elif value is None or not test(value):
                raise DomainError(f"{self.kind} driver needs {name!r} {requirement}, got {value}")

    def require_sampler(self) -> None:
        """Raise DomainError unless increments of this kind can be drawn."""
        if self.kind not in ("stable", "nig"):
            raise DomainError(f"{self.kind} driver has no sampler; only stable and nig sample")

    def sample(self, dt: float, count: int, rng: RngStream) -> np.ndarray:
        """count increments over steps of length dt.

        A stable draw is dt^(1/beta) times a standard S_beta variate (strict
        self-similarity) by the Chambers-Mallows-Stuck transform, which at
        beta = 1 is sin(V) / cos(V); a nig draw is Gaussian with
        inverse-Gaussian mixing variance IG(dt/eta, dt^2).
        """
        self.require_sampler()
        if dt <= 0 or not np.isfinite(dt):
            raise DomainError(f"dt must be positive, got {dt}")
        if count < 0:
            raise DomainError(f"count must be nonnegative, got {count}")
        gen = rng.generator()
        if self.kind == "nig":
            mixing = _inverse_gaussian(dt / self.eta, dt**2, count, gen)
            return np.sqrt(mixing) * gen.standard_normal(size=count)
        beta = self.beta
        v = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=count)
        w = gen.standard_exponential(size=count)
        x = (
            np.sin(beta * v)
            / np.cos(v) ** (1.0 / beta)
            * (np.cos((1.0 - beta) * v) / w) ** ((1.0 - beta) / beta)
        )
        return dt ** (1.0 / beta) * x

    def exponent(self, u, h: float) -> np.ndarray:
        """psi_h(u) = h psi_1(h^(-1/beta) u), the log characteristic function of
        h^(-1/beta) J_h at u > 0 (psi_1 at unit time); real and nonpositive."""
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
                * math.gamma(-b)
                * (
                    (lam**2 * hp**2 + u**2) ** (b / 2.0)
                    * np.cos(b * np.arctan(u / (lam * hp)))
                    - lam**b * h
                )
            )
        return h * _gh_unit_exponent(u / h, *self._gh)

    @cached_property
    def _gh(self) -> tuple[float, float, float]:
        """(lambda, eta, log K_lambda(eta)) of a nig or gh_nig driver; nig is
        the lambda = -1/2 member."""
        name = "eta" if self.kind == "nig" else "gh_eta"
        lam, eta = (-0.5, self.eta) if self.kind == "nig" else (self.gh_lambda, self.gh_eta)
        if eta < _KVE_MIN_X:
            raise DomainError(
                f"{self.kind} characteristic exponent needs {name!r} >= {_KVE_MIN_X:g}, got {eta}"
            )
        return lam, eta, float(_log_kve(lam, eta)) - eta


def _gh_unit_exponent(v: np.ndarray, lam: float, eta: float, log_k_eta: float) -> np.ndarray:
    """log of the GH(lam, eta, 1) characteristic function at v, given
    log_k_eta = log K_lam(eta)."""
    s = np.sqrt(eta**2 + v**2)
    # log K_lam(s) = _log_kve(lam, s) - s: the exponentially scaled Bessel
    # function stays finite for large arguments
    log_k_s = _log_kve(lam, s) - s
    return 0.5 * lam * (2.0 * math.log(eta) - np.log(eta**2 + v**2)) + log_k_s - log_k_eta


def _inverse_gaussian(mean: float, shape: float, count: int, gen: np.random.Generator) -> np.ndarray:
    """Inverse-Gaussian draws IG(mean, shape), all strictly positive."""
    y = gen.standard_normal(size=count) ** 2
    u = gen.uniform(size=count)
    x = mean + mean**2 * y / (2.0 * shape) - mean / (2.0 * shape) * np.sqrt(
        4.0 * mean * shape * y + mean**2 * y**2
    )
    accept = u <= mean / (mean + x)
    return np.where(accept, x, mean**2 / x)


# Trapezoidal rule for e^x K_nu(x); see _log_kve.
_KVE_SPAN = 6.5
_KVE_MAX_STEP = 0.5
# Smallest argument of _log_kve, and so the smallest eta of a nig or gh_nig
# exponent: the rule's node count grows as x^(-1/2), to 512 at this x.
_KVE_MIN_X = 1e-2


@lru_cache(maxsize=16)
def _kve_rule(span: float, intervals: int):
    """Nodes u and weights w of the trapezoidal rule on [0, span] for
    int_0^inf e^(-u^2) f(u) du with f even: w holds the e^(-u^2) factor."""
    u = np.linspace(0.0, span, intervals + 1)
    w = np.full(u.size, span / intervals) * np.exp(-u * u)
    w[0] /= 2.0
    return u, w


def _log_kve(nu: float, x) -> np.ndarray:
    """log(e^x K_nu(x)), the log of the exponentially scaled modified Bessel
    function of the second kind, at x >= _KVE_MIN_X.

    Substituting x cosh t = x + u^2 in K_nu(x) = int_0^inf e^(-x cosh t)
    cosh(nu t) dt (Abramowitz & Stegun 9.6.24) gives, with r = sqrt(2x)
    and z = u / r,

        e^x K_nu(x) = (2 / r) int_0^inf e^(-u^2) cosh(2 nu asinh z) / sqrt(1 + z^2) du,

    whose integrand is even in u and analytic in the strip |Im u| < r.  The
    trapezoidal rule converges exponentially there (Trefethen & Weideman,
    SIAM Review 2014): a step of at most min(0.5, 2 pi r / 45) leaves an
    error near e^(-45).  One rule serves the whole call, its step bounded by
    the smallest r and rounded down to split [0, span] into a power-of-two
    count of intervals, so that few rules are ever cached.  span = 6.5 ends
    the Gaussian factor below 1e-18; for |nu| > 4 the integrand peaks near
    u = sqrt(|nu|), so the span grows with it and the largest step shrinks in
    proportion.  The log is accurate to 1e-13 for |nu| <= 50 and x in
    [_KVE_MIN_X, 1e7].
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(2.0 * x.reshape(-1))
    span = max(_KVE_SPAN, _KVE_SPAN - 2.0 + math.sqrt(abs(nu)))
    step = min(_KVE_MAX_STEP * _KVE_SPAN / span, 2.0 * math.pi * float(r.min()) / 45.0)
    u, w = _kve_rule(span, 2 ** math.ceil(math.log2(span / step)))
    # the integrand without e^(-u^2), in place, from z = u / r at u > 0
    # (it is 1 at u = 0), with asinh z = log(z + sqrt(1 + z^2))
    z = np.multiply.outer(1.0 / r, u[1:])
    root = z * z
    root += 1.0
    np.sqrt(root, out=root)
    z += root
    np.log(z, out=z)
    z *= 2.0 * nu
    np.cosh(z, out=z)
    z /= root
    return (np.log(2.0 / r) + np.log(w[0] + z @ w[1:])).reshape(x.shape)
