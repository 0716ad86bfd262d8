"""Noise samplers: distributional correctness and stream reproducibility."""

import numpy as np
import pytest
from scipy import stats

from stableql import samplers
from stableql.errors import DomainError
from stableql.samplers import _KVE_MIN_X, NoiseSpec, RngStream, _inverse_gaussian, _log_kve


class TestStableSampler:
    def test_cauchy_ks(self):
        x = NoiseSpec("stable", beta=1.0).sample(1.0, 10_000, RngStream(1, 0))
        stat = stats.kstest(x, stats.cauchy.cdf).statistic
        assert stat < 0.02

    def test_cauchy_iqr(self):
        # standard Cauchy quartiles are at -1 and 1
        x = NoiseSpec("stable", beta=1.0).sample(1.0, 200_000, RngStream(2, 0))
        iqr = np.quantile(x, 0.75) - np.quantile(x, 0.25)
        assert abs(iqr - 2.0) < 0.03

    def test_characteristic_function(self):
        # E cos(uX) = exp(-|u|^beta) for the symmetric stable law
        for beta in [1.2, 1.5, 1.8]:
            x = NoiseSpec("stable", beta=beta).sample(1.0, 400_000, RngStream(3, 0))
            for u in [0.5, 1.0, 2.0]:
                emp = np.cos(u * x).mean()
                assert abs(emp - np.exp(-(u**beta))) < 5e-3

    def test_self_similarity(self):
        # dt^(1/beta)-scaled unit draws match dt-step draws in distribution
        beta, dt = 1.5, 0.04
        a = NoiseSpec("stable", beta=beta).sample(dt, 20_000, RngStream(4, 0))
        b = dt ** (1 / beta) * NoiseSpec("stable", beta=beta).sample(1.0, 20_000, RngStream(4, 1))
        stat = stats.ks_2samp(a, b).statistic
        assert stat < 0.02

    def test_symmetry(self):
        x = NoiseSpec("stable", beta=1.5).sample(1.0, 100_000, RngStream(5, 0))
        assert abs(np.mean(x < 0) - 0.5) < 5e-3

    def test_reproducible(self):
        a = NoiseSpec("stable", beta=1.5).sample(0.1, 100, RngStream(6, 7))
        b = NoiseSpec("stable", beta=1.5).sample(0.1, 100, RngStream(6, 7))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = NoiseSpec("stable", beta=1.5).sample(0.1, 100, RngStream(6, 7))
        b = NoiseSpec("stable", beta=1.5).sample(0.1, 100, RngStream(6, 8))
        assert not np.array_equal(a, b)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            NoiseSpec("stable", beta=2.0).sample(1.0, 10, RngStream(0, 0))
        with pytest.raises(DomainError):
            NoiseSpec("stable", beta=1.5).sample(-1.0, 10, RngStream(0, 0))
        with pytest.raises(DomainError):
            NoiseSpec("stable", beta=1.5).sample(1.0, -1, RngStream(0, 0))


class TestInverseGaussian:
    def test_moments(self):
        mean, shape = 0.8, 2.5
        x = _inverse_gaussian(mean, shape, 400_000, RngStream(7, 0).generator())
        assert np.all(x > 0)
        assert abs(x.mean() - mean) < 5e-3
        assert abs(x.var() - mean**3 / shape) < 5e-3

    def test_against_scipy(self):
        mean, shape = 1.3, 0.9
        x = _inverse_gaussian(mean, shape, 20_000, RngStream(8, 0).generator())
        stat = stats.kstest(x, stats.invgauss(mean / shape, scale=shape).cdf).statistic
        assert stat < 0.02


class TestNig:
    def test_variance(self):
        eta, dt = 5.0, 0.7
        x = NoiseSpec("nig", eta=eta).sample(dt, 100_000, RngStream(9, 0))
        assert abs(x.var() / (dt / eta) - 1.0) < 0.05

    def test_symmetry_and_mean(self):
        x = NoiseSpec("nig", eta=5.0).sample(1.0, 200_000, RngStream(10, 0))
        assert abs(x.mean()) < 5e-3
        assert abs(np.mean(x < 0) - 0.5) < 5e-3

    def test_infinite_divisibility(self):
        # sum of two half-step increments matches one full-step increment
        eta, dt = 3.0, 0.5
        a = NoiseSpec("nig", eta=eta).sample(dt / 2, 20_000, RngStream(11, 0))
        b = NoiseSpec("nig", eta=eta).sample(dt / 2, 20_000, RngStream(11, 1))
        c = NoiseSpec("nig", eta=eta).sample(dt, 20_000, RngStream(11, 2))
        stat = stats.ks_2samp(a + b, c).statistic
        assert stat < 0.02

    @pytest.mark.parametrize("count", [0, 1, 8191, 8193, 150_000])
    def test_same_bits_as_the_formula(self, count):
        # the sampler works in place over blocks of draws; written out over
        # whole arrays, with its three draws in the same stream order, the
        # formula gives the same bits
        eta, dt = 5.0, 1e-3
        gen = RngStream(14, count).generator()
        mean, shape = dt / eta, dt**2
        y = gen.standard_normal(size=count) ** 2
        u = gen.uniform(size=count)
        x = mean + mean**2 * y / (2.0 * shape) - mean / (2.0 * shape) * np.sqrt(
            4.0 * mean * shape * y + mean**2 * y**2
        )
        mixing = np.where(u <= mean / (mean + x), x, mean**2 / x)
        expected = np.sqrt(mixing) * gen.standard_normal(size=count)
        drawn = NoiseSpec("nig", eta=eta).sample(dt, count, RngStream(14, count))
        assert drawn.shape == (count,) and np.array_equal(drawn, expected)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            NoiseSpec("nig", eta=-1.0).sample(1.0, 10, RngStream(0, 0))
        with pytest.raises(DomainError):
            NoiseSpec("nig", eta=5.0).sample(0.0, 10, RngStream(0, 0))


class TestNoiseSpec:
    def test_dispatch(self):
        # each kind draws by its own transform from its stream: stable is the
        # Chambers-Mallows-Stuck transform at every beta, which at beta = 1 is
        # dt sin(V) / cos(V) and lies within 2 ulp of dt tan(V); nig is
        # Gaussian with IG(dt/eta, dt^2) variance
        rng = RngStream(12, 0)
        gen = rng.generator()
        beta, v = 1.0, gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=50)
        w = gen.standard_exponential(size=50)
        cms = 0.1 * (
            np.sin(beta * v)
            / np.cos(v) ** (1.0 / beta)
            * (np.cos((1.0 - beta) * v) / w) ** ((1.0 - beta) / beta)
        )
        cauchy = NoiseSpec("stable", beta=1.0).sample(0.1, 50, rng)
        assert np.array_equal(cauchy, cms)
        tan = 0.1 * np.tan(v)
        assert np.all(np.abs(cauchy - tan) <= 2.0 * np.spacing(np.abs(tan)))
        gen = rng.generator()
        mixing = _inverse_gaussian(0.1 / 5.0, 0.1**2, 50, gen)
        nig = np.sqrt(mixing) * gen.standard_normal(size=50)
        assert np.array_equal(NoiseSpec("nig", eta=5.0).sample(0.1, 50, rng), nig)

    def test_validation(self):
        with pytest.raises(DomainError, match="'beta'"):
            NoiseSpec("stable")
        with pytest.raises(DomainError, match="'eta'"):
            NoiseSpec("nig", eta=-1.0)
        with pytest.raises(DomainError, match="'brownian'"):
            NoiseSpec("brownian")
        # a parameter the kind does not take is named, not dropped
        with pytest.raises(DomainError, match="'eta'"):
            NoiseSpec("stable", beta=1.5, eta=5.0)
        with pytest.raises(DomainError, match="'lambda_tempering'"):
            NoiseSpec("stable", beta=1.5, gh_eta=5.0, lambda_tempering=2.0)
        with pytest.raises(DomainError, match="'beta'"):
            NoiseSpec("nig", eta=5.0, beta=1.7)

    def test_locally_cauchy_kinds_fix_beta(self):
        assert NoiseSpec("nig", eta=5.0) == NoiseSpec("nig", eta=5.0, beta=1.0)
        assert NoiseSpec("gh_nig", gh_lambda=-0.5, gh_eta=5.0).beta == 1.0

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec("tempered_stable", 1.5, lambda_tempering=1.0),
         NoiseSpec("gh_nig", 1.0, gh_lambda=-0.5, gh_eta=5.0)],
        ids=lambda spec: spec.kind,
    )
    def test_only_stable_and_nig_sample(self, spec):
        with pytest.raises(DomainError, match=spec.kind):
            spec.sample(0.1, 10, RngStream(0, 0))

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec("stable", beta=1.0), NoiseSpec("stable", beta=1.5),
         NoiseSpec("stable", beta=1.8), NoiseSpec("nig", eta=5.0)],
        ids=lambda spec: f"{spec.kind}-{spec.beta if spec.kind == 'stable' else spec.eta}",
    )
    def test_sampler_matches_exponent(self, spec):
        # E cos(u X) = exp(psi_h(u)) for X = h^(-1/beta) J_h, within 4.5
        # standard errors of the 100k-draw mean
        u = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        for i, h in enumerate([1e-1, 1e-2, 1e-3]):
            x = spec.sample(h, 100_000, RngStream(13, i)) / h ** (1.0 / spec.beta)
            c = np.cos(np.outer(u, x))
            se = c.std(axis=1) / np.sqrt(x.size)
            z = (c.mean(axis=1) - np.exp(spec.exponent(u, h))) / se
            assert np.all(np.abs(z) < 4.5), (h, z)


class TestRngStream:
    def test_purpose_isolation(self):
        s = RngStream(1, 2)
        a = s.generator(purpose=0).uniform(size=5)
        b = s.generator(purpose=1).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        assert RngStream(1, 2).substream(3) == RngStream(1, 2).substream(3)
        assert RngStream(1, 2).substream(3) != RngStream(1, 2).substream(4)


class TestBesselK:
    @pytest.mark.parametrize("nu", [-2.5, -1.3, -0.5, 0.0, 0.5, 1.0, 3.7, 10.0, 12.0, 20.0, -50.0])
    def test_matches_scipy_kve(self, nu):
        from scipy.special import kve

        # one call over the whole range takes the rule of its smallest
        # argument; one call per argument takes the coarsest rule each allows
        x = np.geomspace(_KVE_MIN_X, 1e7, 20001)
        np.testing.assert_allclose(_log_kve(nu, x), np.log(kve(nu, x)), rtol=0, atol=1e-13)
        alone = np.array([_log_kve(nu, v) for v in x[::50]])
        np.testing.assert_allclose(alone, np.log(kve(nu, x[::50])), rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "spec, name",
        [(NoiseSpec("gh_nig", gh_lambda=0.7, gh_eta=1e-15), "gh_eta"),
         (NoiseSpec("nig", eta=_KVE_MIN_X / 2), "eta")],
        ids=["gh_nig", "nig"],
    )
    def test_exponent_below_the_smallest_eta_is_a_domain_error(self, spec, name):
        # the rule's node count grows as x^(-1/2): below the floor it would
        # run to gigabytes, so the exponent refuses, naming the parameter
        with pytest.raises(DomainError, match=f"'{name}' >= "):
            spec.exponent(np.array([1.0, 2.0]), 0.1)

    def test_exponent_at_the_smallest_eta(self):
        from scipy.special import kve

        # psi_1(v) = lam/2 log(eta^2 / (eta^2 + v^2)) + log K_lam(s) - log K_lam(eta)
        lam, eta, v = 0.7, _KVE_MIN_X, np.array([1e-3, 0.5, 30.0])
        s = np.hypot(eta, v)
        exact = 0.5 * lam * np.log(eta**2 / s**2) + np.log(kve(lam, s) / kve(lam, eta)) - s + eta
        spec = NoiseSpec("gh_nig", gh_lambda=lam, gh_eta=eta)
        np.testing.assert_allclose(spec.exponent(v, 1.0), exact, rtol=0, atol=1e-12)

    def test_half_order_is_elementary(self, monkeypatch):
        # e^x K_(1/2)(x) = sqrt(pi / (2x)) exactly, with no rule at all
        def no_rule(*args):
            raise AssertionError("the rule ran at order 1/2")

        monkeypatch.setattr(samplers, "_kve_rule", no_rule)
        x = np.geomspace(_KVE_MIN_X, 1e7, 2001)
        for nu in (0.5, -0.5):
            assert np.array_equal(_log_kve(nu, x), 0.5 * np.log(np.pi / (2.0 * x)))
        assert _log_kve(0.5, x.reshape(-1, 3)).shape == (667, 3)
        assert _log_kve(0.5, 3.0).shape == ()

    def test_keeps_shape(self):
        x = np.array([[0.5, 2.0], [30.0, 4e5]])
        assert _log_kve(1.0, x).shape == (2, 2)
        assert _log_kve(1.0, 3.0).shape == ()
