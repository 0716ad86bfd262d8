"""Acceptance suite: end-to-end criteria with one pass/fail line each.

Each test prints a single ``acceptance N: PASS/FAIL`` line directly to the
terminal (bypassing capture) so the verdict is visible in any run mode, then
asserts.  The Monte Carlo criteria share session fixtures so the heavy runs
execute once; each heavy configuration is run twice with identical seeds so
the determinism criterion can compare output files byte for byte.
"""

import csv
import dataclasses
import filecmp
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from stableql.cli import main as cli_main
from stableql.config import preset_config
from stableql.harness import Design, run_experiment
from stableql.models import Theta, build_model
from stableql.samplers import NoiseSpec, RngStream
from stableql.sde import simulate_fine, thin
from stableql.sqlik import quasi_hessian, quasi_loglik, quasi_score
from stableql.stable_core import StableKernel

RESULT_FILES = ["summary.json", "histograms.csv", "boxplots.csv"]


@pytest.fixture
def announce(capfd):
    """One visible pass/fail line per criterion, bypassing output capture."""

    def _announce(num: int, desc: str, failures: list[str], detail: str = "") -> None:
        verdict = "PASS" if not failures else "FAIL"
        extra = f" ({detail})" if detail else ""
        line = f"acceptance {num}: {verdict} - {desc}{extra}"
        with capfd.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
        assert not failures, line + " :: " + "; ".join(failures)

    return _announce


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def column(rows, label, key):
    return np.array(
        [float(r[key]) for r in rows if r["design"] == label and r["converged"] == "1"]
    )


def strip_seconds(path):
    lines = Path(path).read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def run_twice(config, root, name):
    t0 = time.perf_counter()
    first = run_experiment(config, root / f"{name}-a", workers=1)
    seconds = time.perf_counter() - t0
    second = run_experiment(config, root / f"{name}-b", workers=1)
    return first, second, seconds


@pytest.fixture(scope="session")
def stable_runs(tmp_path_factory):
    """S_1.5 driver, 1-parameter-per-block model, T=5, n=100, 200 replicates."""
    base = preset_config("stable15-1d")
    config = dataclasses.replace(base, designs=(Design(5.0, 100, 250),))
    root = tmp_path_factory.mktemp("acceptance-stable")
    return run_twice(config, root, "run")


@pytest.fixture(scope="session")
def nig_runs(tmp_path_factory):
    """NIG eta=5, T=1, n in {500, 1000, 3000}, 200 replicates."""
    config = preset_config("nig-1d")
    root = tmp_path_factory.mktemp("acceptance-nig")
    return run_twice(config, root, "run")


@pytest.fixture(scope="session")
def llt_runs(tmp_path_factory):
    """Density-inversion rate fits for both noise families, each run twice."""
    root = tmp_path_factory.mktemp("acceptance-llt")
    settings = {
        "tempered": [
            "--set", "cf.kind=tempered_stable",
            "--set", "cf.beta=1.5",
            "--set", "cf.lambda_tempering=1.0",
        ],
        "nig": [
            "--set", "cf.kind=gh_nig",
            "--set", "cf.beta=1.0",
            "--set", "cf.gh_lambda=-0.5",
            "--set", "cf.gh_eta=5.0",
        ],
    }
    out = {}
    t0 = time.perf_counter()
    for kind, overrides in settings.items():
        dirs = []
        for tag in ("a", "b"):
            target = root / f"{kind}-{tag}"
            code = cli_main(["llt", "--out", str(target)] + overrides)
            assert code == 0
            dirs.append(target)
        out[kind] = tuple(dirs)
    out["seconds"] = (time.perf_counter() - t0) / 2.0
    return out


def test_criterion_1_information_constants(announce):
    t0 = time.perf_counter()
    failures = []
    c15 = StableKernel(1.5).info_constants()
    if abs(c15.c_alpha - 0.4281) >= 5e-3:
        failures.append(f"C_alpha(1.5) = {c15.c_alpha}")
    if abs(c15.c_gamma - 0.9556) >= 5e-3:
        failures.append(f"C_gamma(1.5) = {c15.c_gamma}")
    c1 = StableKernel(1.0).info_constants()
    if abs(c1.c_alpha - 0.5) >= 1e-6:
        failures.append(f"C_alpha(1) = {c1.c_alpha}")
    if abs(c1.c_gamma - 0.5) >= 1e-6:
        failures.append(f"C_gamma(1) = {c1.c_gamma}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f} s >= 5 s")
    announce(1, "information constants", failures, f"{elapsed:.1f} s")


def test_criterion_2_stable_density_suite(announce):
    t0 = time.perf_counter()
    failures = []
    for beta in (1.0, 1.2, 1.5, 1.8):
        kernel = StableKernel(beta)
        center = gamma_fn(1.0 + 1.0 / beta) / math.pi
        err = abs(kernel.density(0.0) - center)
        if err >= 1e-8:
            failures.append(f"beta={beta}: density(0) off by {err:.2e}")
        y = np.linspace(0.1, 40.0, 400)
        if not np.allclose(kernel.density(y), kernel.density(-y), rtol=0, atol=1e-12):
            failures.append(f"beta={beta}: symmetry broken")
        norm_err = abs(kernel.normalization() - 1.0)
        if norm_err >= 1e-8:
            failures.append(f"beta={beta}: normalization off by {norm_err:.2e}")
        # location and scale scores are orthogonal under the density
        ortho, _ = quad(
            lambda v: kernel.g(v) * kernel.k(v) * kernel.density(v),
            -40, 40, limit=400,
        )
        if abs(ortho) >= 1e-8:
            failures.append(f"beta={beta}: score orthogonality {ortho:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    announce(2, "stable density suite", failures, f"{elapsed:.1f} s")


def test_criterion_3_derivatives_match_finite_differences(announce):
    t0 = time.perf_counter()
    failures = []
    model = build_model("nonlinear-1d")
    rng = np.random.default_rng(2024)
    step = 1e-6
    for beta in (1.0, 1.5):
        kernel = StableKernel(beta)
        noise = NoiseSpec("stable", beta=beta)
        for case in range(10):
            fine = simulate_fine(model, noise, 3.0, 3000, 0.5, RngStream(88, case))
            obs = thin(fine, 10)
            vec = model.theta_true.full + rng.uniform(-0.3, 0.3, model.p)
            theta = Theta.from_full(vec, model.p_alpha)
            score = quasi_score(obs, model, theta, beta, kernel)
            hess = quasi_hessian(obs, model, theta, beta, kernel)
            for i in range(model.p):
                e = np.zeros(model.p)
                e[i] = step
                up = Theta.from_full(vec + e, model.p_alpha)
                dn = Theta.from_full(vec - e, model.p_alpha)
                fd_s = (
                    quasi_loglik(obs, model, up, beta, kernel)
                    - quasi_loglik(obs, model, dn, beta, kernel)
                ) / (2 * step)
                rel_s = abs(score[i] - fd_s) / (1 + abs(fd_s))
                if rel_s >= 1e-5:
                    failures.append(f"beta={beta} case {case}: score err {rel_s:.2e}")
                fd_h = (
                    quasi_score(obs, model, up, beta, kernel)
                    - quasi_score(obs, model, dn, beta, kernel)
                ) / (2 * step)
                rel_h = np.max(np.abs(hess[:, i] - fd_h) / (1 + np.abs(fd_h)))
                if rel_h >= 1e-4:
                    failures.append(f"beta={beta} case {case}: hessian err {rel_h:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    announce(3, "score/Hessian vs finite differences", failures, f"{elapsed:.1f} s")


def test_criterion_4_sampler_suite(announce):
    t0 = time.perf_counter()
    failures = []
    cauchy = NoiseSpec("stable", beta=1.0).sample(1.0, 10_000, RngStream(5, 1))
    ks = stats.kstest(cauchy, stats.cauchy.cdf).statistic
    if ks >= 0.02:
        failures.append(f"Cauchy KS {ks:.4f}")
    nig = NoiseSpec("nig", eta=5.0).sample(1.0, 100_000, RngStream(5, 2))
    var_rel = abs(np.var(nig) / 0.2 - 1.0)
    if var_rel >= 0.05:
        failures.append(f"NIG variance off by {var_rel:.3f}")
    small = NoiseSpec("stable", beta=1.5).sample(0.3, 10_000, RngStream(5, 3))
    scaled = 0.3 ** (1 / 1.5) * NoiseSpec("stable", beta=1.5).sample(1.0, 10_000, RngStream(5, 4))
    ks2 = stats.ks_2samp(small, scaled).statistic
    if ks2 >= 0.02:
        failures.append(f"self-similarity KS {ks2:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    announce(4, "sampler suite", failures, f"{elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_5_studentized_bands_stable(announce, stable_runs):
    first, _, seconds = stable_runs
    failures = []
    rows = read_rows(first / "replicates.csv")
    names = {1: "alpha", 2: "gamma"}
    for i in (1, 2):
        z = column(rows, "T5-n100", f"z_{i}")
        mean, sd = z.mean(), z.std(ddof=1)
        if not -0.2 <= mean <= 0.2:
            failures.append(f"z_{names[i]} mean {mean:.3f} outside [-0.2, 0.2]")
        if not 0.8 <= sd <= 1.25:
            failures.append(f"z_{names[i]} sd {sd:.3f} outside [0.8, 1.25]")
    if seconds >= 20 * 60:
        failures.append(f"runtime {seconds:.0f} s >= 20 min")
    announce(
        5, "Studentized bands, 1.5-stable driver, T=5, n=100",
        failures, f"{seconds:.0f} s",
    )


@pytest.mark.slow
def test_criterion_6_monotone_accuracy_nig(announce, nig_runs):
    first, _, seconds = nig_runs
    failures = []
    rows = read_rows(first / "replicates.csv")
    theta0 = build_model("nonlinear-1d").theta_true.full
    names = {1: "alpha", 2: "gamma"}
    for i in (1, 2):
        medians = [
            float(np.median(np.abs(column(rows, f"T1-n{n}", f"theta_{i}") - theta0[i - 1])))
            for n in (500, 1000, 3000)
        ]
        if not (medians[0] > medians[1] > medians[2]):
            failures.append(f"{names[i]} median abs errors not decreasing: {medians}")
    if seconds >= 40 * 60:
        failures.append(f"runtime {seconds:.0f} s >= 40 min")
    announce(6, "monotone accuracy in n, NIG driver", failures, f"{seconds:.0f} s")


@pytest.mark.slow
def test_criterion_7_ci_coverage(announce, nig_runs):
    first, _, _ = nig_runs
    failures = []
    rows = read_rows(first / "replicates.csv")
    names = {1: "alpha", 2: "gamma"}
    for i in (1, 2):
        coverage = column(rows, "T1-n3000", f"cover_{i}").mean()
        if not 0.90 <= coverage <= 0.99:
            failures.append(f"{names[i]} coverage {coverage:.3f} outside [0.90, 0.99]")
    announce(7, "95% CI coverage on the n=3000 NIG design", failures)


@pytest.mark.slow
def test_criterion_8_local_limit_rates(announce, llt_runs):
    failures = []
    brackets = {"tempered": (0.55, 0.80), "nig": (0.80, 1.10)}
    details = []
    for kind, (lo, hi) in brackets.items():
        rate = json.loads((llt_runs[kind][0] / "rate.json").read_text())
        slope = rate["slope"]
        details.append(f"{kind} slope {slope:.3f}")
        if slope is None or not lo <= slope <= hi:
            failures.append(f"{kind} slope {slope} outside [{lo}, {hi}]")
    seconds = llt_runs["seconds"]
    if seconds >= 5 * 60:
        failures.append(f"runtime {seconds:.0f} s >= 5 min")
    announce(8, "local limit decay rates", failures, ", ".join(details))


@pytest.mark.slow
def test_criterion_9_determinism(announce, stable_runs, nig_runs, llt_runs):
    failures = []
    for tag, (first, second, _) in {"stable": stable_runs, "nig": nig_runs}.items():
        for name in RESULT_FILES:
            if not filecmp.cmp(first / name, second / name, shallow=False):
                failures.append(f"{tag}: {name} differs between reruns")
        # replicate rows are compared without the wall-clock column
        if strip_seconds(first / "replicates.csv") != strip_seconds(
            second / "replicates.csv"
        ):
            failures.append(f"{tag}: replicates.csv differs between reruns")
    for kind in ("tempered", "nig"):
        first, second = llt_runs[kind]
        for name in ("l1.csv", "rate.json"):
            if not filecmp.cmp(first / name, second / name, shallow=False):
                failures.append(f"llt {kind}: {name} differs between reruns")
    announce(9, "byte-identical reruns with identical seeds", failures)
