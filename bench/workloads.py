"""Workload set-up, jobs and output checks; runs inside a child process.

The benchmark hands the program only configs: the ``mc-*`` workloads pass a
config mapping through ``experiment_from_config`` with the benchmark seed as
``base_seed``, and ``llt-rates`` passes one through ``llt_from_config`` with
seed-jittered h values.  Jobs call ``run_experiment`` and ``rate_fit`` through
their module attributes, so the tracer sees the program's own path.
"""

from __future__ import annotations

import csv
import math
import random
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from stableql import harness, llt
from stableql.config import experiment_from_config, llt_from_config
from stableql.errors import PartialFailureError
from stableql.models import Theta
from stableql.samplers import RngStream
from stableql.sde import simulate_fine, thin
from stableql.sqlik import quasi_score, rate_exponent
from stableql.stable_core import StableKernel

from spec import L1_ATOL, LLT_DRIVERS, SCORE_NORM_MAX, SLOPE_ATOL, THETA_ATOL


def _report(job_seed: int, message: str) -> None:
    print(f"job {job_seed}: {message}", file=sys.stderr, flush=True)


class McWorkload:
    """Monte Carlo study from a preset; one job is one run_experiment call."""

    def __init__(self, spec: dict):
        self.spec = spec

    def config(self, job_seed: int):
        cfg = dict(self.spec["config"], replicates=self.spec["replicates"], base_seed=job_seed)
        return experiment_from_config(cfg)

    def setup(self) -> None:
        config = self.config(0)
        # Fills the harness's per-process model and kernel cache, which
        # forked pool workers inherit; jobs then time the studies alone.
        self.model, self.kernel = harness._cached_context(config)
        self.kernel.info_constants()

    def cells_per_job(self) -> int:
        return self.spec["replicates"] * len(self.config(0).designs)

    def run(self, job_seed: int, workers: int, out: Path) -> dict:
        config = self.config(job_seed)
        start = time.perf_counter()
        try:
            harness.run_experiment(config, out, workers=workers)
        except PartialFailureError:
            pass  # raised after every file is written; the cells say which failed
        wall = time.perf_counter() - start
        return {"seed": job_seed, "wall": wall, "out": str(out)}

    def check(self, job: dict, reference: dict | None) -> list[dict]:
        """One entry per cell: its outputs and whether it passed every check."""
        config = self.config(job["seed"])
        rows = _read_rows(Path(job["out"]) / "replicates.csv")
        p = self.model.p
        by_key = {(int(r["rep"]), r["design"]): r for r in rows}
        groups = {}
        for design in config.designs:
            groups.setdefault((design.T, design.n_fine), []).append(design)
        cells = []
        for rep in range(config.replicates):
            # Same stream layout as the harness: one fine path per (T, n_fine)
            # group, keyed by base_seed XOR replicate.
            stream = RngStream(config.base_seed, config.base_seed ^ rep)
            for g_idx, ((T, n_fine), designs) in enumerate(sorted(groups.items())):
                fine = None
                for design in designs:
                    row = by_key.get((rep, design.label))
                    cell = {"rep": rep, "design": design.label, "ok": False}
                    cells.append(cell)
                    if row is None:
                        cell["error"] = "no row in replicates.csv"
                        continue
                    theta = np.array([float(row[f"theta_{i + 1}"]) for i in range(p)])
                    z = np.array([float(row[f"z_{i + 1}"]) for i in range(p)])
                    cell["theta"] = theta.tolist()
                    if row["converged"] != "1":
                        continue
                    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(z))):
                        cell["error"] = "non-finite estimate"
                        continue
                    if fine is None:
                        fine = simulate_fine(
                            self.model, config.noise, T, n_fine, config.x0,
                            stream.substream(100 + g_idx),
                        )
                    obs = thin(fine, design.fine_factor)
                    cell["score_norm"] = _score_norm(obs, self.model, theta, config.beta_fit, self.kernel)
                    cell["error"] = _cell_error(cell, reference)
                    cell["ok"] = cell["error"] is None
        for cell in cells:
            if cell.get("error"):
                _report(job["seed"], f"replicate {cell['rep']} {cell['design']}: {cell['error']}")
        return cells

    def outputs(self, job: dict) -> list[str]:
        """replicates.csv without the trailing wall-clock column."""
        text = (Path(job["out"]) / "replicates.csv").read_text()
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def _read_rows(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def _score_norm(obs, model, theta, beta, kernel) -> float:
    """|quasi_score| at theta_hat, each block scaled by its rate of convergence."""
    score = quasi_score(obs, model, Theta.from_full(theta, model.p_alpha), beta, kernel)
    rates = np.concatenate([
        np.full(model.p_alpha, math.sqrt(obs.n) * rate_exponent(obs.h, beta)),
        np.full(model.p_gamma, math.sqrt(obs.n)),
    ])
    return float(np.linalg.norm(score / rates))


def _cell_error(cell: dict, reference: dict | None) -> str | None:
    norm = cell["score_norm"]
    if not (math.isfinite(norm) and norm <= SCORE_NORM_MAX):
        return f"normalized score norm {norm:.3g} above {SCORE_NORM_MAX:g}"
    if reference is None:
        return None
    expected = reference.get(f"{cell['rep']}/{cell['design']}")
    if expected is None:
        return "cell missing from the reference"
    gap = float(np.max(np.abs(np.asarray(cell["theta"]) - expected)))
    if not gap <= THETA_ATOL:
        return f"theta differs from the reference by {gap:.3g} > {THETA_ATOL:g}"
    return None


class LltWorkload:
    """Criterion-8 pair of local-limit rate fits; one job is both rate_fit calls."""

    def __init__(self, spec: dict):
        self.spec = spec

    def config(self, job_seed: int, driver: dict) -> dict:
        # Endpoints stay at 1e-1 and 1e-3; the seed jitters the interior
        # points by up to 0.1 decade.
        count = self.spec["h_count"]
        gen = random.Random(job_seed)
        logs = [-1.0 - 2.0 * i / (count - 1) for i in range(count)]
        for i in range(1, count - 1):
            logs[i] += gen.uniform(-0.1, 0.1)
        cfg = {"cf": dict(driver), "h_values": [10.0**v for v in logs]}
        if self.spec["grid"]:
            cfg["grid"] = dict(self.spec["grid"])
        return cfg

    def setup(self) -> None:
        self.kernels = {}
        for driver in LLT_DRIVERS:
            cf, _, _ = llt_from_config(self.config(0, driver))
            self.kernels[cf.beta] = StableKernel(cf.beta)

    def cells_per_job(self) -> int:
        return len(LLT_DRIVERS) * self.spec["h_count"]

    def run(self, job_seed: int, workers: int, out: Path) -> dict:
        inputs = [llt_from_config(self.config(job_seed, d)) for d in LLT_DRIVERS]
        start = time.perf_counter()
        fits = [llt.rate_fit(cf, self.kernels[cf.beta], h, grid=grid) for cf, h, grid in inputs]
        wall = time.perf_counter() - start
        return {
            "seed": job_seed,
            "wall": wall,
            "fits": [
                {"l1": f.l1_values.tolist(), "slope": float(f.slope)} for f in fits
            ],
        }

    def check(self, job: dict, reference: list | None) -> list[dict]:
        """One entry per (driver, h): its L1 distance and its driver's slope."""
        cells = []
        for d_idx, fit in enumerate(job["fits"]):
            expected = None if reference is None else reference[d_idx]
            slope_error = _slope_error(fit["slope"], expected)
            for h_idx, value in enumerate(fit["l1"]):
                error = _l1_error(value, None if expected is None else expected["l1"][h_idx])
                error = error or slope_error
                if error:
                    _report(job["seed"], f"driver {d_idx} h #{h_idx}: {error}")
                cells.append({"ok": error is None, "error": error})
        return cells

    def outputs(self, job: dict) -> list[str]:
        return [repr(v) for fit in job["fits"] for v in fit["l1"] + [fit["slope"]]]


def _slope_error(slope: float, expected: dict | None) -> str | None:
    if not (math.isfinite(slope) and slope > 0.0):
        return f"slope {slope!r} is not a positive number"
    if expected is not None and not abs(slope - expected["slope"]) <= SLOPE_ATOL:
        return f"slope {slope:.6f} differs from the reference {expected['slope']:.6f}"
    return None


def _l1_error(value: float, expected: float | None) -> str | None:
    # an L1 distance between two densities lies in (0, 2]
    if not 0.0 < value <= 2.0:
        return f"L1 distance {value!r} outside (0, 2]"
    if expected is not None and not abs(value - expected) <= L1_ATOL:
        return f"L1 differs from the reference by {abs(value - expected):.3g} > {L1_ATOL:g}"
    return None


def make(spec: dict):
    return McWorkload(spec) if spec["kind"] == "mc" else LltWorkload(spec)


def run_job(workload, job_seed: int, workers: int, out: Path) -> dict:
    """Run one job; an exception fails the job's cells and is reported."""
    try:
        return workload.run(job_seed, workers, out)
    except Exception:
        _report(job_seed, "raised\n" + traceback.format_exc())
        return {"seed": job_seed, "wall": None}
