"""Monte Carlo experiment driver: replicate simulate-fit-studentize pipelines.

A run simulates one fine-grid path per replicate and per horizon, thins it to
every requested observation design, fits the stable quasi-MLE, Studentizes
the estimate around the true parameter, and aggregates the results into
machine-readable files:

    replicates.csv   one row per (replicate, design)
    summary.json     per-design medians, IQRs, z moments, CI coverage
    histograms.csv   50-bin counts of each Studentized coordinate over [-4, 4]
    boxplots.csv     five-number summaries per design and coordinate

Replicates are independent (streams keyed by base_seed XOR replicate index)
and are the unit of parallelism; aggregation sorts by (design, replicate) and
groups each design's converged cells once (``_by_design``), so every output
except wall-clock timings is byte-identical across reruns, worker counts and
BLAS thread counts.

A parallel run forks at most one worker per replicate, and the workers import
nothing: before the pool starts, the parent holds the model and kernel
(``_cached_context``) and loads ``numpy.random``, which numpy otherwise loads
at the first draw.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, PartialFailureError, StableQLError, UsageError
from .inference import confidence_intervals, studentize
from .models import ModelSpec, build_model
from .samplers import NoiseSpec, RngStream
from .sde import simulate_fine, thin
from .sqlik import OptimizerConfig, _start_box, fit
from .stable_core import StableKernel

__all__ = [
    "Design",
    "ExperimentConfig",
    "run_experiment",
]

HIST_BINS = 50
HIST_RANGE = (-4.0, 4.0)
FAILURE_THRESHOLD = 0.10


@dataclass(frozen=True)
class Design:
    """One observation design: horizon T, sample size n, fine subdivision."""

    T: float
    n: int
    fine_factor: int

    def __post_init__(self):
        if self.T <= 0 or self.n < 1 or self.fine_factor < 1:
            raise DomainError(f"invalid design {self}")

    @property
    def n_fine(self) -> int:
        return self.n * self.fine_factor

    @property
    def label(self) -> str:
        return f"T{self.T:g}-n{self.n}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of a Monte Carlo study.

    The model is referenced by registry name (or by expression keyword
    arguments in model_kwargs) rather than held as an object, so configs
    can cross process boundaries; each process builds the model once
    (_cached_context), and forked pool workers inherit it.
    """

    model_name: str | None
    noise: NoiseSpec
    designs: tuple[Design, ...]
    replicates: int
    base_seed: int
    beta_fit: float
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    x0: float = 0.0
    model_kwargs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        self.noise.require_sampler()
        if self.replicates < 1:
            raise DomainError(f"replicates must be >= 1, got {self.replicates}")
        if not (1.0 <= self.beta_fit < 2.0):
            raise DomainError(f"beta_fit must lie in [1,2), got {self.beta_fit}")
        if not self.designs:
            raise DomainError("at least one design is required")
        labels = [d.label for d in self.designs]
        if len(set(labels)) != len(labels):
            raise DomainError(f"duplicate design labels: {labels}")

    def build_model(self) -> ModelSpec:
        return build_model(self.model_name, **dict(self.model_kwargs))


# -- replicate execution ---------------------------------------------------

_WORKER_CACHE: dict = {}


def _cached_context(config: ExperimentConfig):
    """The (model, kernel) pair of a config, built once per process.

    Pool workers forked after the first call inherit the pair, the kernel's
    tables and information constants included.  Nothing here or in a
    replicate imports scipy.  Nor does this load numpy.random: only a run
    that forks a pool needs it before its first draw, and run_experiment
    loads it there.
    """
    key = (config.model_name, config.model_kwargs, config.beta_fit)
    if key not in _WORKER_CACHE:
        _WORKER_CACHE[key] = (config.build_model(), StableKernel(config.beta_fit))
    return _WORKER_CACHE[key]


def _run_replicate(config: ExperimentConfig, rep: int) -> list[dict]:
    """All designs for one replicate; shares a fine path per (T, n_fine)."""
    model, kernel = _cached_context(config)
    stream_id = config.base_seed ^ rep
    records = []
    groups: dict = {}
    for d_idx, design in enumerate(config.designs):
        groups.setdefault((design.T, design.n_fine), []).append((d_idx, design))
    for g_idx, ((T, n_fine), members) in enumerate(sorted(groups.items())):
        rng = RngStream(config.base_seed, stream_id)
        try:
            fine = simulate_fine(
                model, config.noise, T, n_fine, config.x0,
                rng.substream(100 + g_idx),
            )
        except StableQLError:
            fine = None
        for d_idx, design in members:
            t0 = time.perf_counter()
            rec = {
                "rep": rep,
                "design": design.label,
                "theta": np.full(model.p, np.nan),
                "z": np.full(model.p, np.nan),
                "cover": np.zeros(model.p, int),
                "converged": False,
            }
            if fine is not None:
                try:
                    obs = thin(fine, design.fine_factor)
                    result = fit(
                        obs, model, config.beta_fit, kernel,
                        config.optimizer, rng.substream(d_idx),
                    )
                    report = studentize(
                        obs, model, result.theta_hat, model.theta_true, kernel,
                    )
                    ci = confidence_intervals(report, 0.95)
                    theta0 = model.theta_true.full
                    rec["theta"] = result.theta_hat.full
                    rec["z"] = report.z
                    rec["cover"] = (
                        (ci[:, 0] <= theta0) & (theta0 <= ci[:, 1])
                    ).astype(int)
                    rec["converged"] = bool(result.converged)
                except StableQLError:
                    pass
            rec["seconds"] = time.perf_counter() - t0
            records.append(rec)
    return records


# -- output writing --------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _write_replicates(path: Path, records: list[dict], p: int) -> None:
    header = (
        ["rep", "design"]
        + [f"theta_{i+1}" for i in range(p)]
        + [f"z_{i+1}" for i in range(p)]
        + [f"cover_{i+1}" for i in range(p)]
        + ["converged", "seconds"]
    )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for rec in records:
            writer.writerow(
                [rec["rep"], rec["design"]]
                + [_fmt(v) for v in rec["theta"]]
                + [_fmt(v) for v in rec["z"]]
                + [int(v) for v in rec["cover"]]
                + [int(rec["converged"]), f"{rec['seconds']:.3f}"]
            )


def _by_design(records: list[dict], p: int) -> dict:
    """{label: {"cells": count, "theta", "z", "cover": (p, k) arrays}}, sorted.

    The arrays hold the k converged cells, one contiguous row per coordinate.
    """
    rows: dict = {}
    for rec in records:
        rows.setdefault(rec["design"], []).append(rec)
    table = {}
    for label in sorted(rows):
        good = [r for r in rows[label] if r["converged"]]
        table[label] = {"cells": len(rows[label])}
        for key in ("theta", "z", "cover"):
            table[label][key] = np.array([r[key] for r in good]).reshape(len(good), p).T.copy()
    return table


def _aggregate(table: dict) -> dict:
    """Per-design summary over converged replicates."""
    summary = {}
    for label, cells in table.items():
        k = cells["z"].shape[1]
        entry = {
            "n_total": cells["cells"],
            "n_converged": k,
            "n_failed": cells["cells"] - k,
            "coordinates": [],
        }
        for i, (th, zz, cov) in enumerate(zip(cells["theta"], cells["z"], cells["cover"])):
            coord = {"index": i + 1}
            if k:
                q1, med, q3 = np.quantile(th, [0.25, 0.5, 0.75])
                coord.update(
                    theta_median=float(med),
                    theta_iqr=float(q3 - q1),
                    z_mean=float(zz.mean()),
                    z_sd=float(zz.std(ddof=1)) if k > 1 else 0.0,
                    ci_coverage=float(cov.mean()),
                )
            entry["coordinates"].append(coord)
        summary[label] = entry
    return summary


def _write_histograms(path: Path, table: dict) -> None:
    edges = np.linspace(HIST_RANGE[0], HIST_RANGE[1], HIST_BINS + 1)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "coordinate", "bin_left", "bin_right", "count"])
        for label, cells in table.items():
            for i, zz in enumerate(cells["z"]):
                counts, _ = np.histogram(zz, bins=edges)
                for b in range(HIST_BINS):
                    writer.writerow(
                        [label, f"z_{i+1}", _fmt(edges[b]), _fmt(edges[b + 1]), int(counts[b])]
                    )


def _write_boxplots(path: Path, table: dict) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "variable", "min", "q1", "median", "q3", "max"])
        for label, cells in table.items():
            if not cells["z"].size:
                continue
            for key in ("theta", "z"):
                for i, vals in enumerate(cells[key]):
                    quartiles = np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])
                    writer.writerow([label, f"{key}_{i+1}"] + [_fmt(v) for v in quartiles])


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path,
    workers: int | None = None,
) -> Path:
    """Execute the full study and write result files into out_dir.

    Individual replicate failures are recorded with converged=false and do
    not abort the run; if more than 10% of (replicate, design) cells fail,
    PartialFailureError is raised after all files have been written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, _ = _cached_context(config)
    if model.theta_true is None:
        raise UsageError("experiments need a model with theta_true")
    _start_box(model, config.optimizer.init_windows)
    p = model.p

    if workers is None:
        workers = os.cpu_count() or 1
    # The executor forks all max_workers processes at its first submit, so
    # more workers than replicates would only sit idle.
    workers = min(workers, config.replicates)
    if workers <= 1:
        batches = [_run_replicate(config, rep) for rep in range(config.replicates)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # numpy loads numpy.random (and hashlib, secrets, ...) lazily, at the
        # first draw.  Loading it once here, before the fork, lets every
        # worker inherit it instead of importing it for its first replicate.
        # At package import it would add about 14 ms to every command.
        importlib.import_module("numpy.random")
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(
                _run_replicate, itertools.repeat(config), range(config.replicates),
                chunksize=1,
            ))
    records = [rec for batch in batches for rec in batch]
    records.sort(key=lambda r: (r["design"], r["rep"]))

    _write_replicates(out / "replicates.csv", records, p)
    table = _by_design(records, p)
    with (out / "summary.json").open("w") as fh:
        json.dump(_aggregate(table), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_histograms(out / "histograms.csv", table)
    _write_boxplots(out / "boxplots.csv", table)

    n_failed = sum(1 for r in records if not r["converged"])
    if n_failed > FAILURE_THRESHOLD * len(records):
        raise PartialFailureError(
            f"{n_failed}/{len(records)} replicate cells failed "
            f"(threshold {FAILURE_THRESHOLD:.0%}); see {out / 'replicates.csv'}"
        )
    return out
