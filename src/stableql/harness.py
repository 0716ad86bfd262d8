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
and are the unit of parallelism; aggregation sorts by (design, replicate) so
every output except wall-clock timings is byte-identical across reruns and
worker counts.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
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
    "PRESETS",
    "preset_config",
    "run_experiment",
    "summarize",
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


def _theta0_windows(theta0, half_width=10.0):
    return tuple((float(t) - half_width, float(t) + half_width) for t in theta0)


def _preset(model_name, noise, designs, beta_fit, seed):
    model = build_model(model_name)
    return ExperimentConfig(
        model_name=model_name,
        noise=noise,
        designs=designs,
        replicates=200,
        base_seed=seed,
        beta_fit=beta_fit,
        optimizer=OptimizerConfig(
            restarts=3, init_windows=_theta0_windows(model.theta_true.full)
        ),
    )


_NIG_DESIGNS = (Design(1.0, 500, 300), Design(1.0, 1000, 150), Design(1.0, 3000, 50))
_STABLE_DESIGNS = (
    Design(5.0, 100, 250), Design(5.0, 200, 125), Design(5.0, 500, 50),
    Design(10.0, 100, 250), Design(10.0, 200, 125), Design(10.0, 500, 50),
)

PRESETS = {
    "nig-1d": lambda: _preset("nonlinear-1d", NoiseSpec("nig", eta=5.0), _NIG_DESIGNS, 1.0, 202501),
    "nig-2d": lambda: _preset("nonlinear-2d", NoiseSpec("nig", eta=5.0), _NIG_DESIGNS, 1.0, 202502),
    "stable15-1d": lambda: _preset(
        "nonlinear-1d", NoiseSpec("stable", beta=1.5), _STABLE_DESIGNS, 1.5, 202503
    ),
    "stable15-2d": lambda: _preset(
        "nonlinear-2d", NoiseSpec("stable", beta=1.5), _STABLE_DESIGNS, 1.5, 202504
    ),
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise UsageError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None


# -- replicate execution ---------------------------------------------------

_WORKER_CACHE: dict = {}


def _cached_context(config: ExperimentConfig):
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


def _five_number(values: np.ndarray) -> list[float]:
    return [float(v) for v in np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])]


def _aggregate(records: list[dict], p: int) -> dict:
    """Per-design summary over converged replicates, deterministic key order."""
    designs = sorted({rec["design"] for rec in records})
    summary = {}
    for label in designs:
        rows = [r for r in records if r["design"] == label]
        good = [r for r in rows if r["converged"]]
        entry = {
            "n_total": len(rows),
            "n_converged": len(good),
            "n_failed": len(rows) - len(good),
            "coordinates": [],
        }
        for i in range(p):
            coord = {"index": i + 1}
            if good:
                th = np.array([r["theta"][i] for r in good])
                zz = np.array([r["z"][i] for r in good])
                cov = np.array([r["cover"][i] for r in good])
                q1, med, q3 = np.quantile(th, [0.25, 0.5, 0.75])
                coord.update(
                    theta_median=float(med),
                    theta_iqr=float(q3 - q1),
                    z_mean=float(zz.mean()),
                    z_sd=float(zz.std(ddof=1)) if len(zz) > 1 else 0.0,
                    ci_coverage=float(cov.mean()),
                )
            entry["coordinates"].append(coord)
        summary[label] = entry
    return summary


def _write_histograms(path: Path, records: list[dict], p: int) -> None:
    edges = np.linspace(HIST_RANGE[0], HIST_RANGE[1], HIST_BINS + 1)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "coordinate", "bin_left", "bin_right", "count"])
        for label in sorted({r["design"] for r in records}):
            good = [r for r in records if r["design"] == label and r["converged"]]
            for i in range(p):
                zz = np.array([r["z"][i] for r in good])
                counts, _ = np.histogram(zz, bins=edges)
                for b in range(HIST_BINS):
                    writer.writerow(
                        [label, f"z_{i+1}", _fmt(edges[b]), _fmt(edges[b + 1]), int(counts[b])]
                    )


def _write_boxplots(path: Path, records: list[dict], p: int) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "variable", "min", "q1", "median", "q3", "max"])
        for label in sorted({r["design"] for r in records}):
            good = [r for r in records if r["design"] == label and r["converged"]]
            if not good:
                continue
            for prefix, key in (("theta", "theta"), ("z", "z")):
                for i in range(p):
                    vals = np.array([r[key][i] for r in good])
                    writer.writerow(
                        [label, f"{prefix}_{i+1}"] + [_fmt(v) for v in _five_number(vals)]
                    )


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
        workers = min(os.cpu_count() or 1, config.replicates)
    if workers <= 1:
        batches = [_run_replicate(config, rep) for rep in range(config.replicates)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(
                _run_replicate, itertools.repeat(config), range(config.replicates),
                chunksize=1,
            ))
    records = [rec for batch in batches for rec in batch]
    records.sort(key=lambda r: (r["design"], r["rep"]))

    _write_replicates(out / "replicates.csv", records, p)
    summary = _aggregate(records, p)
    with (out / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_histograms(out / "histograms.csv", records, p)
    _write_boxplots(out / "boxplots.csv", records, p)

    n_failed = sum(1 for r in records if not r["converged"])
    if n_failed > FAILURE_THRESHOLD * len(records):
        raise PartialFailureError(
            f"{n_failed}/{len(records)} replicate cells failed "
            f"(threshold {FAILURE_THRESHOLD:.0%}); see {out / 'replicates.csv'}"
        )
    return out


def summarize(replicates_csv: str | Path) -> dict:
    """Recompute the per-design summary from a replicates.csv file."""
    path = Path(replicates_csv)
    with path.open() as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise UsageError(f"no replicate rows in {path}")
    p = sum(1 for k in rows[0] if k.startswith("theta_"))
    records = []
    for row in rows:
        records.append(
            {
                "rep": int(row["rep"]),
                "design": row["design"],
                "theta": np.array([float(row[f"theta_{i+1}"]) for i in range(p)]),
                "z": np.array([float(row[f"z_{i+1}"]) for i in range(p)]),
                "cover": np.array([int(row[f"cover_{i+1}"]) for i in range(p)]),
                "converged": row["converged"] == "1",
            }
        )
    return _aggregate(records, p)
