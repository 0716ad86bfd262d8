"""Command line interface.

Subcommands:

    constants  print the kernel information constants C_alpha, C_gamma
    simulate   generate one observed path and write it as CSV
    fit        estimate (alpha, gamma) from an observed path CSV
    mc         run a Monte Carlo study (preset or config file)
    llt        local limit lab: L1 distances and decay-rate fit

Exit codes: 0 success, otherwise the ``exit_code`` of the package error
raised (see ``errors``), after one ``error: <Class>: <message>`` line on
stderr; a malformed command line is a usage error, exit 1.  simulate, fit
and mc accept --seed, and reruns with identical arguments reproduce outputs
byte-identically (timing columns excepted) at any BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    PRESETS, _model, apply_overrides, experiment_from_config, llt_from_config, load_config,
)
from .errors import StableQLError, UsageError
from .harness import run_experiment
from .inference import confidence_intervals, studentize
from .llt import rate_fit
from .models import MODEL_REGISTRY, build_model
from .samplers import NoiseSpec, RngStream
from .sde import ObservationSeries, simulate_fine, thin
from .sqlik import SCREEN, OptimizerConfig, fit as fit_series
from .stable_core import StableKernel

_SIMULATE_DEFAULTS = {"stable": {"beta": 1.5}, "nig": {"eta": 5.0}}


def _fmt(x: float) -> str:
    return repr(float(x))


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base random seed")


def _level(text: str) -> float:
    """A confidence level: a number strictly between 0 and 1."""
    try:
        level = float(text)
    except ValueError:
        level = np.nan
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"confidence level must be in (0, 1), got {text!r}")
    return level


class _Parser(argparse.ArgumentParser):
    """Command-line errors are usage errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stableql",
        description="Stable quasi-likelihood estimation for Levy-driven SDEs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print C_alpha(beta), C_gamma(beta)")
    p.add_argument("--beta", type=float, required=True, help="stability index in [1,2)")

    p = sub.add_parser("simulate", help="simulate one observed path to CSV")
    p.add_argument("--model", default="nonlinear-1d",
                   help=f"model name, one of {sorted(MODEL_REGISTRY)}")
    p.add_argument("--noise-kind", choices=sorted(_SIMULATE_DEFAULTS), default="stable")
    p.add_argument("--beta", type=float, default=None, help="stable noise index, default 1.5")
    p.add_argument("--eta", type=float, default=None, help="NIG steepness, default 5")
    p.add_argument("--T", type=float, default=5.0, help="time horizon")
    p.add_argument("--n", type=int, default=500, help="number of observations")
    p.add_argument("--fine-factor", type=int, default=50,
                   help="Euler sub-steps per observation interval")
    p.add_argument("--x0", type=float, default=0.0, help="initial value")
    p.add_argument("--out", required=True, help="output CSV path (columns t,x)")
    _add_seed(p)

    p = sub.add_parser("fit", help="fit the stable quasi-MLE to a path CSV")
    p.add_argument("--data", required=True, help="input CSV with columns t,x")
    model = p.add_mutually_exclusive_group()
    model.add_argument("--model", default="nonlinear-1d",
                       help=f"model name, one of {sorted(MODEL_REGISTRY)}")
    model.add_argument("--model-config", default=None,
                       help="YAML mapping with drift/scale/p_alpha/p_gamma/bounds "
                            "for an expression model")
    p.add_argument("--beta", type=float, required=True, help="index used by the estimator")
    p.add_argument("--restarts", type=int, default=10,
                   help=f"ascents, from the best of max({SCREEN}, RESTARTS) screened starts")
    p.add_argument("--level", type=_level, default=0.95, help="confidence level in (0, 1)")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    _add_seed(p)

    p = sub.add_parser("mc", help="run a Monte Carlo study")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    src.add_argument("--config", help="YAML experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--replicates", type=int, default=None, help="same as --set replicates=N")
    p.add_argument("--workers", type=int, default=None, help="parallel worker count")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted config override, repeatable")
    p.add_argument("--seed", type=int, default=None, help="same as --set base_seed=N")

    p = sub.add_parser("llt", help="local limit L1 distances and rate fit")
    p.add_argument("--config", default=None,
                   help="YAML local-limit config; the driver comes from its cf: section "
                        "or from --set cf.kind=... (one of the two is needed)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted config override, repeatable")

    return parser


def _cmd_constants(args) -> int:
    kernel = StableKernel(args.beta)
    const = kernel.info_constants()
    print(f"{args.beta:g},{const.c_alpha!r},{const.c_gamma!r}")
    return 0


def _cmd_simulate(args) -> int:
    model = build_model(args.model)
    given = {name: value for name, value in (("beta", args.beta), ("eta", args.eta))
             if value is not None}
    noise = NoiseSpec(args.noise_kind, **{**_SIMULATE_DEFAULTS[args.noise_kind], **given})
    rng = RngStream(args.seed, 0)
    fine = simulate_fine(model, noise, args.T, args.n * args.fine_factor, args.x0, rng)
    obs = thin(fine, args.fine_factor)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x"])
        for t, x in zip(obs.times, obs.x):
            writer.writerow([_fmt(t), _fmt(x)])
    print(f"wrote {obs.n + 1} observations to {out}")
    return 0


def _read_series(path: str) -> ObservationSeries:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"data file not found: {p}")
    try:
        reader = csv.DictReader(p.read_text().splitlines())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read data file {p}: {exc}") from exc
    if reader.fieldnames is None or {"t", "x"} - set(reader.fieldnames):
        raise UsageError(f"{p} must have columns t,x")
    rows = []
    for r in reader:
        if None in r:
            raise UsageError(
                f"{p} line {reader.line_num}: {len(reader.fieldnames) + len(r[None])} "
                f"fields, but the header has {len(reader.fieldnames)}"
            )
        try:
            rows.append((float(r["t"]), float(r["x"])))
        except (TypeError, ValueError) as exc:
            raise UsageError(
                f"{p} line {reader.line_num}: t and x must be numbers, "
                f"got t={r['t']!r}, x={r['x']!r}"
            ) from exc
    if len(rows) < 2:
        raise UsageError(f"{p} needs at least 2 observations")
    t = np.array([r[0] for r in rows])
    x = np.array([r[1] for r in rows])
    steps = np.diff(t)
    if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, steps[0]):
        raise UsageError(f"{p} must be sampled on an equidistant time grid")
    return ObservationSeries(x=x, h=float(steps[0]))


def _cmd_fit(args) -> int:
    opt = OptimizerConfig(restarts=args.restarts)
    obs = _read_series(args.data)
    if args.model_config:
        name, kwargs = _model(load_config(args.model_config))
        model = build_model(name, **dict(kwargs))
    else:
        model = build_model(args.model)
    kernel = StableKernel(args.beta)
    result = fit_series(obs, model, args.beta, kernel, opt, RngStream(args.seed, 0))
    pivots = studentize(obs, model, result.theta_hat, result.theta_hat, kernel)
    ci = confidence_intervals(pivots, args.level)
    report = {
        "model": model.describe(),
        "beta": args.beta,
        "n": obs.n,
        "h": obs.h,
        "theta_hat": [float(v) for v in result.theta_hat.full],
        "loglik": result.loglik,
        "score_norm": result.score_norm,
        "converged": result.converged,
        "restarts": result.restarts_used,
        "n_evals": result.n_evals,
        "restarts_agreeing": result.restarts_agreeing,
        "confidence_level": args.level,
        "confidence_intervals": [[float(a), float(b)] for a, b in ci],
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote fit report to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_mc(args) -> int:
    if args.preset:
        cfg_dict = {"preset": args.preset}
    else:
        cfg_dict = load_config(args.config)
    overrides = list(args.overrides)
    if args.replicates is not None:
        overrides.append(f"replicates={args.replicates}")
    if args.seed is not None:
        overrides.append(f"base_seed={args.seed}")
    config = experiment_from_config(apply_overrides(cfg_dict, overrides))
    out = run_experiment(config, args.out, workers=args.workers)
    print(f"wrote Monte Carlo results to {out}")
    return 0


def _cmd_llt(args) -> int:
    cfg_dict = load_config(args.config) if args.config else {}
    cfg_dict = apply_overrides(cfg_dict, args.overrides)
    cf, h_values, grid = llt_from_config(cfg_dict)
    kernel = StableKernel(cf.beta)
    result = rate_fit(cf, kernel, h_values, grid=grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "l1.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "l1"])
        for h, d in zip(result.h_values, result.l1_values):
            writer.writerow([_fmt(h), _fmt(d)])
    summary = {
        "kind": cf.kind,
        "beta": cf.beta,
        "slope": None if np.isnan(result.slope) else float(result.slope),
        "intercept": None if np.isnan(result.intercept) else float(result.intercept),
        "excluded_h": [float(h) for h in result.excluded_h],
    }
    (out / "rate.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote local-limit results to {out}")
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "mc": _cmd_mc,
    "llt": _cmd_llt,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StableQLError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
