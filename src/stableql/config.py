"""YAML experiment configuration: loading, overrides, and validation.

Configs are plain YAML mappings.  Unknown keys are rejected by name so that
typos fail loudly instead of silently falling back to defaults.  Values can
be overridden from the command line with dotted ``section.key=value`` pairs;
override values are parsed with the YAML scalar rules, so ``true``, ``1e-3``
and ``[1, 2]`` all work.

Monte Carlo config keys (see also the shipped presets):

    preset: name                 start from a named preset, then override
    model: registry name, or a mapping with drift/scale/p_alpha/p_gamma/
           bounds/theta_true for expression models
    noise: {kind: stable|nig, beta: ..., eta: ...}
    designs: list of {T, n, fine_factor}
    replicates, base_seed, beta_fit, x0
    optimizer: {restarts, init_windows}

Local-limit config keys:

    cf: {kind: stable|tempered_stable|gh_nig, beta, lambda_tempering,
         gh_lambda, gh_eta}
    h_values: explicit list, or h_grid: {start, stop, count} in log10 units
    grid: {half_width, spacing}
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from .errors import UsageError
from .harness import Design, ExperimentConfig, preset_config
from .llt import CfModel, make_grid
from .samplers import NoiseSpec
from .sqlik import OptimizerConfig

__all__ = [
    "load_config",
    "apply_overrides",
    "experiment_from_config",
    "llt_from_config",
]


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise UsageError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must be a mapping, got {type(data).__name__}")
    return data


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply dotted key=value overrides, creating nested sections as needed."""
    out = dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"override {item!r} must have the form key=value")
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        if not all(keys):
            raise UsageError(f"override {item!r} has an empty key component")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise UsageError(f"cannot parse override value {raw!r}: {exc}") from exc
        if isinstance(value, str):
            # YAML leaves bare scientific notation like 1e-3 as a string
            try:
                value = int(value)
            except ValueError:
                try:
                    value = float(value)
                except ValueError:
                    pass
        node = out
        for key in keys[:-1]:
            child = node.get(key)
            node[key] = dict(child) if isinstance(child, dict) else {}
            node = node[key]
        node[keys[-1]] = value
    return out


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r} in {where}")


def _noise_from(section) -> NoiseSpec:
    if not isinstance(section, dict):
        raise UsageError("noise must be a mapping with a 'kind' key")
    _check_keys(section, {"kind", "beta", "eta"}, "noise")
    return NoiseSpec(
        kind=section.get("kind", ""),
        beta=section.get("beta"),
        eta=section.get("eta"),
    )


def _optimizer_from(section) -> OptimizerConfig:
    _check_keys(section, {"restarts", "init_windows"}, "optimizer")
    kwargs = dict(section)
    if "init_windows" in kwargs and kwargs["init_windows"] is not None:
        kwargs["init_windows"] = tuple(
            (float(lo), float(hi)) for lo, hi in kwargs["init_windows"]
        )
    return OptimizerConfig(**kwargs)


def _designs_from(items) -> tuple[Design, ...]:
    designs = []
    for item in items:
        _check_keys(item, {"T", "n", "fine_factor"}, "designs")
        missing = {"T", "n", "fine_factor"} - set(item)
        if missing:
            raise UsageError(f"design entry missing key {sorted(missing)[0]!r}")
        designs.append(
            Design(T=float(item["T"]), n=int(item["n"]), fine_factor=int(item["fine_factor"]))
        )
    return tuple(designs)


_MC_KEYS = {
    "preset", "model", "noise", "designs", "replicates",
    "base_seed", "beta_fit", "x0", "optimizer",
}
_MODEL_KEYS = {"drift", "scale", "p_alpha", "p_gamma", "bounds", "theta_true", "name"}


def experiment_from_config(cfg: dict) -> ExperimentConfig:
    """Build an ExperimentConfig, starting from a preset when one is named."""
    _check_keys(cfg, _MC_KEYS, "config")
    base = preset_config(cfg["preset"]) if "preset" in cfg else None

    if "model" in cfg:
        model = cfg["model"]
        if isinstance(model, str):
            model_name, model_kwargs = model, ()
        elif isinstance(model, dict):
            _check_keys(model, _MODEL_KEYS, "model")
            kwargs = dict(model)
            if "bounds" in kwargs:
                kwargs["bounds"] = tuple(tuple(map(float, b)) for b in kwargs["bounds"])
            if kwargs.get("theta_true") is not None:
                kwargs["theta_true"] = tuple(float(t) for t in kwargs["theta_true"])
            model_name = kwargs.pop("name", None)
            model_kwargs = tuple(sorted(kwargs.items()))
        else:
            raise UsageError("model must be a registry name or a mapping")
    elif base is not None:
        model_name, model_kwargs = base.model_name, base.model_kwargs
    else:
        raise UsageError("config needs a 'model' (or a 'preset')")

    def pick(key, fallback, builder=None):
        if key in cfg:
            return builder(cfg[key]) if builder else cfg[key]
        if base is not None:
            return getattr(base, key)
        if fallback is _REQUIRED:
            raise UsageError(f"config needs a {key!r} entry")
        return fallback

    return ExperimentConfig(
        model_name=model_name,
        model_kwargs=model_kwargs,
        noise=pick("noise", _REQUIRED, _noise_from),
        designs=pick("designs", _REQUIRED, _designs_from),
        replicates=int(pick("replicates", 200)),
        base_seed=int(pick("base_seed", 0)),
        beta_fit=float(pick("beta_fit", _REQUIRED)),
        x0=float(pick("x0", 0.0)),
        optimizer=pick("optimizer", OptimizerConfig(), _optimizer_from),
    )


_REQUIRED = object()

_LLT_KEYS = {"cf", "h_values", "h_grid", "grid"}
_CF_KEYS = {"kind", "beta", "lambda_tempering", "gh_lambda", "gh_eta"}


def llt_from_config(cfg: dict):
    """Returns (CfModel, h_values list, grid array) for the llt subcommand."""
    _check_keys(cfg, _LLT_KEYS, "config")
    if "cf" not in cfg:
        raise UsageError("config needs a 'cf' section")
    _check_keys(cfg["cf"], _CF_KEYS, "cf")
    cf = CfModel(
        kind=cfg["cf"].get("kind", ""),
        beta=float(cfg["cf"].get("beta", 0.0)),
        lambda_tempering=cfg["cf"].get("lambda_tempering"),
        gh_lambda=cfg["cf"].get("gh_lambda"),
        gh_eta=cfg["cf"].get("gh_eta"),
    )
    if cfg.get("h_values") is not None:
        h_values = [float(h) for h in cfg["h_values"]]
    elif cfg.get("h_grid") is not None:
        spec = cfg["h_grid"]
        _check_keys(spec, {"start", "stop", "count"}, "h_grid")
        h_values = list(
            10.0 ** np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["count"]))
        )
    else:
        h_values = list(10.0 ** np.linspace(-1.0, -3.0, 6))
    grid_spec = cfg.get("grid", {})
    _check_keys(grid_spec, {"half_width", "spacing"}, "grid")
    grid = make_grid(
        half_width=float(grid_spec.get("half_width", 60.0)),
        spacing=float(grid_spec.get("spacing", 1e-2)),
    )
    return cf, h_values, grid
