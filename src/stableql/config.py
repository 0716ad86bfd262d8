"""YAML experiment configuration: loading, overrides, and validation.

Configs are plain YAML mappings, read by one loader for files and for
dotted ``section.key=value`` overrides alike, so ``true``, ``[1, 2]`` and
bare scientific notation such as ``1e-3`` (a float here, a string in plain
YAML 1.1) mean the same in both.  Every section is checked against one key
table, ``_FIELDS``: a section that is not a mapping, an unknown key, a
missing required key or a value of the wrong type raises UsageError naming
the section and key (exit 1 in the CLI).  A null value counts as an absent
key, so ``--set h_values=null`` removes an entry.  ``stableql mc
--replicates N --seed S`` are the overrides ``replicates=N`` and
``base_seed=S``, applied after every ``--set``.

Monte Carlo config keys (see also the shipped presets):

    preset: name                 start from a named preset, then override
    model: registry name, or a mapping with drift/scale/p_alpha/p_gamma/
           bounds/theta_true (and optionally name) for expression models
    noise: {kind: stable|nig, beta: ..., eta: ...}
    designs: list of {T, n, fine_factor}
    replicates, base_seed, beta_fit, x0
    optimizer: {restarts, init_windows}

A section given in the config replaces the preset's section as a whole.
Without a preset, model, noise, designs and beta_fit are required.

Local-limit config keys:

    cf: {kind: stable|tempered_stable|gh_nig, beta, lambda_tempering,
         gh_lambda, gh_eta}
    h_values: explicit list, or h_grid: {start, stop, count} in log10 units
    grid: {half_width, spacing}
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .errors import StableQLError, UsageError
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


class _Loader(yaml.SafeLoader):
    """Safe YAML loading that also reads bare scientific notation (5e0) as a float."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _parse(text: str, what: str):
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise UsageError(f"cannot parse {what}: {exc}") from exc


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    data = _parse(path.read_text(), f"config {path}")
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
        value = _parse(raw, f"override value {raw!r}")
        node = out
        for key in keys[:-1]:
            child = node.get(key)
            node[key] = dict(child) if isinstance(child, dict) else {}
            node = node[key]
        node[keys[-1]] = value
    return out


def _section(value, where: str, required=()) -> dict:
    """Read a config mapping through the readers of _FIELDS[where].

    Null values count as absent.  Returns {key: read value} for the keys
    present; raises UsageError naming the section and key otherwise.
    """
    if not isinstance(value, dict):
        raise UsageError(f"{where} must be a mapping, got {type(value).__name__}")
    readers = _FIELDS[where]
    for key in value:
        if key not in readers:
            raise UsageError(f"unknown config key {key!r} in {where}")
    present = {key: raw for key, raw in value.items() if raw is not None}
    for key in required:
        if key not in present:
            raise UsageError(f"{where} needs a {key!r} entry")
    fields = {}
    for key, raw in present.items():
        try:
            fields[key] = readers[key](raw)
        except StableQLError:
            raise
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise UsageError(f"bad value for {key!r} in {where}: {exc}") from exc
    return fields


def _floats(value) -> tuple[float, ...]:
    return tuple(float(v) for v in value)


def _pairs(value) -> tuple[tuple[float, float], ...]:
    return tuple((float(lo), float(hi)) for lo, hi in value)


def _model(value) -> tuple[str | None, tuple]:
    """(registry name, sorted build_model keyword arguments) of a model entry."""
    if isinstance(value, str):
        return value, ()
    fields = _section(value, "model")
    return fields.pop("name", None), tuple(sorted(fields.items()))


def _designs(value) -> tuple[Design, ...]:
    return tuple(
        Design(**_section(item, "designs", required=_FIELDS["designs"]))
        for item in value
    )


def _h_grid(value) -> list:
    spec = _section(value, "h_grid", required=_FIELDS["h_grid"])
    return list(10.0 ** np.linspace(spec["start"], spec["stop"], spec["count"]))


_FIELDS = {
    "mc config": {
        "preset": preset_config,
        "model": _model,
        "noise": lambda v: NoiseSpec(**_section(v, "noise", required=("kind",))),
        "designs": _designs,
        "replicates": int,
        "base_seed": int,
        "beta_fit": float,
        "x0": float,
        "optimizer": lambda v: OptimizerConfig(**_section(v, "optimizer")),
    },
    "llt config": {
        "cf": lambda v: CfModel(**_section(v, "cf", required=("kind", "beta"))),
        "h_values": _floats,
        "h_grid": _h_grid,
        "grid": lambda v: make_grid(**_section(v, "grid")),
    },
    "model": {
        "name": str, "drift": str, "scale": str, "p_alpha": int, "p_gamma": int,
        "bounds": _pairs, "theta_true": _floats,
    },
    "noise": {"kind": str, "beta": float, "eta": float},
    "designs": {"T": float, "n": int, "fine_factor": int},
    "optimizer": {"restarts": int, "init_windows": _pairs},
    "cf": {
        "kind": str, "beta": float,
        "lambda_tempering": float, "gh_lambda": float, "gh_eta": float,
    },
    "h_grid": {"start": float, "stop": float, "count": int},
    "grid": {"half_width": float, "spacing": float},
}


def experiment_from_config(cfg: dict) -> ExperimentConfig:
    """Build an ExperimentConfig, starting from a preset when one is named."""
    has_preset = isinstance(cfg, dict) and cfg.get("preset") is not None
    required = () if has_preset else ("model", "noise", "designs", "beta_fit")
    fields = _section(cfg, "mc config", required)
    base = fields.pop("preset", None)
    if "model" in fields:
        fields["model_name"], fields["model_kwargs"] = fields.pop("model")
    if base is not None:
        return replace(base, **fields)
    return ExperimentConfig(**{"replicates": 200, "base_seed": 0, **fields})


def llt_from_config(cfg: dict):
    """Returns (CfModel, h_values list, grid array) for the llt subcommand."""
    fields = _section(cfg, "llt config", required=("cf",))
    if "h_values" in fields:
        h_values = list(fields["h_values"])
    elif "h_grid" in fields:
        h_values = fields["h_grid"]
    else:
        h_values = list(10.0 ** np.linspace(-1.0, -3.0, 6))
    grid = fields["grid"] if "grid" in fields else make_grid()
    return fields["cf"], h_values, grid
