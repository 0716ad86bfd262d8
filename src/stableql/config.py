"""YAML experiment configuration: presets, loading, overrides, and validation.

Configs are plain YAML mappings, read by one loader for files and for
dotted ``section.key=value`` overrides alike, so ``true``, ``[1, 2]`` and
bare scientific notation such as ``1e-3`` (a float here, a string in plain
YAML 1.1) mean the same in both.  Every section is checked against one key
table, ``_FIELDS``: a section that is not a mapping, an unknown key, a
missing required key or a value of the wrong type raises UsageError naming
the section and key (exit 1 in the CLI).  A null value counts as an absent
key, so ``--set h_values=null`` removes an entry.  Integer keys take ints
and integral floats such as ``1e3``; a boolean or a fraction is an error.
``stableql mc --replicates N --seed S`` are the overrides ``replicates=N``
and ``base_seed=S``, applied after every ``--set``.

Monte Carlo config keys (see also the shipped presets):

    preset: name                 start from a named preset, then override
    model: registry name, or a mapping with drift/scale/p_alpha/p_gamma/
           bounds/theta_true (and optionally name) for expression models
    noise: driver mapping, as cf below; its kind must have a sampler
    designs: list of {T, n, fine_factor}
    replicates, base_seed, beta_fit, x0
    optimizer: {restarts, init_windows}

The presets in ``PRESETS`` are config mappings in this vocabulary, and a
named preset is read as its mapping under the config's non-null keys, so a
section given in a config file replaces the preset's section as a whole.
``apply_overrides`` expands the preset of its base mapping first, so a
``--set`` key changes that one key of the preset's section.  Model, noise,
designs and beta_fit are required, from the preset or the config.

Local-limit config keys:

    cf: {kind: stable|nig|tempered_stable|gh_nig, beta, eta,
         lambda_tempering, gh_lambda, gh_eta}, read by samplers.NoiseSpec
    h_values: a list, or h_grid: {start, stop, count} in log10 units; not both
    grid: {half_width, spacing}

PyYAML is imported by the first parse of config text, not by this module, so
configs built as mappings (presets, the benchmark's) never load it.
"""

from __future__ import annotations

import dataclasses
import re
from functools import cache
from pathlib import Path

import numpy as np

from .errors import StableQLError, UsageError
from .harness import Design, ExperimentConfig
from .llt import make_grid
from .models import MODEL_REGISTRY
from .samplers import NoiseSpec
from .sqlik import OptimizerConfig

__all__ = [
    "PRESETS",
    "preset_config",
    "load_config",
    "apply_overrides",
    "experiment_from_config",
    "llt_from_config",
]


def _preset(model: str, base_seed: int, study: dict) -> dict:
    """200 replicates of a study; each fit screens sqlik.SCREEN starts drawn
    in theta_true +- 10 and ascends from the best 2."""
    windows = [[t - 10.0, t + 10.0] for t in MODEL_REGISTRY[model]["theta_true"]]
    return {
        "model": model, **study, "replicates": 200, "base_seed": base_seed,
        "optimizer": {"restarts": 2, "init_windows": windows},
    }


_NIG = {
    "noise": {"kind": "nig", "eta": 5.0},
    "designs": [{"T": 1.0, "n": n, "fine_factor": 150000 // n} for n in (500, 1000, 3000)],
    "beta_fit": 1.0,
}
_STABLE15 = {
    "noise": {"kind": "stable", "beta": 1.5},
    "designs": [
        {"T": T, "n": n, "fine_factor": 25000 // n}
        for T in (5.0, 10.0) for n in (100, 200, 500)
    ],
    "beta_fit": 1.5,
}

PRESETS = {
    "nig-1d": _preset("nonlinear-1d", 202501, _NIG),
    "nig-2d": _preset("nonlinear-2d", 202502, _NIG),
    "stable15-1d": _preset("nonlinear-1d", 202503, _STABLE15),
    "stable15-2d": _preset("nonlinear-2d", 202504, _STABLE15),
}


def _over_preset(cfg):
    """cfg's non-null keys over the mapping of the preset it names.

    The ``preset`` key itself is dropped; without one, cfg is returned as it
    is, and so is a cfg that is not a mapping.
    """
    if not isinstance(cfg, dict):
        return cfg
    name = cfg.get("preset")
    given = {key: value for key, value in cfg.items() if key != "preset"}
    if name is None:
        return given
    if not isinstance(name, str) or name not in PRESETS:
        raise UsageError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return {**PRESETS[name], **{key: v for key, v in given.items() if v is not None}}


@cache
def _loader():
    """Safe YAML loader that also reads bare scientific notation (5e0) as a float."""
    import yaml

    class _Loader(yaml.SafeLoader):
        pass

    _Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return _Loader


def _parse(text: str, what: str):
    import yaml

    try:
        return yaml.load(text, Loader=_loader())
    except yaml.YAMLError as exc:
        raise UsageError(f"cannot parse {what}: {exc}") from exc


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    data = _parse(text, f"config {path}")
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must be a mapping, got {type(data).__name__}")
    return data


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply dotted key=value overrides, creating nested sections as needed.

    A preset named in cfg is expanded first, so an override changes one key
    of the preset's mapping.
    """
    out = _over_preset(cfg)
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


def _int(value) -> int:
    """An int, or a float with an integral value such as 1e3; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


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


# The one key table of the noise: and cf: sections: NoiseSpec's fields.
_DRIVER_KEYS = {f.name: str if f.name == "kind" else float for f in dataclasses.fields(NoiseSpec)}

_FIELDS = {
    "mc config": {
        "model": _model,
        "noise": lambda v: NoiseSpec(**_section(v, "noise", required=("kind",))),
        "designs": _designs,
        "replicates": _int,
        "base_seed": _int,
        "beta_fit": float,
        "x0": float,
        "optimizer": lambda v: OptimizerConfig(**_section(v, "optimizer")),
    },
    "llt config": {
        "cf": lambda v: NoiseSpec(**_section(v, "cf", required=("kind",))),
        "h_values": _floats,
        "h_grid": _h_grid,
        "grid": lambda v: make_grid(**_section(v, "grid")),
    },
    "model": {
        "name": str, "drift": str, "scale": str, "p_alpha": _int, "p_gamma": _int,
        "bounds": _pairs, "theta_true": _floats,
    },
    "noise": _DRIVER_KEYS,
    "designs": {"T": float, "n": _int, "fine_factor": _int},
    "optimizer": {"restarts": _int, "init_windows": _pairs},
    "cf": _DRIVER_KEYS,
    "h_grid": {"start": float, "stop": float, "count": _int},
    "grid": {"half_width": float, "spacing": float},
}


def experiment_from_config(cfg: dict) -> ExperimentConfig:
    """Build an ExperimentConfig, starting from a preset when one is named."""
    fields = _section(
        _over_preset(cfg), "mc config", required=("model", "noise", "designs", "beta_fit")
    )
    fields["model_name"], fields["model_kwargs"] = fields.pop("model")
    return ExperimentConfig(**{"replicates": 200, "base_seed": 0, **fields})


def preset_config(name: str) -> ExperimentConfig:
    return experiment_from_config({"preset": name})


def llt_from_config(cfg: dict):
    """Returns (NoiseSpec, h_values list, grid array) for the llt subcommand."""
    fields = _section(cfg, "llt config")
    if "cf" not in fields:
        raise UsageError(
            "llt needs a driver: a 'cf' section in the config (--config), such as "
            "cf: {kind: stable, beta: 1.5}, or its keys set one by one, such as "
            "--set cf.kind=stable --set cf.beta=1.5"
        )
    given = [fields[key] for key in ("h_values", "h_grid") if key in fields]
    if len(given) > 1:
        raise UsageError("llt config takes h_values or h_grid, not both")
    h_values = list(given[0] if given else 10.0 ** np.linspace(-1.0, -3.0, 6))
    grid = fields["grid"] if "grid" in fields else make_grid()
    return fields["cf"], h_values, grid
