"""Config loading, overrides, and validation."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stableql.config import (
    apply_overrides,
    experiment_from_config,
    llt_from_config,
    load_config,
)
from stableql.errors import UsageError


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_not_a_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(UsageError, match="mapping"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text("preset: nig-1d\nreplicates: 10\n")
        assert load_config(path) == {"preset": "nig-1d", "replicates": 10}

    def test_bare_scientific_notation_is_float(self, tmp_path):
        path = tmp_path / "nig.yaml"
        path.write_text("preset: nig-1d\nnoise: {kind: nig, eta: 5e0}\n")
        from_file = experiment_from_config(load_config(path))
        from_set = experiment_from_config(
            apply_overrides({"preset": "nig-1d"}, ["noise.kind=nig", "noise.eta=5e0"])
        )
        assert from_file.noise.eta == 5.0
        assert repr(from_file) == repr(from_set)


class TestOverrides:
    def test_scalar_and_nested(self):
        cfg = apply_overrides({"a": 1}, ["a=2", "b.c=1e-3", "b.d=[1, 2]"])
        assert cfg["a"] == 2
        assert cfg["b"]["c"] == 1e-3
        assert cfg["b"]["d"] == [1, 2]

    def test_bad_format(self):
        with pytest.raises(UsageError, match="key=value"):
            apply_overrides({}, ["novalue"])

    def test_empty_key(self):
        with pytest.raises(UsageError, match="empty key"):
            apply_overrides({}, ["a..b=1"])


class TestExperimentFromConfig:
    def test_preset_with_overrides(self):
        config = experiment_from_config(
            {"preset": "nig-1d", "replicates": 7, "base_seed": 3}
        )
        assert config.replicates == 7
        assert config.base_seed == 3
        assert config.model_name == "nonlinear-1d"
        assert config.noise.kind == "nig"

    def test_full_explicit(self):
        config = experiment_from_config(
            {
                "model": "nonlinear-1d",
                "noise": {"kind": "stable", "beta": 1.5},
                "designs": [{"T": 5.0, "n": 100, "fine_factor": 50}],
                "beta_fit": 1.5,
                "replicates": 4,
            }
        )
        assert config.designs[0].n_fine == 5000
        assert config.beta_fit == 1.5

    def test_expression_model(self):
        config = experiment_from_config(
            {
                "model": {
                    "drift": "a1*x",
                    "scale": "exp(g1)",
                    "p_alpha": 1,
                    "p_gamma": 1,
                    "bounds": [[-3, 1], [-2, 2]],
                    "theta_true": [-1.0, 0.0],
                },
                "noise": {"kind": "stable", "beta": 1.5},
                "designs": [{"T": 1.0, "n": 50, "fine_factor": 10}],
                "beta_fit": 1.5,
            }
        )
        model = config.build_model()
        assert model.p == 2
        assert np.allclose(model.theta_true.full, [-1.0, 0.0])

    def test_unknown_top_level_key_named(self):
        with pytest.raises(UsageError, match="'replicate'"):
            experiment_from_config({"preset": "nig-1d", "replicate": 5})

    def test_unknown_noise_key_named(self):
        with pytest.raises(UsageError, match="'kappa'"):
            experiment_from_config(
                {"preset": "nig-1d", "noise": {"kind": "nig", "kappa": 1}}
            )

    def test_unknown_optimizer_key_named(self):
        with pytest.raises(UsageError, match="'method'"):
            experiment_from_config(
                {"preset": "nig-1d", "optimizer": {"method": "nelder-mead"}}
            )

    def test_missing_required(self):
        with pytest.raises(UsageError, match="model"):
            experiment_from_config({"beta_fit": 1.0})

    def test_design_missing_key(self):
        with pytest.raises(UsageError, match="fine_factor"):
            experiment_from_config(
                {
                    "model": "nonlinear-1d",
                    "noise": {"kind": "nig", "eta": 5.0},
                    "designs": [{"T": 1.0, "n": 50}],
                    "beta_fit": 1.0,
                }
            )

    def test_optimizer_section(self):
        config = experiment_from_config(
            {
                "preset": "stable15-1d",
                "optimizer": {"restarts": 5, "init_windows": [[-2, 0], [1, 2]]},
            }
        )
        assert config.optimizer.restarts == 5
        assert config.optimizer.init_windows == ((-2.0, 0.0), (1.0, 2.0))


class TestLltFromConfig:
    def test_defaults(self):
        cf, h_values, grid = llt_from_config(
            {"cf": {"kind": "tempered_stable", "beta": 1.5, "lambda_tempering": 1.0}}
        )
        assert cf.kind == "tempered_stable"
        assert len(h_values) == 6
        assert h_values[0] == pytest.approx(0.1)
        assert h_values[-1] == pytest.approx(1e-3)
        assert grid[0] == -60.0 and grid[-1] == 60.0

    def test_h_grid(self):
        _, h_values, _ = llt_from_config(
            {
                "cf": {"kind": "stable", "beta": 1.2},
                "h_grid": {"start": -1, "stop": -4, "count": 4},
            }
        )
        assert np.allclose(h_values, [1e-1, 1e-2, 1e-3, 1e-4])

    def test_missing_cf(self):
        with pytest.raises(UsageError, match="cf"):
            llt_from_config({})

    def test_unknown_cf_key(self):
        with pytest.raises(UsageError, match="'mu'"):
            llt_from_config({"cf": {"kind": "stable", "beta": 1.5, "mu": 0}})


_STABLE = {"kind": "stable", "beta": 1.5}


@pytest.mark.parametrize(
    "build, cfg, named",
    [
        (experiment_from_config, {"preset": "nig-1d", "designs": [5]}, "designs"),
        (experiment_from_config, {"preset": "nig-1d", "optimizer": 3}, "optimizer"),
        (llt_from_config, {"cf": _STABLE, "grid": 5}, "grid"),
        (llt_from_config, {"cf": _STABLE, "h_grid": {"start": -1}}, "'stop'"),
        (
            experiment_from_config,
            apply_overrides({"preset": "nig-1d"}, ["optimizer.restarts=x"]),
            "'restarts'",
        ),
        (llt_from_config, {"cf": "stable"}, "cf"),
    ],
)
def test_malformed_input_names_key(build, cfg, named):
    with pytest.raises(UsageError, match=named):
        build(cfg)


# A valid MC config is generated as a tree whose numeric leaves carry both
# their YAML spelling and their value, so the same config can be handed over
# as a dict, as a YAML file and as --set overrides.
class _Num(NamedTuple):
    text: str
    value: float


def _number(lo: int, hi: int, exponents=(-2, -1, 0)):
    """m * 10**e, spelled in bare scientific notation or as its repr."""
    def spell(m, e, sci):
        value = float(f"{m}e{e}")
        return _Num(f"{m}e{e}" if sci else repr(value), value)

    return st.builds(spell, st.integers(lo, hi), st.sampled_from(exponents), st.booleans())


def _integer(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda i: _Num(str(i), i))


_DESIGN = st.fixed_dictionaries(
    {"T": _number(1, 20, (-1, 0)), "n": _integer(1, 500), "fine_factor": _integer(1, 50)}
)
_NOISE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("stable"), "beta": _number(1, 19, (-1,))}),
    st.fixed_dictionaries({"kind": st.just("nig"), "eta": _number(1, 99, (-1, 0))}),
)
_OPTIMIZER = st.fixed_dictionaries(
    {"restarts": _integer(1, 20)},
    optional={"init_windows": st.lists(st.lists(_number(-99, 99), min_size=2, max_size=2),
                                       min_size=1, max_size=4)},
)
_OPTIONAL = {
    "replicates": _integer(1, 1000),
    "base_seed": _integer(0, 2**31 - 1),
    "x0": _number(-99, 99),
    "optimizer": _OPTIMIZER,
}
_REQUIRED = {
    "noise": _NOISE,
    "designs": st.lists(_DESIGN, min_size=1, max_size=3,
                        unique_by=lambda d: (d["T"].value, d["n"].value)),
    "beta_fit": _number(10, 19, (-1,)),
}
_MC_CONFIG = st.one_of(
    st.fixed_dictionaries(
        {"preset": st.sampled_from(["nig-1d", "nig-2d", "stable15-1d", "stable15-2d"])},
        optional={**_REQUIRED, **_OPTIONAL},
    ),
    st.fixed_dictionaries(
        {"model": st.sampled_from(["nonlinear-1d", "nonlinear-2d"]), **_REQUIRED},
        optional=_OPTIONAL,
    ),
)


def _value(node):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, dict):
        return {key: _value(v) for key, v in node.items()}
    if isinstance(node, list):
        return [_value(v) for v in node]
    return node


def _flow(node) -> str:
    if isinstance(node, _Num):
        return node.text
    if isinstance(node, dict):
        return "{" + ", ".join(f"{key}: {_flow(v)}" for key, v in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_flow(v) for v in node) + "]"
    return node


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_MC_CONFIG)
def test_dict_file_and_overrides_agree(cfg, tmp_path):
    from_dict = experiment_from_config(_value(cfg))

    path = tmp_path / "cfg.yaml"
    path.write_text("".join(f"{key}: {_flow(v)}\n" for key, v in cfg.items()))
    from_file = experiment_from_config(load_config(path))

    overrides = []
    for key, node in cfg.items():
        if isinstance(node, dict):
            overrides += [f"{key}.{sub}={_flow(v)}" for sub, v in node.items()]
        else:
            overrides.append(f"{key}={_flow(node)}")
    from_set = experiment_from_config(apply_overrides({}, overrides))

    assert repr(from_file) == repr(from_dict)
    assert repr(from_set) == repr(from_dict)
