"""The benchmark's traced run wraps program attributes by name.

``bench/tracer.py`` replaces, for instance, ``ModelSpec.scale`` and
``harness.studentize`` with recording wrappers.  Installing it here makes a
renamed or deleted traced attribute fail the test suite, not only the traced
benchmark run.  The benchmark's files are read, never changed.
"""

import importlib
from pathlib import Path

import numpy as np

from stableql.llt import make_grid, rate_fit
from stableql.samplers import NoiseSpec
from stableql.stable_core import StableKernel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    targets = tracer._targets()
    originals = [owner.__dict__[name] for owner, name, _, _ in targets]
    hooks = tracer.Tracer()
    try:
        hooks.install()
        for owner, name, _, _ in targets:
            assert hasattr(owner.__dict__[name], "__wrapped__"), name
    finally:
        hooks.uninstall()
    for (owner, name, _, _), original in zip(targets, originals):
        assert owner.__dict__[name] is original, name


def test_traced_lab_exercises_every_llt_layer(monkeypatch):
    # The traced llt-rates run fails when one of these metrics reads 0, for
    # instance when invert_density stops calling llt._panel_nodes.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    spec = importlib.import_module("spec")
    tiny = spec.settings("llt-rates", tiny=True)
    hooks = tracer.Tracer()
    try:
        hooks.install()
        kernel = StableKernel(1.5)
        setup_spans = hooks.take()
        cf = NoiseSpec("tempered_stable", 1.5, lambda_tempering=1.0)
        h_values = 10.0 ** np.linspace(-1.0, -3.0, tiny["h_count"])
        rate_fit(cf, kernel, h_values, grid=make_grid(**tiny["grid"]))
    finally:
        hooks.uninstall()
    metrics = tracer.layer_metrics(hooks.take(), setup_spans, tiny["h_count"])
    assert [name for name in spec.EXERCISED["llt"] if not metrics[name] > 0] == []
