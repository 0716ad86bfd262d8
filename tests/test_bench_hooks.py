"""The benchmark's traced run wraps program attributes by name.

``bench/tracer.py`` replaces, for instance, ``ModelSpec.scale`` and
``harness.studentize`` with recording wrappers.  Installing it here makes a
renamed or deleted traced attribute fail the test suite, not only the traced
benchmark run.  The benchmark's files are read, never changed.
"""

import importlib
from pathlib import Path

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
