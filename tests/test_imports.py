"""Every name a package module imports is used in that module, and each path
imports only what it runs: PyYAML, numpy.random and the process pool load at
their first use, scipy and sympy, test-only oracles, never load, and forked
pool workers import nothing."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stableql

_MODULES = sorted(
    path for path in Path(stableql.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
_SRC = str(Path(stableql.__file__).resolve().parents[1])


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detects_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _run_fresh(code: str) -> list[str]:
    """The lines that code prints when run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def _loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    """Those of the modules that running code in a fresh interpreter loads."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {modules!r} if m in sys.modules))"
    return _run_fresh(probe)[-1].split()


def test_import_loads_no_path_specific_module():
    heavy = ("sympy", "yaml", "scipy", "concurrent.futures.process", "numpy.fft", "numpy.random")
    assert _loaded("import stableql", heavy) == []


def test_cauchy_rate_fit_loads_no_model_compiler_or_spline():
    code = (
        "from stableql import NoiseSpec, StableKernel, rate_fit\n"
        "from stableql.llt import make_grid\n"
        "cf = NoiseSpec('gh_nig', 1.0, gh_lambda=-0.5, gh_eta=5.0)\n"
        "rate_fit(cf, StableKernel(1.0), [1e-1, 1e-2, 1e-3, 1e-4], grid=make_grid(30.0, 0.05))\n"
    )
    heavy = ("sympy", "yaml", "scipy")
    assert _loaded(code, heavy) == []


def test_tabulated_rate_fit_and_simulation_load_no_scipy():
    code = (
        "from stableql import NoiseSpec, RngStream, StableKernel, build_model, rate_fit\n"
        "from stableql import simulate_fine\n"
        "from stableql.llt import make_grid\n"
        "cf = NoiseSpec('tempered_stable', 1.5, lambda_tempering=1.0)\n"
        "rate_fit(cf, StableKernel(1.5), [1e-1, 1e-2, 1e-3, 1e-4], grid=make_grid(30.0, 0.05))\n"
        "simulate_fine(build_model('nonlinear-1d'), NoiseSpec('stable', 1.5), 1.0, 100, 0.0,\n"
        "              RngStream(1))\n"
    )
    assert _loaded(code, ("scipy",)) == []


def test_constants_command_loads_no_model_compiler_or_yaml():
    # python -m stableql.cli constants --beta 1.5
    code = (
        "import runpy, sys\n"
        "sys.argv = ['stableql.cli', 'constants', '--beta', '1.5']\n"
        "try:\n"
        "    runpy.run_module('stableql.cli', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    )
    heavy = ("sympy", "yaml", "scipy")
    assert _loaded(code, heavy) == []


def test_mc_context_loads_no_scipy():
    code = (
        "from stableql.config import preset_config\n"
        "from stableql.harness import _cached_context\n"
        "_cached_context(preset_config('nig-1d'))\n"
    )
    assert _loaded(code, ("scipy",)) == []


def test_fit_command_loads_no_scipy(tmp_path):
    # python -m stableql.cli fit on a 200-point path
    data = tmp_path / "path.csv"
    t = [0.01 * i for i in range(201)]
    x = [math.sin(3.0 * ti) + 0.05 * math.cos(37.0 * ti) for ti in t]
    data.write_text("t,x\n" + "".join(f"{ti!r},{xi!r}\n" for ti, xi in zip(t, x)))
    report = tmp_path / "report.json"
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['stableql.cli', 'fit', '--data', {str(data)!r}, '--beta', '1.5',\n"
        f"            '--restarts', '2', '--out', {str(report)!r}]\n"
        "try:\n"
        "    runpy.run_module('stableql.cli', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    )
    assert _loaded(code, ("scipy",)) == []
    assert json.loads(report.read_text())["converged"] is True


# One replicate of a small stable15-1d design, run in one process.
_SMALL_RUN = (
    "import tempfile\n"
    "from dataclasses import replace\n"
    "from stableql.config import preset_config\n"
    "from stableql.harness import Design, run_experiment\n"
    "config = replace(preset_config('stable15-1d'), replicates=1, designs=(Design(1.0, 50, 10),))\n"
    "with tempfile.TemporaryDirectory() as out:\n"
    "    run_experiment(config, out, workers=1)\n"
)


def test_model_build_and_mc_run_load_no_sympy():
    code = "from stableql.models import build_model\nbuild_model('nonlinear-2d')\n"
    heavy = ("sympy", "scipy")
    assert _loaded(code, heavy) == []
    assert _loaded(_SMALL_RUN, heavy) == []


def test_runs_where_sympy_cannot_be_imported():
    code = (
        "import sys\n"
        "class NoSympy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'sympy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoSympy())\n"
        "try:\n"
        "    import sympy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('sympy was not blocked')\n"
        "from stableql.models import MODEL_REGISTRY, build_model\n"
        "for name in MODEL_REGISTRY:\n"
        "    build_model(name)\n"
        + _SMALL_RUN
    )
    assert _loaded(code, ("sympy",)) == []


def test_forked_workers_import_nothing():
    # Each replicate a worker runs prints the worker's pid and the modules
    # that sys.modules gained meanwhile; the parent prints its pid last.  In
    # this (pytest's) process numpy.random is loaded already, so the study
    # must run in a fresh interpreter.  A worker writes its line in one
    # write: under PYTHONUNBUFFERED print writes each piece on its own, and
    # two workers' pieces could interleave.
    code = (
        "import os, sys, tempfile\n"
        "from dataclasses import replace\n"
        "from stableql import harness\n"
        "from stableql.config import preset_config\n"
        "from stableql.harness import Design, run_experiment\n"
        "run = harness._run_replicate\n"
        "def checked(config, rep):\n"
        "    before = set(sys.modules)\n"
        "    records = run(config, rep)\n"
        "    line = ' '.join([str(os.getpid()), *sorted(set(sys.modules) - before)])\n"
        "    os.write(1, (line + '\\n').encode())\n"
        "    return records\n"
        "harness._run_replicate = checked\n"
        "config = replace(preset_config('nig-1d'), replicates=2, designs=(Design(1.0, 50, 10),))\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    run_experiment(config, out, workers=2)\n"
        "print(os.getpid())\n"
    )
    *replicates, parent = _run_fresh(code)
    assert len(replicates) == 2
    for line in replicates:
        pid, *imported = line.split()
        assert pid != parent
        assert imported == []
