"""stableql benchmark driver.

    python3 bench/run.py --workload mc-stable --seed 3 --seconds 15 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (bench/child.py) that imports stableql from the checkout's
``src``; this process uses the standard library only.

--trace 0  runs the workload in SETUP_PROCESSES fresh processes, each setting
           up once and then running jobs for its share of --seconds, and
           prints the end-to-end metrics.
--trace 1  runs each job untraced at the workload's worker count, untraced at
           one worker and traced at one worker, in one fresh process, and
           prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

BENCH_DIR = Path(__file__).resolve().parent
# A run must end within 180 s; children are killed when this budget is spent.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "stable_core.build_s": "s",
    "stable_core.info_constants.calls": "count/cell",
    "stable_core.info_constants_s": "s/cell",
    "stable_core.eval.calls": "count/cell",
    "stable_core.eval.points": "count/cell",
    "stable_core.eval_s": "s/cell",
    "stable_core.eval_ns_per_point": "ns",
    "models.calls": "count/cell",
    "models.busy_s": "s/cell",
    "models.calls_per_loglik": "ratio",
    "sqlik.loglik.calls": "count/cell",
    "sqlik.score.calls": "count/cell",
    "sqlik.self_s": "s/cell",
    "sqlik.us_per_loglik": "us",
    "sqlik.converged_ratio": "ratio",
    "samplers.draws": "count/cell",
    "samplers.ns_per_draw": "ns",
    "sde.steps": "count/cell",
    "sde.self_s": "s/cell",
    "sde.ns_per_step": "ns",
    "inference.calls": "count/cell",
    "inference.busy_s": "s/cell",
    "harness.self_s": "s/cell",
    "harness.parallel_efficiency": "ratio",
    "llt.invert.calls": "count/cell",
    "llt.invert_s": "s/cell",
    "llt.cf_exponent_s": "s/cell",
    "llt.l1_s": "s/cell",
    "llt.cos_evals": "count/cell",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result."""


class Runner:
    """Starts child processes under one deadline and collects their results."""

    def __init__(self, root: Path, args, workers: int):
        self.root = root
        self.args = args
        self.workers = workers
        self.deadline = time.monotonic() + BUDGET_S
        self.tmp = root / ".bench_tmp" / str(os.getpid())
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({name: "1" for name in spec.THREAD_VARS})
        self.count = 0

    def child(self, process: int, workers: int, **options) -> dict:
        self.count += 1
        name = f"{self.count}-p{process}-w{workers}"
        result = self.tmp / f"{name}.json"
        payload = {
            "root": str(self.root),
            "workload": self.args.workload,
            "seed": self.args.seed,
            "process": process,
            "workers": workers,
            "tiny": self.args.tiny,
            "out": str(self.tmp / name),
            "result": str(result),
            "seconds": self.args.seconds,
            "rerun": None,
            "trace": False,
        }
        payload.update(options)
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(payload)],
            cwd=self.root, env=self.env, stdout=sys.stderr, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"child {name} ran past the {BUDGET_S:.0f} s budget") from None
        finally:
            # pool workers live in the child's session; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if code != 0:
            raise BenchError(f"child {name} exited with code {code}")
        return json.loads(result.read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def _cells(children):
    return [cell for child in children for job in child["jobs"] for cell in job["cells"] or []]


def _check_reruns(children) -> None:
    """Fail every cell of a job whose outputs change when it is run again."""
    first, bad = {}, set()
    for child in children:
        for job in child["jobs"]:
            if job["outputs"] is not None:
                if first.setdefault(job["seed"], job["outputs"]) != job["outputs"]:
                    bad.add(job["seed"])
    for seed in sorted(bad):
        print(f"error: job {seed} gave different outputs when run again", file=sys.stderr)
    for child in children:
        for job in child["jobs"]:
            if job["seed"] in bad:
                for cell in job["cells"] or []:
                    cell.update(ok=False, error="outputs differ when run again")


def _walls(children, tag) -> list[float]:
    return [
        job["wall"]
        for child in children for job in child["jobs"]
        if job["tag"] == tag and job["wall"] is not None
    ]


def measure(runner: Runner, args) -> tuple[dict, list, list]:
    processes = 1 if args.tiny else spec.SETUP_PROCESSES
    rerun = spec.job_seed(args.seed, 0, 0)
    children = [
        runner.child(
            p, runner.workers, seconds=args.seconds / processes,
            rerun=rerun if p == processes - 1 else None,
        )
        for p in range(processes)
    ]
    _check_reruns(children)
    measured = [
        job for child in children for job in child["jobs"]
        if job["tag"] == "measured" and job["wall"] is not None
    ]
    if not measured:
        raise BenchError("every job raised")
    cells = _cells(children)
    metrics = {
        "setup_s": _median([child["setup_s"] for child in children]),
        "wall_s": _median([job["wall"] for job in measured]),
        "cells_per_s": _median(
            [sum(1 for cell in job["cells"] if cell["ok"]) / job["wall"] for job in measured]
        ),
        "ok_frac": sum(1 for cell in cells if cell["ok"]) / len(cells),
        "peak_rss_mb": _median([child["peak_rss_mb"] for child in children]),
    }
    return metrics, children, cells


def trace(runner: Runner, args) -> tuple[dict, list, list]:
    kind = spec.WORKLOADS[args.workload]["kind"]
    children = [runner.child(0, runner.workers, trace=True)]
    _check_reruns(children)
    serial = sum(_walls(children, "serial"))
    traced = sum(_walls(children, "traced"))
    if serial <= 0.0:
        raise BenchError("no untraced job finished")
    metrics = dict(children[0]["layers"])
    metrics["trace.overhead_frac"] = traced / serial - 1.0
    if kind == "mc":
        # tracing adds its cost inside the busy spans; take it back out
        busy = children[0]["busy_s"] - (traced - serial)
        parallel = sum(_walls(children, "parallel")) or serial
        metrics["harness.parallel_efficiency"] = busy / (runner.workers * parallel)
    else:
        metrics["harness.parallel_efficiency"] = 0.0
    silent = [name for name in spec.EXERCISED[kind] if not metrics[name] > 0.0]
    if silent:
        raise BenchError(f"traced run recorded no calls for {', '.join(silent)}")
    return metrics, children, _cells(children)


def _environment(root: Path, args, workers: int, children: list) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "workers": workers,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "thread_pins": {name: "1" for name in spec.THREAD_VARS},
    }
    env.update(children[0]["versions"] if children else {})
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="one process and the smallest jobs; for the self-test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "stableql" / "__init__.py").is_file():
        print(f"error: {root} holds no src/stableql; run from a checkout root", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workers = min(spec.WORKLOADS[args.workload].get("max_workers", 1), nproc)
    runner = Runner(root, args, workers)
    try:
        runner.tmp.mkdir(parents=True, exist_ok=True)
        metrics, children, cells = (trace if args.trace else measure)(runner, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            runner.tmp.parent.rmdir()
        except OSError:
            pass

    failed = sum(1 for cell in cells if not cell["ok"])
    correct = not any(cell.get("error") for cell in cells)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print("environment " + json.dumps(_environment(root, args, workers, children)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
