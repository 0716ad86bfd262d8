"""One benchmark process: set up, run jobs, check their outputs.

Started by run.py in a fresh interpreter, with the BLAS/OpenMP thread counts
pinned to 1 and PYTHONPATH pointing at the checkout's ``src``.  Its single
argument is a JSON object:

    root, workload, seed, process, workers, tiny, out, result
    seconds   run rounds of jobs for at most this long, but at least one
    rerun     job seed to run once more at the end, or null
    trace     run each job untraced at ``workers``, untraced at one worker
              and traced at one worker, and report the per-layer metrics

Interleaving the three runs of a job in one process keeps the tracing
overhead and the parallel efficiency free of the machine's drift between
processes.  The first run of each job seed is checked; later runs of the
same seed are compared with it by run.py.  The findings go to ``result``
as JSON.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import stableql  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, busy_seconds, layer_metrics  # noqa: E402


def main(args: dict) -> dict:
    src = Path(args["root"]).resolve() / "src"
    if src not in Path(stableql.__file__).resolve().parents:
        raise SystemExit(f"stableql imported from {stableql.__file__}, not from {src}")
    settings = spec.settings(args["workload"], args["tiny"])
    workload = workloads.make(settings)
    tracer = Tracer() if args["trace"] else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - _START
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()

    out = Path(args["out"])
    jobs = []

    def run(seed, tag, workers):
        if tag == "traced":
            tracer.install()
        try:
            job = workloads.run_job(workload, seed, workers, out / str(len(jobs)))
        finally:
            if tag == "traced":
                tracer.uninstall()
        job["tag"] = tag
        jobs.append(job)

    # a round starts only when it is expected to end within the time given
    start = time.perf_counter()
    rounds = 0
    while True:
        seed = spec.job_seed(args["seed"], args["process"], rounds)
        if not tracer:
            run(seed, "measured", args["workers"])
        else:
            if args["workers"] > 1:
                run(seed, "parallel", args["workers"])
            run(seed, "serial", 1)
            run(seed, "traced", 1)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args["seconds"]:
            break
    if args["rerun"] is not None:
        run(args["rerun"], "rerun", args["workers"])

    reference = {}
    if not args["tiny"]:
        path = Path(__file__).with_name("reference.json")
        reference = json.loads(path.read_text()).get(args["workload"], {})
    per_job = workload.cells_per_job()
    checked = set()
    for job in jobs:
        if job["wall"] is None:
            job["cells"] = [{"ok": False, "error": "job raised"}] * per_job
            continue
        job["outputs"] = workload.outputs(job)
        if job["seed"] not in checked:
            checked.add(job["seed"])
            job["cells"] = workload.check(job, reference.get(str(job["seed"])))

    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pool = args["workers"] if args["workers"] > 1 else 0
    result = {
        "setup_s": setup_s,
        "jobs": [
            {key: job.get(key) for key in ("seed", "tag", "wall", "cells", "outputs")}
            for job in jobs
        ],
        # ru_maxrss is in KiB on Linux; a pool's workers each count at the
        # peak of the largest one
        "peak_rss_mb": (rss_self + pool * rss_pool) / 1024.0,
        "versions": _versions(),
    }
    if tracer:
        spans = tracer.take()
        traced_cells = sum(1 for j in jobs if j["tag"] == "traced" and j["wall"] is not None)
        result["layers"] = layer_metrics(spans, setup_spans, traced_cells * per_job)
        result["busy_s"] = busy_seconds(spans)
    return result


def _versions() -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "stableql": stableql.__version__,
    }


if __name__ == "__main__":
    arguments = json.loads(sys.argv[1])
    Path(arguments["result"]).write_text(json.dumps(main(arguments)))
