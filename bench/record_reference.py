"""Record bench/reference.json: outputs of the default seed's first jobs.

    python3 bench/record_reference.py

Run from the root of a checkout whose outputs are trusted.  A measured run
with --seed DEFAULT_SEED starts one job per process with these seeds and
compares their cells with what this script wrote.
"""

import os

import spec

# before numpy is first imported
os.environ.update({name: "1" for name in spec.THREAD_VARS})

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name: str, scratch: Path) -> dict:
    settings = spec.settings(name, tiny=False)
    workload = workloads.make(settings)
    workload.setup()
    workers = min(settings.get("max_workers", 1), len(os.sched_getaffinity(0)))
    out = {}
    for process in range(spec.SETUP_PROCESSES):
        seed = spec.job_seed(spec.DEFAULT_SEED, process, 0)
        job = workload.run(seed, workers, scratch / f"{name}-{seed}")
        cells = workload.check(job, None)
        if not all(cell["ok"] for cell in cells):
            raise SystemExit(f"{name} job {seed}: a cell failed its checks; nothing recorded")
        if settings["kind"] == "mc":
            out[str(seed)] = {f"{c['rep']}/{c['design']}": c["theta"] for c in cells}
        else:
            out[str(seed)] = job["fits"]
    return out


def main() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        reference = {name: record(name, Path(scratch)) for name in spec.WORKLOADS}
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
