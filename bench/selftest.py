"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a checkout; takes about two minutes.  It runs a tiny
configuration of every workload in BENCHMARK.json, untraced and traced, and
checks that the result line has the contract's keys and every metric that
BENCHMARK.json names, with its unit.  It also checks that the driver fails,
without printing a result, in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    tag = f"{workload} --trace {trace}"
    done = run(
        ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        ROOT,
    )
    if done.returncode != 0:
        return [f"{tag}: exit code {done.returncode}\n{done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("environment "):
        return [f"{tag}: no environment line before the result"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{tag}: correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{tag}: attempted={result.get('attempted')}")
    printed = result.get("metrics", {})
    if set(printed) != set(expected):
        problems.append(f"{tag}: metrics {sorted(set(printed) ^ set(expected))} not as named")
    for name, unit in expected.items():
        entry = printed.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{tag}: {name} has unit {entry.get('unit')!r}, not {unit!r}")
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{tag}: {name} has value {value!r}")
    return problems


def check_without_program() -> list[str]:
    bare = ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__")
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(["--workload", "mc-stable", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["a directory without src/stableql did not fail the run"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = check_without_program()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, units[trace])
            print(f"checked {workload} --trace {trace}", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
