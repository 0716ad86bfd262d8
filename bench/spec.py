"""Workload definitions shared by the driver and its child processes.

Standard library only: the driver imports this before it knows whether the
checkout holds the program at all.

A *cell* is one (replicate, design) fit in the ``mc-*`` workloads and one
(driver, h) inversion in ``llt-rates``.  A *job* is one call the benchmark
times: one ``run_experiment`` or one pair of ``rate_fit`` calls.
"""

from __future__ import annotations

# The reference outputs in reference.json were recorded for this seed.
DEFAULT_SEED = 1

# Fresh interpreters per measured run.  Each one sets up once (its set-up time
# is one setup_s sample) and then runs jobs for its share of --seconds.
SETUP_PROCESSES = 3

# Pinned to 1 in every benchmark process: pool workers times BLAS threads
# must stay within nproc.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Tolerances of the output check; the README gives the reasoning.
THETA_ATOL = 1e-5
SCORE_NORM_MAX = 1e-3
L1_ATOL = 2e-6
SLOPE_ATOL = 1e-3

LLT_DRIVERS = (
    {"kind": "tempered_stable", "beta": 1.5, "lambda_tempering": 1.0},
    {"kind": "gh_nig", "beta": 1.0, "gh_lambda": -0.5, "gh_eta": 5.0},
)

WORKLOADS = {
    "mc-stable": {
        "kind": "mc",
        "config": {
            "preset": "stable15-1d",
            "designs": [{"T": 5.0, "n": 100, "fine_factor": 250}],
        },
        "replicates": 4,
        "max_workers": 1,
        "tiny": {"replicates": 1},
    },
    "mc-nig": {
        "kind": "mc",
        "config": {"preset": "nig-1d"},
        "replicates": 4,
        "max_workers": 2,
        "tiny": {"replicates": 2},
    },
    "llt-rates": {
        "kind": "llt",
        "h_count": 6,
        "grid": None,
        "tiny": {"h_count": 4, "grid": {"half_width": 30.0, "spacing": 0.05}},
    },
}

# Per-layer metrics that must be non-zero in the traced run of each kind of
# workload: a layer the program stops calling through the traced attribute
# must fail the run, not read as free.
EXERCISED = {
    "mc": (
        "stable_core.build_s",
        "stable_core.info_constants.calls",
        "stable_core.eval.calls",
        "models.calls",
        "sqlik.loglik.calls",
        "sqlik.score.calls",
        "samplers.draws",
        "sde.steps",
        "inference.calls",
        "harness.self_s",
    ),
    "llt": (
        "stable_core.build_s",
        "stable_core.eval.calls",
        "llt.invert.calls",
        "llt.cf_exponent_s",
        "llt.l1_s",
        "llt.cos_evals",
    ),
}


def job_seed(seed: int, process: int, index: int) -> int:
    """Seed of the index-th job run by one process; distinct for every job."""
    return seed * 1000 + process * 100 + index


def settings(workload: str, tiny: bool) -> dict:
    spec = dict(WORKLOADS[workload])
    if tiny:
        spec.update(spec["tiny"])
    return spec
