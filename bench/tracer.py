"""Span tracer for the benchmark's traced run.

The tracer replaces the attributes through which one module calls another
(``stableql.harness.fit``, ``StableKernel.log_density``, ...) with wrappers
that record a span per call.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer metrics once the run is over.  Nothing in the program
changes: the wrappers call the original function and return its result.

A span's self time is its duration minus the durations of the spans opened
directly inside it.  A span is *outermost* in its layer when the span that
caused it belongs to another layer; call counts use outermost spans, so that
``log_density`` calling ``density`` counts as one kernel evaluation.
"""

from __future__ import annotations

import time

import numpy as np

from stableql import harness, llt, sqlik
from stableql.llt import CfModel
from stableql.models import ModelSpec
from stableql.samplers import NoiseSpec
from stableql.stable_core import StableKernel

_KERNEL_EVAL = ("density", "ddensity", "dddensity", "log_density", "g", "k", "dg")
_MODEL_EVAL = ("drift", "scale", "drift_dalpha", "drift_ddalpha", "scale_dgamma", "scale_ddgamma")


def _eval_points(args, kwargs, result):
    return np.size(args[1] if len(args) > 1 else kwargs["y"])


def _sampler_draws(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["count"]


def _euler_steps(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs["n_fine"]


def _converged(args, kwargs, result):
    return int(result.converged)


def _panel_nodes(args, kwargs, result):
    return len(result[0])


def _half_grid(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return (np.size(grid) + 1) // 2


def _targets():
    """(owner, attribute, kind, work) for every traced call site."""
    out = [
        (harness, "run_experiment", "harness.run", None),
        (harness, "simulate_fine", "sde.simulate", _euler_steps),
        (harness, "fit", "sqlik.fit", _converged),
        (harness, "studentize", "inference.studentize", None),
        (harness, "confidence_intervals", "inference.ci", None),
        (sqlik, "quasi_loglik", "sqlik.loglik", None),
        (sqlik, "quasi_score", "sqlik.score", None),
        (NoiseSpec, "sample", "samplers.sample", _sampler_draws),
        (StableKernel, "__init__", "stable_core.build", None),
        (StableKernel, "info_constants", "stable_core.info_constants", None),
        (llt, "invert_density", "llt.invert", _half_grid),
        (llt, "_panel_nodes", "llt.nodes", _panel_nodes),
        (llt, "l1_distance", "llt.l1", None),
        (CfModel, "exponent", "llt.cf_exponent", None),
    ]
    out += [(StableKernel, name, "stable_core.eval", _eval_points) for name in _KERNEL_EVAL]
    out += [(ModelSpec, name, "models.eval", None) for name in _MODEL_EVAL]
    return out


class Tracer:
    """Records one span per call of each traced attribute while installed."""

    def __init__(self):
        # closed spans: (id, parent id or -1, kind, duration, self time, work)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open frames: [id, child time]
        self._next_id = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        for owner, name, kind, work in _targets():
            original = owner.__dict__[name]
            self._undo.append((owner, name, original))
            setattr(owner, name, self._wrap(original, kind, work))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, original, kind, work):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
            amount = work(args, kwargs, result) if work else 0
            self.spans.append((span_id, parent, kind, duration, duration - frame[1], amount))
            return result

        traced.__wrapped__ = original
        return traced


def _layer(kind: str) -> str:
    return kind.split(".", 1)[0]


def layer_metrics(spans: list[tuple], setup_spans: list[tuple], cells: int) -> dict:
    """Per-layer metrics from the spans of the traced jobs and of set-up.

    Counts and times are per cell; ``*_per_*`` values are ratios of totals.
    A layer the workload does not reach reads 0.
    """
    kind_of = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}

    def outermost(s):
        return _layer(kind_of.get(s[1], "")) != _layer(s[2])

    def inside(span_id, kind):
        span_id = parent_of.get(span_id, -1)
        while span_id != -1:
            if kind_of[span_id] == kind:
                return True
            span_id = parent_of.get(span_id, -1)
        return False

    def pick(kind, outer=False):
        return [s for s in spans if s[2] == kind and (not outer or outermost(s))]

    def total(items, field):
        return float(sum(s[field] for s in items))

    def per_cell(value):
        return value / cells if cells else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    layer_self = {}
    for s in spans:
        layer_self[_layer(s[2])] = layer_self.get(_layer(s[2]), 0.0) + s[4]

    info = pick("stable_core.info_constants", outer=True)
    evals = pick("stable_core.eval", outer=True)
    models = pick("models.eval", outer=True)
    logliks = pick("sqlik.loglik")
    fits = pick("sqlik.fit")
    samples = pick("samplers.sample", outer=True)
    sims = pick("sde.simulate")
    infer = [s for s in spans if _layer(s[2]) == "inference" and outermost(s)]
    inverts = pick("llt.invert")
    nodes = {s[1]: s[5] for s in pick("llt.nodes")}
    runs = pick("harness.run")

    eval_time, points = total(evals, 3), total(evals, 5)
    draws, steps = total(samples, 5), total(sims, 5)
    models_in_loglik = sum(1 for s in models if inside(s[0], "sqlik.loglik"))
    return {
        "stable_core.build_s": total(
            [s for s in setup_spans if s[2] == "stable_core.build"], 3
        ),
        "stable_core.info_constants.calls": per_cell(len(info)),
        "stable_core.info_constants_s": per_cell(total(info, 3)),
        "stable_core.eval.calls": per_cell(len(evals)),
        "stable_core.eval.points": per_cell(points),
        "stable_core.eval_s": per_cell(eval_time),
        "stable_core.eval_ns_per_point": ratio(eval_time, points, 1e9),
        "models.calls": per_cell(len(models)),
        "models.busy_s": per_cell(total(models, 3)),
        "models.calls_per_loglik": ratio(models_in_loglik, len(logliks)),
        "sqlik.loglik.calls": per_cell(len(logliks)),
        "sqlik.score.calls": per_cell(len(pick("sqlik.score"))),
        "sqlik.self_s": per_cell(layer_self.get("sqlik", 0.0)),
        "sqlik.us_per_loglik": ratio(total(logliks, 3), len(logliks), 1e6),
        "sqlik.converged_ratio": ratio(total(fits, 5), len(fits)),
        "samplers.draws": per_cell(draws),
        "samplers.ns_per_draw": ratio(total(samples, 3), draws, 1e9),
        "sde.steps": per_cell(steps),
        "sde.self_s": per_cell(layer_self.get("sde", 0.0)),
        "sde.ns_per_step": ratio(total(sims, 4), steps, 1e9),
        "inference.calls": per_cell(len(infer)),
        "inference.busy_s": per_cell(total(infer, 3)),
        "harness.self_s": per_cell(total(runs, 4)),
        "llt.invert.calls": per_cell(len(inverts)),
        "llt.invert_s": per_cell(total(inverts, 3)),
        "llt.cf_exponent_s": per_cell(total(pick("llt.cf_exponent"), 3)),
        "llt.l1_s": per_cell(total(pick("llt.l1"), 3)),
        "llt.cos_evals": per_cell(float(sum(nodes.get(s[0], 0) * s[5] for s in inverts))),
    }


def busy_seconds(spans: list[tuple]) -> float:
    """Time inside the program's stages below run_experiment (its child spans)."""
    return float(sum(s[3] - s[4] for s in spans if s[2] == "harness.run"))
