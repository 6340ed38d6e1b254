"""The planner's layers as the traced run sees them, and their metrics.

Each layer is timed from outside by wrapping the public names that the
calling module imports: ``aptstar.planner``'s imports for the planning path,
``aptstar.neighbors.orthonormal_basis`` for the frame builds inside the
neighbor query, and ``aptstar.worlds.is_feasible`` for world set-up. The
whole planner call is the root span, so ``planner.self_s`` is what the
wrapped layers leave over.
"""
from __future__ import annotations

import statistics

from .tracer import Tracer, Wrap

ROOT_SPAN = "planner"


def _shrink_rounds_before(args, kwargs):
    stats = kwargs["stats"]
    config = args[4] if len(args) > 4 else kwargs["config"]
    return stats, stats.get("shrink_rounds", 0), config.max_shrink_rounds


def _neighbor_query(tracer, args, kwargs, result, token):
    stats, before, cap = token
    rounds = stats.get("shrink_rounds", 0) - before
    tracer.observe("neighbors.members", len(result[0]))
    tracer.observe("neighbors.rounds", rounds)
    tracer.observe("neighbors.cap_hit", rounds >= cap)


def _validity(key):
    def observe(tracer, args, kwargs, result, token):
        tracer.observe(key, bool(result))

    return observe


def _kd_points(tracer, args, kwargs, result, token):
    tracer.observe("planner.kd_build.points", len(args[0]))


def _value(key):
    def observe(tracer, args, kwargs, result, token):
        tracer.observe(key, result)

    return observe


WRAPS = (
    Wrap("aptstar.planner", "elliptical_nn_query", "neighbors.query",
         observe=_neighbor_query, prepare=_shrink_rounds_before),
    Wrap("aptstar.neighbors", "orthonormal_basis", "geometry.frame"),
    Wrap("aptstar.planner", "is_motion_valid", "geometry.motion",
         observe=_validity("geometry.motion.valid")),
    Wrap("aptstar.planner", "is_state_valid", "geometry.state",
         observe=_validity("geometry.state.valid")),
    Wrap("aptstar.planner", "sample_informed", "geometry.sample"),
    Wrap("aptstar.planner", "sample_uniform", "geometry.sample"),
    Wrap("aptstar.planner", "cKDTree", "planner.kd_build", observe=_kd_points),
    Wrap("aptstar.planner", "adapt_batch_size", "adaptive.batch",
         observe=_value("adaptive.batch_size")),
    Wrap("aptstar.planner", "vertex_charge", "adaptive.charge",
         observe=_value("adaptive.charge")),
    Wrap("aptstar.worlds", "is_feasible", "worlds.feasible"),
)

# (name, unit, better); the order is the order of the report
PER_LAYER = (
    ("neighbors.query.calls", "count", "lower"),
    ("neighbors.query.self_s", "s", "lower"),
    ("neighbors.query.us_per_call", "us", "lower"),
    ("neighbors.members_per_query", "count", "higher"),
    ("neighbors.shrink_rounds_per_query", "count", "lower"),
    ("neighbors.cap_hit_ratio", "1", "lower"),
    ("geometry.frame.calls", "count", "lower"),
    ("geometry.frame.s", "s", "lower"),
    ("geometry.motion.calls", "count", "lower"),
    ("geometry.motion.s", "s", "lower"),
    ("geometry.motion.us_per_call", "us", "lower"),
    ("geometry.motion.valid_ratio", "1", "higher"),
    ("geometry.state.calls", "count", "lower"),
    ("geometry.state.s", "s", "lower"),
    ("geometry.state.valid_ratio", "1", "higher"),
    ("geometry.sample.calls", "count", "lower"),
    ("geometry.sample.s", "s", "lower"),
    ("planner.self_s", "s", "lower"),
    ("planner.kd_build.calls", "count", "lower"),
    ("planner.kd_build.s", "s", "lower"),
    ("planner.kd_build.points", "count", "lower"),
    ("planner.samples", "count", "lower"),
    ("planner.collision_checks", "count", "lower"),
    ("planner.neighbor_queries", "count", "lower"),
    ("planner.batches", "count", "lower"),
    ("adaptive.calls", "count", "lower"),
    ("adaptive.s", "s", "lower"),
    ("adaptive.batch_size.mean", "count", "lower"),
    ("adaptive.charge.mean", "1", "higher"),
    ("worlds.feasible.calls", "count", "lower"),
    ("worlds.feasible.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# the span whose absence (or unreadable arguments) makes each metric absent
_SOURCE = {
    "neighbors.members_per_query": "neighbors.query:observe",
    "neighbors.shrink_rounds_per_query": "neighbors.query:observe",
    "neighbors.cap_hit_ratio": "neighbors.query:observe",
    "geometry.motion.valid_ratio": "geometry.motion:observe",
    "geometry.state.valid_ratio": "geometry.state:observe",
    "planner.kd_build.points": "planner.kd_build:observe",
    "adaptive.batch_size.mean": "adaptive.batch:observe",
    "adaptive.charge.mean": "adaptive.charge:observe",
}


def new_tracer() -> Tracer:
    return Tracer(WRAPS)


def _mean(values) -> float:
    """Mean of the observations; 0 when the layer was never called."""
    return statistics.fmean(values) if values else 0.0


def planning_metrics(tracer: Tracer, runs, time_scale: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; ``runs`` are its PlannerRuns.

    Span times are multiplied by ``time_scale``, the pass's factor to the
    probe's reference speed, so that they compare across runs.
    """
    spans = {
        name: (calls, total * time_scale, own * time_scale)
        for name, (calls, total, own) in tracer.totals().items()
    }

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    def per_call_us(name):
        calls, total, _ = span(name)
        return total / calls * 1e6 if calls else 0.0

    def counter(key):
        return sum(run.counters.get(key, 0) for run in runs)

    v = tracer.values
    adaptive = [span("adaptive.batch"), span("adaptive.charge")]
    out = {
        "neighbors.query.calls": span("neighbors.query")[0],
        "neighbors.query.self_s": span("neighbors.query")[2],
        "neighbors.query.us_per_call": per_call_us("neighbors.query"),
        "neighbors.members_per_query": _mean(v.get("neighbors.members")),
        "neighbors.shrink_rounds_per_query": _mean(v.get("neighbors.rounds")),
        "neighbors.cap_hit_ratio": _mean(v.get("neighbors.cap_hit")),
        "geometry.frame.calls": span("geometry.frame")[0],
        "geometry.frame.s": span("geometry.frame")[1],
        "geometry.motion.calls": span("geometry.motion")[0],
        "geometry.motion.s": span("geometry.motion")[1],
        "geometry.motion.us_per_call": per_call_us("geometry.motion"),
        "geometry.motion.valid_ratio": _mean(v.get("geometry.motion.valid")),
        "geometry.state.calls": span("geometry.state")[0],
        "geometry.state.s": span("geometry.state")[1],
        "geometry.state.valid_ratio": _mean(v.get("geometry.state.valid")),
        "geometry.sample.calls": span("geometry.sample")[0],
        "geometry.sample.s": span("geometry.sample")[1],
        "planner.self_s": span(ROOT_SPAN)[2],
        "planner.kd_build.calls": span("planner.kd_build")[0],
        "planner.kd_build.s": span("planner.kd_build")[1],
        "planner.kd_build.points": int(sum(v.get("planner.kd_build.points", ()))),
        "planner.samples": counter("samples"),
        "planner.collision_checks": counter("collision_checks"),
        "planner.neighbor_queries": counter("neighbor_queries"),
        "planner.batches": counter("batches"),
        "adaptive.calls": sum(calls for calls, _, _ in adaptive),
        "adaptive.s": sum(total for _, total, _ in adaptive),
        "adaptive.batch_size.mean": _mean(v.get("adaptive.batch_size")),
        "adaptive.charge.mean": _mean(v.get("adaptive.charge")),
    }
    return _mark_absent(tracer, out)


def _mark_absent(tracer: Tracer, metrics: dict) -> dict:
    for name in metrics:
        source = _SOURCE.get(name) or name.rsplit(".", 1)[0]
        layer = source.split(":")[0]
        if source in tracer.absent or layer in tracer.absent:
            metrics[name] = None
    return metrics


def shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's total time as a share of all planner time in the pass."""
    spans = tracer.totals()
    planner_total = spans.get(ROOT_SPAN, (0, 0.0, 0.0))[1]
    if planner_total <= 0.0:
        return {}
    out = {name: total / planner_total for name, (_, total, _) in spans.items()
           if name not in (ROOT_SPAN, "worlds.feasible")}
    out["planner.self"] = spans[ROOT_SPAN][2] / planner_total
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
