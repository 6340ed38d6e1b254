"""Property test of the planner-output contract over small random box worlds.

Every planner, on every generated problem, must return a path that the
independent fine checker accepts, whose length is its reported final cost,
that costs no less than the straight-line bound (and, in 2-D, the visibility
graph optimum), and whose improvement events strictly decrease.
"""
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aptstar.geometry import (
    HyperRectangle,
    ProblemInstance,
    WorldModel,
    default_motion_resolution,
    is_state_valid,
)
from aptstar.planner import PLANNERS, PlannerConfig

from oracles import euclid, motion_valid_fine, visibility_shortest_path

# deterministic examples, few enough to keep the test to seconds
settings.register_profile(
    "planner-contract",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
CONTRACT = settings.get_profile("planner-contract")
BUDGETS = {"apt": 2, "bit": 2, "informed_rrt_star": 150, "rrt_connect": 200}
LENGTH_TOL = 1e-9


def random_problem(seed: int) -> ProblemInstance | None:
    """A unit-cube world of d = 1-6 with up to four boxes clipped at the
    bounds, and a start with one or two goals, some coordinates on the faces
    of the bounds; None when no valid distinct start and goals were drawn."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    boxes = []
    for _ in range(int(rng.integers(0, 5))):
        center = rng.uniform(0.0, 1.0, n)
        half = rng.uniform(0.02, 0.25, n)
        boxes.append(
            HyperRectangle(np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0))
        )
    world = WorldModel(HyperRectangle(np.zeros(n), np.ones(n)), tuple(boxes))

    def valid_point():
        for _ in range(50):
            x = rng.uniform(0.0, 1.0, n)
            on_face = rng.random(n) < 0.15
            x[on_face] = rng.integers(0, 2, int(on_face.sum()))
            if is_state_valid(world, x):
                return x
        return None

    points = [valid_point() for _ in range(1 + int(rng.integers(1, 3)))]
    if any(p is None for p in points):
        return None
    start, goals = points[0], points[1:]
    if any(euclid(start, g) < 0.05 for g in goals):
        return None
    return ProblemInstance(world, start, tuple(goals))


def contract_violations(problem: ProblemInstance, run) -> list[str]:
    """Every way in which the run breaks the contract; empty when it holds."""
    out = []
    costs = [c for _, c in run.events]
    if any(b >= a for a, b in zip(costs, costs[1:])):
        out.append("event costs do not strictly decrease")
    if not run.success:
        return out + (["events without success"] if run.events else [])
    path = [p.tolist() for p in run.path]
    world = problem.world
    if path[0] != problem.start.tolist():
        out.append("path does not start at the start")
    if path[-1] not in [g.tolist() for g in problem.goals]:
        out.append("path does not end at a goal")
    boxes = [(o.min_corner.tolist(), o.max_corner.tolist()) for o in world.obstacles]
    lo, hi = world.bounds.min_corner.tolist(), world.bounds.max_corner.tolist()
    res = default_motion_resolution(world)
    for a, b in zip(path, path[1:]):
        if not motion_valid_fine(boxes, lo, hi, a, b, res):
            out.append(f"segment {a} -> {b} collides")
    length = sum(euclid(a, b) for a, b in zip(path, path[1:]))
    if abs(length - run.c_final) > LENGTH_TOL:
        out.append(f"path length {length!r} != c_final {run.c_final!r}")
    if run.c_final < problem.c_min - LENGTH_TOL:
        out.append(f"c_final {run.c_final!r} below c_min {problem.c_min!r}")
    if world.dimension == 2:
        optimum = min(
            visibility_shortest_path(
                [tuple(map(tuple, box)) for box in boxes], tuple(path[0]), tuple(g)
            )
            for g in problem.goals
        )
        if run.c_final < optimum - LENGTH_TOL:
            out.append(f"c_final {run.c_final!r} below the visibility optimum {optimum!r}")
    return out


@CONTRACT
@given(seed=st.integers(0, 2**32 - 1), planner=st.sampled_from(sorted(PLANNERS)))
def test_planner_output_contract(seed, planner):
    problem = random_problem(seed)
    if problem is None:
        return
    config = PlannerConfig(max_iterations=BUDGETS[planner], rng_seed=seed % 1000)
    run = PLANNERS[planner](problem, config)
    assert contract_violations(problem, run) == []
    assert math.isfinite(run.c_final) == run.success
