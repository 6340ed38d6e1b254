"""Property test of the planner-output contract over small random box worlds.

Every planner, on every generated problem, must return a path that the
independent fine checker accepts, whose length is its reported final cost,
that costs no less than the straight-line bound (and, in 2-D, the visibility
graph optimum), and whose improvement events strictly decrease. A config
fuzz holds every config to the same contract, or to a ValueError that
names the offending field, at construction or when a run starts.
"""
import dataclasses
import math
import re
import time

import numpy as np
from hypothesis import HealthCheck, Phase, given, note, settings
from hypothesis import strategies as st

from aptstar.geometry import (
    HyperRectangle,
    ProblemInstance,
    WorldModel,
    default_motion_resolution,
    is_state_valid,
)
from aptstar.adaptive import SCHEDULES, BatchConfig, ChargeConfig
from aptstar.neighbors import NeighborConfig
from aptstar.planner import PLANNERS, PlannerConfig
from aptstar.worlds import WorldSpec, make_problem

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


WALL = make_problem(WorldSpec("dividing_wall", 2, seed=0))
WALL_RESOLUTION = default_motion_resolution(WALL.world)
SUB_CONFIGS = {"neighbor": NeighborConfig, "batch": BatchConfig, "charge": ChargeConfig}
# in-range values of every other field, bounded so that a plan takes milliseconds;
# both budgets are always set, and a plan runs at most FUZZ_BUDGETS[planner]
# iterations: apt's second batch is its first adaptive one.
# A plan's work grows with the inverse of the spacing, the edge length and the
# pair distance, so these are drawn from floors up; subnormal values of them
# can overflow
IN_RANGE = {
    PlannerConfig: {
        "max_time": st.none() | st.floats(0.0, 10.0),
        "max_iterations": st.integers(0, 200),
        "goal_bias": st.floats(0.0, 1.0, exclude_max=True),
        "eta": st.floats(1.0, 3.0),
        "rewire_factor": st.floats(1.0, 3.0),
        "motion_resolution": st.none() | st.floats(WALL_RESOLUTION / 4, WALL_RESOLUTION),
        "max_edge_length": st.none() | st.floats(0.01, 2.0),
        "rng_seed": st.integers(0, 2**64),
    },
    NeighborConfig: {
        "k_e": st.floats(0.0, 3.0),
        "k": st.floats(0.0, 3.0),
        "phi_threshold": st.floats(0.0, 1.0, exclude_min=True),
        "max_shrink_rounds": st.integers(1, 32),
        "min_pair_distance": st.floats(1e-9, 0.1),
        "max_prolongation": st.floats(1.0, 5.0),
    },
    BatchConfig: {"m_min": st.integers(1, 50), "m_max": st.integers(51, 250)},
    ChargeConfig: {
        "q_min": st.floats(0.0, 1.0),
        "q_max": st.floats(1.01, 3.0),
        "epsilon": st.floats(-10.0, 10.0).filter(lambda v: v != 0.0),
        "beta": st.floats(-2.0, 2.0),
        "alpha": st.integers(1, 30),
        "schedule": st.sampled_from(SCHEDULES),
    },
}
FUZZ_BUDGETS = {"apt": 2, "bit": 1, "informed_rrt_star": 100, "rrt_connect": 100}
# out of range, not finite, a bool, a float for an integer field, or the
# smallest subnormal
ODD = (math.nan, math.inf, -math.inf, True, False, -1, 3.0, 5e-324)


def test_rrt_connect_with_an_edge_below_an_ulp_stops():
    """A step shorter than the coordinates' ulps moves nothing: the connect
    loop ends instead of adding the same state forever, and it keeps to
    max_time."""
    config = PlannerConfig(max_edge_length=1e-300, max_time=0.5)
    t0 = time.perf_counter()
    run = PLANNERS["rrt_connect"](WALL, config)
    assert time.perf_counter() - t0 < 2.0
    assert contract_violations(WALL, run) == []
    # with no clock, only the iteration budget bounds the run
    run = PLANNERS["rrt_connect"](WALL, PlannerConfig(max_edge_length=1e-300, max_iterations=50))
    assert contract_violations(WALL, run) == []
    assert not run.success


def test_config_fuzz_covers_every_field():
    for cls, fields in IN_RANGE.items():
        extra = SUB_CONFIGS if cls is PlannerConfig else {}
        assert {f.name for f in dataclasses.fields(cls)} == set(fields) | set(extra)


def build(drawn, poke=None):
    """The PlannerConfig of the drawn fields, with poke = (class, field, value)
    replacing one of them."""

    def make(cls, **subs):
        kwargs = {**drawn[cls], **subs}
        if poke is not None and poke[0] is cls:
            kwargs[poke[1]] = poke[2]
        return cls(**kwargs)

    return make(PlannerConfig, **{name: make(cls) for name, cls in SUB_CONFIGS.items()})


def assert_plans_keep_the_contract(config, name=None):
    """Every planner plans config within the contract, or, when name is the
    poked field, raises a ValueError that names it when the run starts."""
    # a coarser finite spacing may legitimately step over the thin wall
    spacing = config.motion_resolution
    if spacing is not None and WALL_RESOLUTION < spacing < math.inf:
        return
    for planner, budget in FUZZ_BUDGETS.items():
        budgeted = dataclasses.replace(config, max_iterations=min(config.max_iterations, budget))
        try:
            run = PLANNERS[planner](WALL, budgeted)
        except ValueError as exc:
            if name is not None and re.search(rf"\b{name}\b", str(exc)):
                continue
            raise
        assert contract_violations(WALL, run) == [], (planner, config)


# no shrinking: each example already tries every field, and notes the one that failed
@settings(
    max_examples=2, deadline=None, derandomize=True, phases=[Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_config_fuzz(data):
    """Each field set to each odd value, on drawn in-range values of the rest:
    construction or the plan raises a ValueError that names the field, or the
    config plans within the contract on a 2-D wall."""
    drawn = {cls: data.draw(st.fixed_dictionaries(fields)) for cls, fields in IN_RANGE.items()}
    assert_plans_keep_the_contract(build(drawn))
    for cls, fields in IN_RANGE.items():
        names = [*fields, *SUB_CONFIGS] if cls is PlannerConfig else list(fields)
        for name in names:
            odd = (None, *ODD) if name in SUB_CONFIGS else ODD
            for value in odd:
                try:
                    config = build(drawn, (cls, name, value))
                except ValueError as exc:
                    assert re.search(rf"\b{name}\b", str(exc)), (cls.__name__, name, value, exc)
                    continue
                note(f"{cls.__name__}.{name} = {value!r}")
                assert_plans_keep_the_contract(config, name)
