"""Property test of the planner-output contract over small random box worlds.

Every planner, on every generated problem, must return a path that the
independent fine checker accepts, whose length is its reported final cost,
that costs no less than the straight-line bound (and, on a world whose boxes
span the bounds past the first two axes, a bound built from the 2-D
visibility graph optimum), and whose improvement events strictly
decrease. A config fuzz holds every config to the same contract, or to a
ValueError that names the offending field, at construction or when a run
starts.
"""
import dataclasses
import math
import re
import time

import numpy as np
import pytest
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
from aptstar.planner import PLANNERS, PlannerConfig, PlannerRun
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
    return _with_endpoints(WorldModel(HyperRectangle(np.zeros(n), np.ones(n)), tuple(boxes)), rng)


def extruded_problem(seed: int) -> ProblemInstance | None:
    """A unit-cube world of d = 3-6 whose one to four boxes, clipped at the
    bounds on the first two axes, span the bounds on every other axis; the
    start and goals as in ``random_problem``, so they differ on those axes
    too."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    boxes = []
    for _ in range(int(rng.integers(1, 5))):
        center = rng.uniform(0.0, 1.0, 2)
        half = rng.uniform(0.02, 0.4, 2)
        lo, hi = np.zeros(n), np.ones(n)
        lo[:2] = np.clip(center - half, 0.0, 1.0)
        hi[:2] = np.clip(center + half, 0.0, 1.0)
        boxes.append(HyperRectangle(lo, hi))
    return _with_endpoints(WorldModel(HyperRectangle(np.zeros(n), np.ones(n)), tuple(boxes)), rng)


def _with_endpoints(world: WorldModel, rng) -> ProblemInstance | None:
    n = world.dimension

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
    if is_extruded(world):
        bound = extruded_bound(problem)
        if run.c_final < bound - LENGTH_TOL:
            out.append(f"c_final {run.c_final!r} below the extruded bound {bound!r}")
    return out


def is_extruded(world: WorldModel) -> bool:
    """Is the world at least 2-D, with every box spanning the bounds on
    every axis past the first two?"""
    lo, hi = world.bounds.min_corner[2:], world.bounds.max_corner[2:]
    return world.dimension >= 2 and all(
        np.all(o.min_corner[2:] <= lo) and np.all(o.max_corner[2:] >= hi)
        for o in world.obstacles
    )


def extruded_bound(problem: ProblemInstance) -> float:
    """A lower bound on the length of a path from the start to a goal on an
    extruded unit-cube world (see ``is_extruded``).

    Such a world is the product of its (x0, x1) section and a box on the
    other axes, so a path is no shorter than sqrt(v^2 + |dz|^2): v is the
    length of its projection on the section, at least the section's
    visibility optimum between the projected endpoints, and dz is the
    endpoints' offset on the other axes. Paths that move on those axes in
    step with their section arc length come as close to it as the closed
    boxes allow, so the bound is the optimum, unless the visibility graph
    slides a path between a box and a face of the bounds that it meets. In
    2-D, dz is empty and this is the visibility optimum.
    """
    section = [
        (tuple(o.min_corner[:2].tolist()), tuple(o.max_corner[:2].tolist()))
        for o in problem.world.obstacles
    ]
    start = problem.start.tolist()
    return min(
        math.hypot(
            visibility_shortest_path(section, tuple(start[:2]), tuple(g[:2])),
            euclid(start[2:], g[2:]),
        )
        for g in (g.tolist() for g in problem.goals)
    )


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


@settings(CONTRACT, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), planner=st.sampled_from(sorted(PLANNERS)))
def test_planner_output_contract_on_extruded_worlds(seed, planner):
    problem = extruded_problem(seed)
    if problem is None:
        return
    assert is_extruded(problem.world)
    config = PlannerConfig(max_iterations=BUDGETS[planner], rng_seed=seed % 1000)
    run = PLANNERS[planner](problem, config)
    assert contract_violations(problem, run) == []


# d = 3: a wall over x0 in [0.4, 0.6] and x1 in [0.1, 0.8], spanning x2; the
# start and goal differ by 0.6 on x2
HAND = ProblemInstance(
    WorldModel(
        HyperRectangle(np.zeros(3), np.ones(3)),
        (HyperRectangle([0.4, 0.1, 0.0], [0.6, 0.8, 1.0]),),
    ),
    np.array([0.1, 0.7, 0.2]),
    (np.array([0.9, 0.7, 0.8]),),
)
# over the wall's top corners: 2 sqrt(0.3^2 + 0.1^2) + 0.2 on the section
HAND_BOUND = math.hypot(2.0 * math.sqrt(0.1) + 0.2, 0.6)


def hand_path(clearance: float) -> list[np.ndarray]:
    """Over the wall at x1 = 0.8 + clearance, moving on x2 in step with the
    section's arc length."""
    section = [(0.1, 0.7), (0.4, 0.8 + clearance), (0.6, 0.8 + clearance), (0.9, 0.7)]
    arc = np.cumsum([0.0] + [euclid(a, b) for a, b in zip(section, section[1:])])
    z = 0.2 + 0.6 * arc / arc[-1]
    return [np.array([x0, x1, x2]) for (x0, x1), x2 in zip(section, z)]


def run_along(path) -> PlannerRun:
    length = sum(euclid(a, b) for a, b in zip(path, path[1:]))
    return PlannerRun("hand", events=[(0.0, length)], success=True, path=path)


def test_extruded_bound_by_hand_at_d3():
    assert is_extruded(HAND.world)
    assert extruded_bound(HAND) == pytest.approx(HAND_BOUND, rel=1e-15)
    # a path clear of the wall by 1e-4 is valid and within 2e-4 of the bound
    near = run_along(hand_path(1e-4))
    assert contract_violations(HAND, near) == []
    assert HAND_BOUND < near.c_final < HAND_BOUND + 2e-4
    # on the wall's top face it collides; the straight segment, shorter than
    # the bound, collides and breaks it
    assert contract_violations(HAND, run_along(hand_path(0.0)))[0].endswith("collides")
    straight = contract_violations(HAND, run_along([HAND.start, HAND.goals[0]]))
    assert straight[-1].startswith(f"c_final {HAND.c_min!r} below the extruded bound")
    for name, planner in sorted(PLANNERS.items()):
        run = planner(HAND, PlannerConfig(max_iterations=BUDGETS[name], rng_seed=3))
        assert contract_violations(HAND, run) == [], name


@pytest.mark.parametrize("d", [4, 8, 16])
def test_dividing_walls_are_extruded(d):
    for seed in range(10):
        problem = make_problem(WorldSpec("dividing_wall", d, seed=seed))
        assert is_extruded(problem.world)
        # the canonical endpoints share every coordinate past the first two
        assert problem.start[2:].tolist() == problem.goals[0][2:].tolist()


def test_visibility_oracle_blocks_the_bounds_face_a_box_meets():
    # a wall that meets the face x1 = 0 (or x1 = 1) leaves no way along that
    # face: the path goes round its far end, 2 hypot(0.3, 0.7) + 0.2
    want = 2.0 * math.hypot(0.3, 0.7) + 0.2
    for wall, y in ((((0.4, 0.0), (0.6, 0.8)), 0.1), (((0.4, 0.2), (0.6, 1.0)), 0.9)):
        got = visibility_shortest_path([wall], (0.1, y), (0.9, y))
        assert got == pytest.approx(want, rel=1e-12)


def test_charge_only_keeps_the_contract():
    """A fixed batch with the force on, the ablation between bit and apt."""
    # at seed 4 a box blocks the start-goal segment, so every batch runs
    problem = make_problem(WorldSpec("random_rectangles", 4, seed=4))
    run = PLANNERS["apt"](problem, PlannerConfig(max_iterations=3, batch=BatchConfig(100, 100)))
    assert run.success
    assert contract_violations(problem, run) == []
    assert run.counters["batches"] == 3 and run.counters["samples"] == 300
    # the force prolates the regions: queries run more than one round
    assert run.counters["shrink_rounds"] > run.counters["neighbor_queries"]


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
FUZZ = settings(
    max_examples=2, deadline=None, derandomize=True, phases=[Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)


def draw_in_range(data) -> dict:
    return {cls: data.draw(st.fixed_dictionaries(fields)) for cls, fields in IN_RANGE.items()}


def fuzz(drawn):
    """Each field set to each odd value, on the drawn in-range values of the
    rest: construction or the plan raises a ValueError that names the field,
    or the config plans within the contract on a 2-D wall."""
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


@FUZZ
@given(data=st.data())
def test_config_fuzz(data):
    fuzz(draw_in_range(data))


FIXED_K_E = {"zero": st.just(0.0), "positive": st.floats(0.0, 3.0, exclude_min=True)}


@pytest.mark.parametrize("k_e", sorted(FIXED_K_E))
@FUZZ
@given(data=st.data())
def test_config_fuzz_on_a_fixed_batch(data, k_e):
    """The fuzz with m_min == m_max, which the drawn ranges never give, at a
    zero k_e (bit's config) and at a positive one (charge only)."""
    drawn = draw_in_range(data)
    m = data.draw(st.integers(1, 250))
    drawn[BatchConfig] = {"m_min": m, "m_max": m}
    drawn[NeighborConfig]["k_e"] = data.draw(FIXED_K_E[k_e])
    fuzz(drawn)
