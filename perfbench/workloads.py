"""The world set, the query set and the three planner workloads.

World set, shared by every workload: ``dividing_wall`` at d = 2, 4 and 8,
``random_rectangles`` at d = 2 (default 10 boxes) and at d = 4 (60 boxes,
widths 0.25-0.45). For each (family, d) the first two world seeds whose
straight start-goal segment is blocked are used, so no query can be solved
by the straight line without work.

Left out on purpose:

- ``random_rectangles`` at d = 8: at 60 boxes, seeds 0-9 all leave the
  straight segment free, so every planner returns ``c_min`` after zero
  batches and measures nothing.
- ``rrt_connect``: a query takes 2-10 ms, which no workload length makes
  steady, and it exercises no layer the three workloads miss.

Queries: every world is planned with ``SEEDS_PER_WORLD`` planner seeds drawn
from the benchmark seed. The worlds stay fixed across benchmark seeds: with
worlds drawn from the benchmark seed, one pass of ``apt`` at 6 batches took
2.9-8.1 s over five seeds, a spread no bound could absorb.

Every query runs in wall-clock mode, ``max_iterations`` = the workload's
budget and ``max_time`` far above the run length: the iteration budget fixes
the work, and event timestamps are wall seconds from the planner's clock.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from aptstar.geometry import ProblemInstance, default_motion_resolution
from aptstar.planner import PlannerConfig
from aptstar.worlds import WorldSpec, make_problem

from .probe import Speedometer, scale

# (label, family, dimension, extra WorldSpec fields)
FAMILIES = (
    ("dw-d2", "dividing_wall", 2, {}),
    ("dw-d4", "dividing_wall", 4, {}),
    ("dw-d8", "dividing_wall", 8, {}),
    ("rr-d2", "random_rectangles", 2, {}),
    ("rr-d4", "random_rectangles", 4, {"obstacle_count": 60, "width_range": (0.25, 0.45)}),
)
WORLDS_PER_FAMILY = 2
SEEDS_PER_WORLD = 30
# world seeds tried per (family, d) before the workload counts as broken
SCAN_LIMIT = 64
SETUP_REPEATS = 3
# far above any run, so that only the iteration budget stops a query
WALL_LIMIT_S = 3600.0
# apt and bit share it, so that their queries are identical
BATCH_BUDGET = 2


@dataclass(frozen=True)
class Workload:
    name: str
    planner: str
    budget: int
    budget_unit: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "apt", "apt", BATCH_BUDGET, "batches",
            "Exercises force prolation: the elliptical neighbor query and its "
            "frame builds take most of the run.",
        ),
        Workload(
            "bit", "bit", BATCH_BUDGET, "batches",
            "Same queries and budget as apt with zero charge: one isotropic "
            "round per query and no frames. The control on which a "
            "neighbor-region change must show no change.",
        ),
        Workload(
            "irrt", "informed_rrt_star", 200, "iterations",
            "Never calls the elliptical query. One tree insert and long "
            "rewire edges per sample, so it uses the collision layer "
            "differently from apt and bit.",
        ),
    )
}


class WorkloadError(RuntimeError):
    """The workload cannot be built as specified."""


@dataclass(frozen=True)
class World:
    label: str
    spec: WorldSpec
    problem: ProblemInstance


@dataclass(frozen=True)
class Query:
    world: World
    rng_seed: int
    first: bool  # the world's first planner seed; these form the warm-up pass

    @property
    def label(self) -> str:
        return f"{self.world.label}/r{self.rng_seed}"

    def config(self, workload: Workload) -> PlannerConfig:
        return PlannerConfig(
            max_iterations=workload.budget, max_time=WALL_LIMIT_S, rng_seed=self.rng_seed
        )


def obstacle_boxes(problem: ProblemInstance) -> list[tuple[list[float], list[float]]]:
    return [(o.min_corner.tolist(), o.max_corner.tolist()) for o in problem.world.obstacles]


def straight_segment_free(problem: ProblemInstance, oracles) -> bool:
    """Is the straight start-goal segment collision-free, by the independent checker?"""
    world = problem.world
    return any(
        oracles.motion_valid_fine(
            obstacle_boxes(problem),
            world.bounds.min_corner.tolist(),
            world.bounds.max_corner.tolist(),
            problem.start.tolist(),
            goal.tolist(),
            default_motion_resolution(world),
        )
        for goal in problem.goals
    )


def _timed_build(spec: WorldSpec, speed: Speedometer) -> tuple[ProblemInstance, float]:
    """The problem, and the scaled seconds ``make_problem`` took."""
    t0 = time.perf_counter()
    problem = make_problem(spec)
    return problem, (time.perf_counter() - t0) * scale(*speed.probes())


def scan_worlds(oracles, speed: Speedometer) -> tuple[list[World], float]:
    """The world set, and the scaled seconds its ``make_problem`` calls took.

    Fails if a (family, d) has fewer than two blocked seeds among the first
    ``SCAN_LIMIT``, so a generator change cannot leave a workload doing no
    work.
    """
    worlds: list[World] = []
    seconds = 0.0
    for label, family, dim, extra in FAMILIES:
        found = 0
        for seed in range(SCAN_LIMIT):
            spec = WorldSpec(family, dim, seed=seed, **extra)
            problem, dt = _timed_build(spec, speed)
            if straight_segment_free(problem, oracles):
                continue
            worlds.append(World(f"{label}-s{seed}", spec, problem))
            seconds += dt
            found += 1
            if found == WORLDS_PER_FAMILY:
                break
        else:
            raise WorkloadError(
                f"{label}: only {found} of the first {SCAN_LIMIT} seeds block the "
                f"straight start-goal segment; need {WORLDS_PER_FAMILY}"
            )
    return worlds, seconds


def rebuild(worlds: list[World], speed: Speedometer) -> float:
    """Scaled seconds to run ``make_problem`` for every world once more."""
    return sum(_timed_build(world.spec, speed)[1] for world in worlds)


def make_queries(worlds: list[World], seed: int) -> list[Query]:
    """Every world with ``SEEDS_PER_WORLD`` planner seeds drawn from ``seed``.

    No two queries share a planner seed, not even on different worlds: with
    one seed list for all worlds, their random streams are alike, and a
    benchmark seed that is lucky on one world is lucky on all of them.
    """
    return [
        Query(world, (seed * len(worlds) + w) * SEEDS_PER_WORLD + k, first=k == 0)
        for w, world in enumerate(worlds)
        for k in range(SEEDS_PER_WORLD)
    ]
