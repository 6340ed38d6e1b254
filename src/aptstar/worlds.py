"""Deterministic generators for the synthetic benchmark world families.

Two families over the unit hypercube: a dividing wall with narrow gaps
(DW) and random axis-aligned hyperrectangles (RR), plus an empty world.
The canonical start is (0.05, 0.5, ..., 0.5) and the canonical goal
(0.95, 0.5, ..., 0.5). Every emitted world is validated feasible by a
coarse grid search over the first two dimensions.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    HyperRectangle,
    ProblemInstance,
    State,
    WorldModel,
    is_state_valid,
    states_valid,
)

FAMILIES = ("empty", "dividing_wall", "random_rectangles")


@dataclass(frozen=True)
class WorldSpec:
    family: str
    dimension: int
    seed: int = 0
    # dividing-wall parameters
    gap_count: int = 2
    gap_width: float = 0.1
    wall_thickness: float = 0.1
    # random-rectangles parameters
    obstacle_count: int = 10
    width_range: tuple[float, float] = (0.1, 0.4)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown world family {self.family!r}")
        if self.dimension < 2 and self.family != "empty":
            raise ValueError("obstacle families require dimension >= 2")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        lo, hi = self.width_range
        if not 0.0 < lo <= hi < 0.5:
            raise ValueError("width_range must lie inside (0, 0.5)")

    @property
    def world_id(self) -> str:
        return f"{self.family}-d{self.dimension}-s{self.seed}"


def canonical_start_goal(n: int) -> tuple[State, State]:
    start = np.full(n, 0.5)
    goal = np.full(n, 0.5)
    start[0] = 0.05
    goal[0] = 0.95
    return start, goal


def _unit_bounds(n: int) -> HyperRectangle:
    return HyperRectangle(np.zeros(n), np.ones(n))


def make_empty(spec: WorldSpec) -> WorldModel:
    return WorldModel(_unit_bounds(spec.dimension))


def make_dividing_wall(spec: WorldSpec) -> WorldModel:
    """Wall slab at x1 = 0.5 pierced by seeded, non-overlapping gaps along x2.

    The wall and gaps live in the first two axes; obstacles span [0, 1] in
    every remaining dimension.
    """
    n = spec.dimension
    if spec.gap_count < 1:
        raise ValueError("need at least one gap")
    w = spec.gap_width
    if not 0.0 < w < 1.0 or spec.gap_count * w >= 1.0:
        raise ValueError("gaps exceed the wall extent")
    rng = np.random.default_rng([int(spec.seed), 0x57A11])
    centers = None
    for _ in range(1000):
        cand = np.sort(rng.uniform(w / 2.0, 1.0 - w / 2.0, size=spec.gap_count))
        if spec.gap_count == 1 or np.min(np.diff(cand)) > w:
            centers = cand
            break
    if centers is None:
        raise ValueError("could not place non-overlapping gaps")

    x_lo = 0.5 - spec.wall_thickness / 2.0
    x_hi = 0.5 + spec.wall_thickness / 2.0
    segments = []
    lo = 0.0
    for c in centers:
        hi = c - w / 2.0
        if hi - lo > 1e-12:
            segments.append((lo, hi))
        lo = c + w / 2.0
    if 1.0 - lo > 1e-12:
        segments.append((lo, 1.0))
    if not segments:
        raise ValueError("gaps cover the entire wall; no obstacle left")

    obstacles = []
    for lo, hi in segments:
        mn = np.zeros(n)
        mx = np.ones(n)
        mn[0], mx[0] = x_lo, x_hi
        mn[1], mx[1] = lo, hi
        obstacles.append(HyperRectangle(mn, mx))
    world = WorldModel(_unit_bounds(n), tuple(obstacles))
    grid = max(64, int(math.ceil(4.0 / w)))
    if not is_feasible(world, grid=grid):
        raise ValueError("generated dividing wall is infeasible")
    return world


def make_random_rectangles(spec: WorldSpec) -> WorldModel:
    """Seeded random hyperrectangles; regenerated until the world is feasible."""
    n = spec.dimension
    if spec.obstacle_count < 0:
        raise ValueError("obstacle_count must be nonnegative")
    start, goal = canonical_start_goal(n)
    lo, hi = spec.width_range
    for attempt in range(100):
        rng = np.random.default_rng([int(spec.seed), 0x4EC7, attempt])
        obstacles = []
        ok = True
        for _ in range(spec.obstacle_count):
            for _ in range(1000):
                center = rng.uniform(0.0, 1.0, size=n)
                widths = rng.uniform(lo, hi, size=n)
                mn = np.clip(center - widths / 2.0, 0.0, 1.0)
                mx = np.clip(center + widths / 2.0, 0.0, 1.0)
                box = HyperRectangle(mn, mx)
                if not (box.contains(start) or box.contains(goal)):
                    obstacles.append(box)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        world = WorldModel(_unit_bounds(n), tuple(obstacles))
        if is_feasible(world):
            return world
    raise ValueError("could not generate a feasible random-rectangles world")


def make_world(spec: WorldSpec) -> WorldModel:
    if spec.family == "empty":
        return make_empty(spec)
    if spec.family == "dividing_wall":
        return make_dividing_wall(spec)
    return make_random_rectangles(spec)


def make_problem(spec: WorldSpec) -> ProblemInstance:
    world = make_world(spec)
    start, goal = canonical_start_goal(spec.dimension)
    return ProblemInstance(world, start, (goal,))


def free_cells(world: WorldModel, grid: int = 64) -> np.ndarray:
    """Validity of the grid-cell centers, one states_valid call per grid row.

    Entry [i, j] is the state ((i + 0.5) / grid, (j + 0.5) / grid, 0.5, ...).
    In one dimension the result is the single row over the first axis.
    Row by row because states_valid's temporary holds rows x boxes x n
    values; one call over all grid^2 cells raised peak memory.
    """
    n = world.dimension
    centers = (np.arange(grid) + 0.5) / grid
    if n == 1:
        return states_valid(world, centers[:, None])
    row = np.full((grid, n), 0.5)
    row[:, 1] = centers
    free = np.empty((grid, grid), dtype=bool)
    for i in range(grid):
        row[:, 0] = centers[i]
        free[i] = states_valid(world, row)
    return free


def is_feasible(world: WorldModel, grid: int = 64) -> bool:
    """Coarse BFS over the first two dimensions (others held at 0.5).

    Sound for extruded obstacle families; random-rectangle generation
    retries on failure, so a conservative screen is enough here.
    """
    n = world.dimension
    start, goal = canonical_start_goal(n)
    if not (is_state_valid(world, start) and is_state_valid(world, goal)):
        return False
    free = free_cells(world, grid)
    if n == 1:
        si = min(int(start[0] * grid), grid - 1)
        gi = min(int(goal[0] * grid), grid - 1)
        lo_i, hi_i = min(si, gi), max(si, gi)
        return bool(free[lo_i : hi_i + 1].all())

    def cell(x):
        return (
            min(int(x[0] * grid), grid - 1),
            min(int(x[1] * grid), grid - 1),
        )

    s = cell(start)
    g = cell(goal)
    # the start/goal cells are valid states even if the cell center is not
    free[s] = True
    free[g] = True
    seen = np.zeros_like(free)
    seen[s] = True
    queue = deque([s])
    while queue:
        i, j = queue.popleft()
        if (i, j) == g:
            return True
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < grid and 0 <= nj < grid and free[ni, nj] and not seen[ni, nj]:
                seen[ni, nj] = True
                queue.append((ni, nj))
    return False
