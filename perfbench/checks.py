"""Output checks against the independent oracles, and determinism digests.

A query is an error when the planner raised, or when its output fails a
check: every path segment must pass ``oracles.motion_valid_fine`` (not the
planner's own ``is_motion_valid``), the path must run from the start to a
goal, its length must equal ``c_final`` within 1e-9, ``c_final`` must be at
least ``c_min`` and, in 2-D, at least the visibility-graph optimum, event
costs must strictly decrease, and the planner must have drawn samples.
"""
from __future__ import annotations

import hashlib

import numpy as np

from aptstar.geometry import default_motion_resolution

from .workloads import Query, obstacle_boxes

LENGTH_TOL = 1e-9


class Checker:
    def __init__(self, oracles):
        self.oracles = oracles
        self._visibility: dict[str, float] = {}
        self._checked: dict[tuple[str, str], list[str]] = {}

    def visibility_optimum(self, query: Query) -> float:
        label = query.world.label
        if label not in self._visibility:
            problem = query.world.problem
            boxes = [(tuple(lo), tuple(hi)) for lo, hi in obstacle_boxes(problem)]
            self._visibility[label] = min(
                self.oracles.visibility_shortest_path(boxes, tuple(problem.start), tuple(g))
                for g in problem.goals
            )
        return self._visibility[label]

    def check(self, query: Query, run) -> list[str]:
        """Every way in which the run's output is wrong; empty when it is right.

        A path already checked for the same query is not checked again.
        """
        problems = []
        costs = [c for _, c in run.events]
        if any(b >= a for a, b in zip(costs, costs[1:])):
            problems.append("event costs do not strictly decrease")
        if run.counters.get("samples", 0) == 0:
            problems.append("trivial query: the planner drew no samples")
        if not run.success:
            return problems
        if run.path is None:
            return problems + ["success without a path"]
        key = (query.label, path_digest(run.path))
        if key not in self._checked:
            self._checked[key] = self._check_path(query, run.path)
        problems += self._checked[key]
        problem = query.world.problem
        length = sum(self.oracles.euclid(a, b) for a, b in zip(run.path, run.path[1:]))
        if abs(length - run.c_final) > LENGTH_TOL:
            problems.append(f"path length {length!r} != c_final {run.c_final!r}")
        if run.c_final < problem.c_min:
            problems.append(f"c_final {run.c_final!r} < c_min {problem.c_min!r}")
        if problem.world.dimension == 2:
            optimum = self.visibility_optimum(query)
            if run.c_final + LENGTH_TOL < optimum:
                problems.append(f"c_final {run.c_final!r} below the 2-D optimum {optimum!r}")
        return problems

    def _check_path(self, query: Query, path) -> list[str]:
        problem = query.world.problem
        world = problem.world
        problems = []
        if not np.array_equal(path[0], problem.start):
            problems.append("path does not start at the start state")
        if not any(np.array_equal(path[-1], g) for g in problem.goals):
            problems.append("path does not end at a goal")
        boxes = obstacle_boxes(problem)
        lo = world.bounds.min_corner.tolist()
        hi = world.bounds.max_corner.tolist()
        resolution = default_motion_resolution(world)
        for i, (a, b) in enumerate(zip(path, path[1:])):
            if not self.oracles.motion_valid_fine(boxes, lo, hi, a.tolist(), b.tolist(), resolution):
                problems.append(f"segment {i} collides (independent checker)")
        return problems


def path_digest(path) -> str:
    h = hashlib.sha256()
    for state in path:
        h.update(np.asarray(state, dtype=float).tobytes())
    return h.hexdigest()


def query_digest(query: Query, run) -> str:
    """Hash of the query's event costs and work counters (not its timestamps)."""
    h = hashlib.sha256(query.label.encode())
    for _, cost in run.events:
        h.update(float(cost).hex().encode())
    for key in sorted(run.counters):
        h.update(f"{key}={run.counters[key]};".encode())
    return h.hexdigest()


def workload_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()
