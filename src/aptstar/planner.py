"""Anytime planners: the adaptive prolated batch planner and three baselines.

All planners share the PlannerConfig / PlannerRun contract, and each run
sits on one ``_Run``: the seeded RNG, the motion resolution, the work
counters, the budget clock, the start tree and the incumbent solution.
Runs are single-threaded and fully deterministic under an iteration budget:
event timestamps are then the batch (or sample-iteration) index, so
identical seeds reproduce bit-identical event logs. Under a wall-clock
budget, timestamps are seconds on a monotonic clock since the run began.
"""
from __future__ import annotations

import heapq
import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .adaptive import (
    BatchConfig,
    BatchState,
    ChargeConfig,
    adapt_batch_size,
    vertex_charge,
)
from .geometry import (
    HyperRectangle,
    InformedSet,
    ProblemInstance,
    State,
    default_motion_resolution,
    distance,
    is_int,
    is_motion_valid,
    is_state_valid,
    lebesgue_measure,
    sample_batch,
    sample_informed,  # noqa: F401  (perfbench times a layer under this name)
    sample_uniform,
    states_valid,
)
from .neighbors import (
    EllipsoidRegion,
    NeighborConfig,
    check_pair_distance,
    elliptical_nn_query,
    rnn_radius,
)

_EPS = 1e-12
# informed RRT* draws its informed samples this many at a time
_INFORMED_BLOCK = 64


def __getattr__(name: str):
    # no planner builds a k-d tree; only perfbench/layers.py's "planner.kd_build"
    # wrap asks for this name, so scipy loads then, and the name goes with the wrap
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _dist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return math.sqrt(float(d @ d))


def default_edge_length(n: int) -> float:
    """Max edge length for RRT-family planners, by dimension band."""
    if n <= 4:
        return 0.5
    if n <= 8:
        return 1.25
    return 3.0


@dataclass(frozen=True)
class PlannerConfig:
    max_time: float | None = None
    max_iterations: int | None = None
    goal_bias: float = 0.05
    eta: float = 1.001
    rewire_factor: float = 1.2
    motion_resolution: float | None = None
    max_edge_length: float | None = None
    neighbor: NeighborConfig = field(default_factory=NeighborConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    charge: ChargeConfig = field(default_factory=ChargeConfig)
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_time is None and self.max_iterations is None:
            raise ValueError("set max_time, max_iterations, or both")
        if self.max_time is not None and not self.max_time >= 0.0:
            raise ValueError("max_time must be nonnegative")
        if self.max_iterations is not None:
            if not is_int(self.max_iterations):
                raise ValueError("max_iterations must be an integer")
            if self.max_iterations < 0:
                raise ValueError("max_iterations must be nonnegative")
        if not 0.0 <= self.goal_bias < 1.0:
            raise ValueError("goal_bias must be in [0, 1)")
        # as with eta, a smaller factor would shrink the radius below the bound
        # that asymptotic optimality asks for; a tiny one underflows the radii
        if not self.rewire_factor >= 1.0:
            raise ValueError("rewire_factor must be at least 1")
        if not self.eta >= 1.0:
            raise ValueError("eta must be at least 1")
        # a segment check at infinite spacing tests only the end points
        if self.motion_resolution is not None and not 0.0 < self.motion_resolution < math.inf:
            raise ValueError("motion_resolution must be positive and finite")
        if self.max_edge_length is not None and not self.max_edge_length > 0.0:
            raise ValueError("max_edge_length must be positive")
        if not (is_int(self.rng_seed) and self.rng_seed >= 0):
            raise ValueError("rng_seed must be a nonnegative integer")
        for name, kind in (
            ("neighbor", NeighborConfig), ("batch", BatchConfig), ("charge", ChargeConfig)
        ):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}")


@dataclass
class PlannerRun:
    planner: str
    events: list[tuple[float, float]] = field(default_factory=list)
    success: bool = False
    path: list[State] | None = None
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def t_init(self) -> float:
        return self.events[0][0] if self.events else math.inf

    @property
    def c_init(self) -> float:
        return self.events[0][1] if self.events else math.inf

    @property
    def t_final(self) -> float:
        return self.events[-1][0] if self.events else math.inf

    @property
    def c_final(self) -> float:
        return self.events[-1][1] if self.events else math.inf


class SearchTree:
    """Rooted tree over states with cost-to-come bookkeeping.

    Besides the list of states, the tree keeps them as rows of a growable
    (m, n) array that doubles when full, so ``positions`` is a slice, not a
    re-stack. Rows are only appended, never rewritten: row i of a copy of
    ``positions`` stays vertex i while the tree grows. Each state is the tree's
    own copy, never a view that would keep a caller's array alive.
    """

    def __init__(self, root: State):
        root = np.array(root, dtype=float)
        self.states: list[State] = [root]
        self.parent: list[int] = [-1]
        self.g: list[float] = [0.0]
        self.children: list[list[int]] = [[]]
        self._rows = np.empty((16, root.size))
        self._rows[0] = root

    def __len__(self) -> int:
        return len(self.states)

    @property
    def positions(self) -> np.ndarray:
        """The states as an (len(tree), n) array."""
        return self._rows[: len(self.states)]

    def distances(self, x: State) -> np.ndarray:
        """Euclidean distance from x to every vertex."""
        return np.sqrt(((self.positions - x) ** 2).sum(axis=1))

    def add(self, state: State, parent: int, edge_cost: float) -> int:
        idx = len(self.states)
        state = np.array(state, dtype=float)
        if idx == len(self._rows):
            grown = np.empty((2 * idx, self._rows.shape[1]))
            grown[:idx] = self._rows
            self._rows = grown
        self._rows[idx] = state
        self.states.append(state)
        self.parent.append(parent)
        self.g.append(self.g[parent] + edge_cost)
        self.children.append([])
        self.children[parent].append(idx)
        return idx

    def is_ancestor(self, candidate: int, of: int) -> bool:
        v = of
        while v != -1:
            if v == candidate:
                return True
            v = self.parent[v]
        return False

    def reparent(self, v: int, new_parent: int, edge_cost: float) -> list[int]:
        """Re-hang v under new_parent and propagate g through the subtree.

        Returns the vertices whose g changed.
        """
        old = self.parent[v]
        if old != -1:
            self.children[old].remove(v)
        self.parent[v] = new_parent
        self.children[new_parent].append(v)
        delta = self.g[new_parent] + edge_cost - self.g[v]
        touched = []
        stack = [v]
        while stack:
            w = stack.pop()
            self.g[w] += delta
            touched.append(w)
            stack.extend(self.children[w])
        return touched

    def path_to(self, v: int) -> list[State]:
        out = []
        while v != -1:
            out.append(self.states[v])
            v = self.parent[v]
        out.reverse()
        return out


def extract_path(tree: SearchTree, goal_vertex: int) -> list[State]:
    """Root-to-goal state sequence for a connected goal vertex."""
    if not 0 <= goal_vertex < len(tree):
        raise ValueError("goal vertex not in tree")
    path = tree.path_to(goal_vertex)
    total = sum(distance(a, b) for a, b in zip(path, path[1:]))
    if abs(total - tree.g[goal_vertex]) > 1e-9:
        raise RuntimeError("stored cost-to-come disagrees with the path")
    return path


def _goal_distances(points: np.ndarray, goals: list[State]) -> np.ndarray:
    """Distance from each row of points to its nearest goal."""
    return np.min(
        np.stack([np.sqrt(np.einsum("ij,ij->i", points - g, points - g)) for g in goals]),
        axis=0,
    )


def _informed_set(problem: ProblemInstance, best_goal: int | None, c_best: float) -> InformedSet:
    """The informed set with foci at the start and at the incumbent's goal, or
    at the nearest goal before the first solution. Once the incumbent's goal is
    reached in a straight line its set has no interior, and c_best can only
    fall through a nearer goal: the nearest goal is then the focus. Callers
    stop before c_best reaches c_min, so that set always has an interior."""
    start = problem.start
    nearest = min(problem.goals, key=lambda g: distance(start, g))
    focus = nearest if best_goal is None else problem.goals[best_goal]
    c_focus = distance(start, focus)
    if c_best <= c_focus + _EPS:
        focus, c_focus = nearest, distance(start, nearest)
    return InformedSet(start, focus, c_best, c_focus)


class _Run:
    """What every planner run holds: the problem, the seeded RNG, the motion
    resolution, the work counters, the budget clock, the start tree and the
    incumbent solution (the connected goal vertices and the cheapest of them).

    Under an iteration budget the clock reads the index of the current
    iteration, so event logs are reproducible; under a time budget it reads
    wall seconds since the run began.
    """

    def __init__(self, problem: ProblemInstance, config: PlannerConfig, *counters: str):
        self.problem = problem
        self.config = config
        self.world = problem.world
        self.rng = np.random.default_rng(config.rng_seed)
        self._t0 = time.perf_counter()
        self._iteration = 0.0
        self.resolution = config.motion_resolution or default_motion_resolution(self.world)
        # below the spacing of the floats the world's coordinates take,
        # consecutive check points cannot differ
        corners = [*self.world.bounds.min_corner.tolist(), *self.world.bounds.max_corner.tolist()]
        spacing = math.ulp(max(map(abs, corners)))
        if self.resolution < spacing:
            raise ValueError(
                f"motion_resolution {self.resolution!r} is finer than the float spacing "
                f"{spacing!r} of the world's coordinates"
            )
        self.counters = dict.fromkeys(("samples", "collision_checks", *counters), 0)
        self.events: list[tuple[float, float]] = []
        self.tree = SearchTree(problem.start)
        self.goal_vertex: dict[int, int] = {}
        self.c_best = math.inf
        self.best_goal: int | None = None

    def now(self) -> float:
        if self.config.max_time is None:
            return self._iteration
        return time.perf_counter() - self._t0

    def out_of_time(self) -> bool:
        return self.config.max_time is not None and self.now() >= self.config.max_time

    def iterations(self) -> Iterator[int]:
        """Iteration indices until max_iterations or max_time is spent."""
        limit = self.config.max_iterations
        for i in itertools.count() if limit is None else range(limit):
            self._iteration = float(i)
            if self.out_of_time():
                return
            yield i

    def motion_ok(self, a: State, b: State) -> bool:
        self.counters["collision_checks"] += 1
        return is_motion_valid(self.world, a, b, self.resolution)

    def record_improvement(self) -> None:
        """Take each connected goal that beats the incumbent, with an event."""
        for gi, v in self.goal_vertex.items():
            if self.tree.g[v] < self.c_best - _EPS:
                self.c_best = self.tree.g[v]
                self.best_goal = gi
                self.events.append((self.now(), self.c_best))

    def finish(self, planner: str) -> PlannerRun:
        run = PlannerRun(planner, self.events, counters=self.counters)
        if self.best_goal is not None:
            run.success = True
            run.path = extract_path(self.tree, self.goal_vertex[self.best_goal])
        return run


class _AptRun(_Run):
    """One plan_apt run: the sample pool and the search state on top of
    ``_Run``, with the phases of a batch as methods.

    The pool is one (m, n) position array with a bool validity array beside
    it. ``sample`` appends a batch of informed draws to it, ``search`` grows
    the tree best-first (``expand`` connects pool members to a vertex,
    ``rewire`` re-hangs tree vertices under it), and ``prune`` drops what
    was connected and what can no longer improve the solution.
    """

    def __init__(self, problem: ProblemInstance, config: PlannerConfig):
        super().__init__(problem, config, "neighbor_queries", "shrink_rounds", "batches")
        self.goals = problem.goals
        self.nn_stats: dict[str, int] = {}
        # each vertex's goal distance, stored once for its heap keys
        self.h_tree = [self.h(problem.start)]
        self.pool = np.empty((0, self.world.dimension))
        self.pool_valid = np.zeros(0, dtype=bool)
        # set by each search: the pool's goal distances and its connected members
        self.h_pool = np.zeros(0)
        self.connected = np.zeros(0, dtype=bool)
        self.heap: list[tuple[float, int, int]] = []
        self.counter = itertools.count()
        # Edge validity is immutable for a static world, and rewiring retries
        # the same candidate edges across batches; memoize per (a, b) pair.
        self.motion_memo: dict[tuple[bytes, bytes], bool] = {}

    def h(self, x: State) -> float:
        return min(_dist(x, g) for g in self.goals)

    def add(self, state: State, parent: int, edge_cost: float, h: float) -> int:
        """Add a tree vertex with its goal distance h."""
        self.h_tree.append(h)
        return self.tree.add(state, parent, edge_cost)

    def motion_ok(self, a: State, b: State) -> bool:
        key = (a.tobytes(), b.tobytes())
        if key not in self.motion_memo:
            self.motion_memo[key] = super().motion_ok(a, b)
        return self.motion_memo[key]

    def push(self, v: int) -> None:
        key = self.tree.g[v] + self.h_tree[v]
        heapq.heappush(self.heap, (key, next(self.counter), v))

    def try_goal(self, v: int) -> None:
        tree = self.tree
        for gi, gstate in enumerate(self.goals):
            d = _dist(tree.states[v], gstate)
            if d <= 0.0:
                continue
            g_new = tree.g[v] + d
            existing = self.goal_vertex.get(gi)
            bound = self.c_best if existing is None else min(self.c_best, tree.g[existing])
            if g_new >= bound - _EPS:
                continue
            if not self.motion_ok(tree.states[v], gstate):
                continue
            if existing is None:
                self.goal_vertex[gi] = self.add(gstate, v, d, self.h(gstate))
            else:
                tree.reparent(existing, v, d)
            self.record_improvement()

    def sample(self, batch: int) -> None:
        """Draw batch informed samples into the pool with their validity."""
        informed = _informed_set(self.problem, self.best_goal, self.c_best)
        drawn = sample_batch(informed, self.world.bounds, self.rng, batch)
        self.counters["samples"] += batch
        self.pool = np.concatenate([self.pool, drawn])
        self.pool_valid = np.concatenate([self.pool_valid, states_valid(self.world, drawn)])

    def search(self, batch: int, charge: float) -> bool:
        """Expand vertices best-first until none can improve the solution;
        False when the time budget ran out first."""
        tree, n = self.tree, self.world.dimension
        # the query and the rewire gather from the batch's points: the pool,
        # then the tree as the batch began
        points = np.vstack([self.pool, tree.positions])
        # rewiring never re-hangs the root, so a batch that starts with the
        # root alone has nothing to rewire
        rows = points[len(self.pool):] if len(tree) > 1 else None
        valid = np.concatenate([self.pool_valid, np.ones(len(tree), dtype=bool)])
        self.h_pool = _goal_distances(self.pool, self.goals)
        self.connected = np.zeros(len(self.pool), dtype=bool)
        informed_measure = math.inf
        if math.isfinite(self.c_best):
            informed_measure = lebesgue_measure(self.c_best, self.problem.c_min, n)
        r = rnn_radius(batch, n, informed_measure, self.world.bounds.volume, self.config.eta)

        self.heap = []
        for v in range(len(tree)):
            self.push(v)
        processed: dict[int, float] = {}
        while self.heap:
            if self.out_of_time():
                return False
            key, _, v = heapq.heappop(self.heap)
            if key >= self.c_best - _EPS:
                continue
            if key > tree.g[v] + self.h_tree[v] + _EPS:
                continue  # stale entry; vertex was rewired to a better cost
            if v in processed and processed[v] <= tree.g[v] + _EPS:
                continue
            processed[v] = tree.g[v]
            self.counters["neighbor_queries"] += 1
            nbrs, region = elliptical_nn_query(
                tree.states[v], points, valid, r, self.config.neighbor, charge,
                stats=self.nn_stats,
            )
            self.expand(v, nbrs)
            # rewiring candidates come from the same region, both radii scaled
            if region is not None and rows is not None:
                self.rewire(v, region.scaled(self.config.rewire_factor), rows)
        return True

    def expand(self, v: int, nbrs: np.ndarray) -> None:
        """Connect v to its unconnected pool neighbors (an index array), nearest first."""
        tree = self.tree
        xv = tree.states[v]
        cand = nbrs[nbrs < len(self.pool)]
        cand = cand[~self.connected[cand]]
        rel = self.pool[cand] - xv
        dvec = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        # the loop's bound test on the incumbent as the call began; the
        # incumbent only falls during the call, so the loop tests again
        hopeful = (dvec > 0.0) & (tree.g[v] + dvec + self.h_pool[cand] < self.c_best - _EPS)
        cand, dvec = cand[hopeful], dvec[hopeful]
        for oi in np.lexsort((cand, dvec)):
            i = cand[oi]
            d = float(dvec[oi])
            if tree.g[v] + d + self.h_pool[i] >= self.c_best - _EPS:
                continue
            if not self.motion_ok(xv, self.pool[i]):
                continue
            w = self.add(self.pool[i], v, d, self.h(self.pool[i]))
            self.connected[i] = True
            self.push(w)
            self.try_goal(w)

    def rewire(self, v: int, region: EllipsoidRegion, rows: np.ndarray) -> None:
        """Re-hang the vertices in region under v where that is cheaper; rows
        are the tree's states as the batch began, so row w is vertex w."""
        tree = self.tree
        xv = tree.states[v]
        offsets = rows - xv
        cand = region.contains_offsets(offsets).nonzero()[0]
        rel = offsets[cand]
        rewire_d = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        gv = tree.g[v]
        for w, d in zip(cand.tolist(), rewire_d.tolist()):
            if w == v or w == 0 or d <= 0.0:
                continue
            if gv + d >= tree.g[w] - _EPS:
                continue
            if tree.is_ancestor(w, v):
                continue
            if not self.motion_ok(xv, tree.states[w]):
                continue
            for t in tree.reparent(w, v, d):
                self.push(t)
            self.record_improvement()

    def prune(self) -> None:
        """Drop the pool members connected this batch and, once a solution
        exists, the members and vertices that cannot improve it. Vertices cut
        off below a pruned one return to the pool as valid samples if they can.
        """
        keep = ~self.connected
        recycled: list[State] = []
        if math.isfinite(self.c_best):
            start, tree = self.problem.start, self.tree
            # invalid samples are pruned by the same informed-set rule as valid ones
            offsets = self.pool - start
            d_start = np.sqrt(np.einsum("ij,ij->i", offsets, offsets))
            keep &= d_start + self.h_pool < self.c_best
            protected = set()
            v = self.goal_vertex[self.best_goal]
            while v != -1:
                protected.add(v)
                v = tree.parent[v]
            goal_keys = {tuple(g) for g in self.goals}
            self.tree = SearchTree(tree.states[0])
            h_tree, self.h_tree = self.h_tree, self.h_tree[:1]
            idx_map = {0: 0}
            stack = [0]
            while stack:
                v = stack.pop()
                for w in tree.children[v]:
                    xw = tree.states[w]
                    fhat = _dist(start, xw) + h_tree[w]
                    if v in idx_map and (w in protected or fhat < self.c_best):
                        idx_map[w] = self.add(xw, idx_map[v], tree.g[w] - tree.g[v], h_tree[w])
                    elif fhat < self.c_best and tuple(xw) not in goal_keys:
                        recycled.append(xw)
                    stack.append(w)
            self.goal_vertex = {
                gi: idx_map[v] for gi, v in self.goal_vertex.items() if v in idx_map
            }
        self.pool = np.vstack([self.pool[keep], *recycled])
        self.pool_valid = np.concatenate(
            [self.pool_valid[keep], np.ones(len(recycled), dtype=bool)]
        )


def plan_apt(problem: ProblemInstance, config: PlannerConfig) -> PlannerRun:
    """Batch-wise informed planner with adaptive batches and prolated neighbors.

    Each batch: pick a batch size (m_default until the first solution, then
    from the informed hypervolume), draw that many informed samples into the
    pool (invalid draws are kept as repulsive charges), then grow and rewire
    the tree best-first where the candidate connections come from the
    force-prolated elliptical neighbor region. Goal connections are attempted
    directly from every vertex whose cost-to-come plus goal distance could
    still improve the solution, and improvements trigger informed pruning of
    samples and vertices. An equal m_min and m_max fixes the batch, and a
    zero k_e makes every region the r-ball.
    """
    # the largest charge a batch can carry
    check_pair_distance(config.neighbor, problem.world.dimension, config.charge.q_max)
    batch_state = BatchState()
    run = _AptRun(problem, config)

    run.try_goal(0)
    for _ in run.iterations():
        if run.c_best <= problem.c_min + _EPS:
            break
        if math.isfinite(run.c_best):
            batch = adapt_batch_size(
                run.c_best, problem.c_min, problem.world.dimension, config.batch, batch_state
            )
        else:
            batch = config.batch.m_default
        charge = vertex_charge(batch, config.charge, config.batch)
        run.counters["batches"] += 1
        run.sample(batch)
        finished = run.search(batch, charge)
        run.prune()
        if not finished:
            break

    run.counters["shrink_rounds"] = run.nn_stats.get("shrink_rounds", 0)
    return run.finish("apt")


def plan_batch_informed_trees(problem: ProblemInstance, config: PlannerConfig) -> PlannerRun:
    """Fixed-batch isotropic ablation: plan_apt with a fixed batch of
    m_default and zero k_e, so every region is the r-ball. The caller's
    batch range, k_e and charge config are ignored."""
    m = config.batch.m_default
    fixed = replace(config, batch=BatchConfig(m, m), neighbor=replace(config.neighbor, k_e=0.0))
    return replace(plan_apt(problem, fixed), planner="bit")


def _steer(a: State, b: State, d: float, max_edge: float) -> State:
    """b, or the point max_edge from a toward it; d is distance(a, b), which
    callers already hold (a row of SearchTree.distances equals it bit for bit)."""
    if d <= max_edge:
        return b
    return a + (b - a) * (max_edge / d)


def plan_rrt_connect(problem: ProblemInstance, config: PlannerConfig) -> PlannerRun:
    """Bidirectional feasible planner; the first solution is final."""
    run = _Run(problem, config)
    world, counters = run.world, run.counters
    max_edge = config.max_edge_length or default_edge_length(world.dimension)
    motion_ok = run.motion_ok

    goal = min(problem.goals, key=lambda g: distance(problem.start, g))
    # the first tree grows from the start side
    trees = [run.tree, SearchTree(goal)]
    a_is_start = True
    path = None

    for _ in run.iterations():
        x_rand = sample_uniform(world.bounds, run.rng)
        counters["samples"] += 1

        ta, tb = trees
        d_a = ta.distances(x_rand)
        ia = int(d_a.argmin())
        x_new = _steer(ta.states[ia], x_rand, float(d_a[ia]), max_edge)
        if is_state_valid(world, x_new) and motion_ok(ta.states[ia], x_new):
            wa = ta.add(x_new, ia, _dist(ta.states[ia], x_new))
            # greedily connect the other tree toward x_new
            d_b = tb.distances(x_new)
            current = int(d_b.argmin())
            d = float(d_b[current])
            reached = False
            while not run.out_of_time():
                x_step = _steer(tb.states[current], x_new, d, max_edge)
                d_step = distance(x_step, x_new)
                if d_step >= d > 0.0:
                    break  # the step moved nothing: max_edge is below an ulp here
                if not (is_state_valid(world, x_step) and motion_ok(tb.states[current], x_step)):
                    break
                current = tb.add(x_step, current, _dist(tb.states[current], x_step))
                d = d_step
                if d <= _EPS:
                    reached = True
                    break
            if reached:
                pa = ta.path_to(wa)
                pb = tb.path_to(current)
                if a_is_start:
                    path = pa + pb[::-1][1:]
                else:
                    path = pb + pa[::-1][1:]
                cost = sum(distance(p, q) for p, q in zip(path, path[1:]))
                run.events.append((run.now(), cost))
                break
        trees = [tb, ta]
        a_is_start = not a_is_start

    return PlannerRun(
        "rrt_connect", run.events, success=path is not None, path=path, counters=counters
    )


def plan_informed_rrt_star(problem: ProblemInstance, config: PlannerConfig) -> PlannerRun:
    """RRT* with isotropic RGG-radius neighbors and informed sampling after
    the first solution; records anytime improvement events."""
    run = _Run(problem, config, "neighbor_queries")
    world, tree, counters, rng = run.world, run.tree, run.counters, run.rng
    n = world.dimension
    max_edge = config.max_edge_length or default_edge_length(n)
    bounds_measure = world.bounds.volume
    goals = problem.goals
    c_min = problem.c_min
    goal_vertex = run.goal_vertex
    motion_ok = run.motion_ok
    # the informed set and its measure depend only on c_best and best_goal,
    # which change together: both are rebuilt once c_best has fallen, and the
    # rows drawn from the old set are dropped
    informed: InformedSet | None = None
    informed_measure = math.inf
    informed_rows: Iterator[State] = iter(())

    for _ in run.iterations():
        c_best = run.c_best
        if c_best <= c_min + _EPS:
            break
        if math.isfinite(c_best) and (informed is None or informed.c_current != c_best):
            informed = _informed_set(problem, run.best_goal, c_best)
            informed_measure = lebesgue_measure(c_best, c_min, n)
            informed_rows = iter(())

        counters["samples"] += 1
        if informed is not None:
            x_rand = next(informed_rows, None)
            if x_rand is None:
                informed_rows = iter(sample_batch(informed, world.bounds, rng, _INFORMED_BLOCK))
                x_rand = next(informed_rows)
        elif rng.random() < config.goal_bias:
            x_rand = goals[int(rng.integers(len(goals)))]
        else:
            x_rand = sample_uniform(world.bounds, rng)

        d_rand = tree.distances(x_rand)
        iv = int(d_rand.argmin())
        x_new = _steer(tree.states[iv], x_rand, float(d_rand[iv]), max_edge)
        if not is_state_valid(world, x_new):
            continue
        d_new = d_rand if x_new is x_rand else tree.distances(x_new)
        if float(d_new.min()) <= _EPS:
            continue

        counters["neighbor_queries"] += 1
        radius = min(
            config.rewire_factor
            * rnn_radius(len(tree) + 1, n, informed_measure, bounds_measure, config.eta),
            max_edge,
        )
        nbrs = (d_new <= radius).nonzero()[0]
        if not d_new[iv] <= radius:
            nbrs = np.append(nbrs, iv)
        d_nb = d_new[nbrs]
        g = tree.g
        g_nb = np.array([g[i] for i in nbrs.tolist()])

        # cheapest cost-to-come first; indices are unique, so they break ties
        parent = -1
        for i in nbrs[np.lexsort((nbrs, g_nb + d_nb))].tolist():
            if motion_ok(tree.states[i], x_new):
                parent = i
                break
        if parent == -1:
            continue
        w = tree.add(x_new, parent, float(d_new[parent]))

        # The prefilter reads g as it was before any rewiring; g only falls
        # during the loop, so the loop tests again. g[w] stays fixed, since no
        # ancestor of w is re-hung, and neither the parent nor the root can
        # pass: both would need g[w] + d < g[i].
        gw = g[w]
        better = gw + d_nb < g_nb - _EPS
        for i, d in zip(nbrs[better].tolist(), d_nb[better].tolist()):
            if gw + d >= g[i] - _EPS:
                continue
            if tree.is_ancestor(i, w):
                continue
            if motion_ok(x_new, tree.states[i]):
                tree.reparent(i, w, d)
        run.record_improvement()

        # every goal is tried before the incumbent is updated, unlike apt's
        # try_goal, which records after each goal; d is distance()'s own
        # arithmetic without its argument checks
        for gi, gstate in enumerate(goals):
            d = math.sqrt(((x_new - gstate) ** 2).sum())
            if d <= 0.0 or d > max_edge:
                continue
            g_new = g[w] + d
            existing = goal_vertex.get(gi)
            bound = run.c_best if existing is None else min(run.c_best, g[existing])
            if g_new >= bound - _EPS:
                continue
            if motion_ok(x_new, gstate):
                if existing is None:
                    goal_vertex[gi] = tree.add(gstate, w, d)
                else:
                    tree.reparent(existing, w, d)
        run.record_improvement()

    return run.finish("informed_rrt_star")


PLANNERS = {
    "apt": plan_apt,
    "bit": plan_batch_informed_trees,
    "rrt_connect": plan_rrt_connect,
    "informed_rrt_star": plan_informed_rrt_star,
}
