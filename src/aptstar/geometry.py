"""Core state-space types, sampling, hypervolume, and collision predicates.

States are plain 1-D float64 numpy arrays. Worlds are axis-aligned
hyperrectangle bounds plus axis-aligned hyperrectangle obstacles; obstacles
are closed sets, so a point on an obstacle boundary is invalid.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

State = np.ndarray


def as_state(coords) -> State:
    """Coerce a coordinate sequence into a validated state array."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("state must be a 1-D sequence with at least one coordinate")
    if not np.all(np.isfinite(x)):
        raise ValueError("state coordinates must be finite")
    return x


def is_int(value) -> bool:
    """Is value an integer of any integer type other than bool? For config
    checks: a float count would fail later, where it is used."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class HyperRectangle:
    min_corner: State
    max_corner: State

    def __post_init__(self):
        object.__setattr__(self, "min_corner", as_state(self.min_corner))
        object.__setattr__(self, "max_corner", as_state(self.max_corner))
        if self.min_corner.size != self.max_corner.size:
            raise ValueError("corner dimensionality mismatch")
        if np.any(self.min_corner > self.max_corner):
            raise ValueError("min_corner must not exceed max_corner on any axis")
        # Python float corners for the scalar membership test
        object.__setattr__(
            self, "_corner_lists", (self.min_corner.tolist(), self.max_corner.tolist())
        )
        # every uniform draw scales by the widths, so they are built once
        widths = self.max_corner - self.min_corner
        widths.flags.writeable = False
        object.__setattr__(self, "widths", widths)

    @property
    def dimension(self) -> int:
        return self.min_corner.size

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.widths))

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, x: State) -> bool:
        """Closed-set membership: boundary points count as inside, NaN does not."""
        xs = np.asarray(x, dtype=float)
        lo, hi = self._corner_lists
        if xs.shape != (len(lo),):
            raise ValueError("dimensionality mismatch")
        for l, v, h in zip(lo, xs.tolist(), hi):
            if not l <= v <= h:
                return False
        return True

    def intersects(self, other: "HyperRectangle") -> bool:
        return bool(
            np.all(self.min_corner <= other.max_corner)
            and np.all(other.min_corner <= self.max_corner)
        )


@dataclass(frozen=True)
class WorldModel:
    bounds: HyperRectangle
    obstacles: tuple[HyperRectangle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for obs in self.obstacles:
            if obs.dimension != self.bounds.dimension:
                raise ValueError("obstacle dimensionality mismatch")
            if not obs.intersects(self.bounds):
                raise ValueError("obstacle does not intersect bounds")
        # stacked (mins, maxs) obstacle corners for states_valid
        n = self.dimension
        mins = np.array([o.min_corner for o in self.obstacles], dtype=float).reshape(-1, n)
        maxs = np.array([o.max_corner for o in self.obstacles], dtype=float).reshape(-1, n)
        object.__setattr__(self, "obstacle_corners", (mins, maxs))
        # Python floats for the scalar state and segment checks: the bounds
        # (lo, hi), and per obstacle two lists of (axis, lo, hi): the axes on
        # which the box does not cover the bounds, then those on which it
        # does. A point or segment inside the bounds is inside the box on
        # every axis that the box covers, so only the first list can
        # separate them.
        blo, bhi = self.bounds.min_corner.tolist(), self.bounds.max_corner.tolist()
        boxes = []
        for o in self.obstacles:
            cut, covered = [], []
            for k, lo, hi in zip(range(n), o.min_corner.tolist(), o.max_corner.tolist()):
                (cut if lo > blo[k] or hi < bhi[k] else covered).append((k, lo, hi))
            boxes.append((cut, covered))
        object.__setattr__(self, "corner_lists", (blo, bhi, boxes))

    def __getstate__(self):
        # is_motion_valid's compiled kernel cannot be pickled; it is rebuilt
        state = self.__dict__.copy()
        state.pop("_motion_kernel", None)
        return state

    @property
    def dimension(self) -> int:
        return self.bounds.dimension


@dataclass(frozen=True)
class ProblemInstance:
    world: WorldModel
    start: State
    goals: tuple[State, ...]

    def __post_init__(self):
        object.__setattr__(self, "start", as_state(self.start))
        object.__setattr__(self, "goals", tuple(as_state(g) for g in self.goals))
        if not self.goals:
            raise ValueError("at least one goal is required")
        n = self.world.dimension
        for name, x in (("start", self.start), *(("goal", g) for g in self.goals)):
            if x.size != n:
                raise ValueError(
                    f"{name} has {x.size} coordinates but the world has dimension {n}"
                )
        if not is_state_valid(self.world, self.start):
            raise ValueError("start state is invalid")
        for g in self.goals:
            if not is_state_valid(self.world, g):
                raise ValueError("goal state is invalid")
        if self.c_min <= 0.0:
            raise ValueError("start must be distinct from every goal")

    @property
    def c_min(self) -> float:
        """Straight-line lower bound: distance from start to the nearest goal."""
        return min(distance(self.start, g) for g in self.goals)


@dataclass(frozen=True)
class InformedSet:
    """Two-focus ellipsoid of states that could improve on the current cost.

    Stored, like ``neighbors.EllipsoidRegion``, as the prolate spheroid it
    is: the centre between the foci, the unit focal axis, the major radius
    c_current / 2 and the minor radius sqrt(c_current^2 - c_min^2) / 2, both
    infinite before a first solution.
    """

    focus_a: State
    focus_b: State
    c_current: float
    c_min: float
    center: State = field(init=False)
    axis: np.ndarray = field(init=False)
    major: float = field(init=False)
    minor: float = field(init=False)

    def __post_init__(self):
        fa, fb = as_state(self.focus_a), as_state(self.focus_b)
        object.__setattr__(self, "focus_a", fa)
        object.__setattr__(self, "focus_b", fb)
        c = self.c_current
        if math.isfinite(c) and c < self.c_min:
            raise ValueError("c_current below the focal distance")
        offset = fb - fa
        norm = math.sqrt(offset.dot(offset))
        object.__setattr__(self, "center", (fa + fb) / 2.0)
        # coincident foci (c_min = 0) leave a zero axis: the set is a ball, major == minor
        object.__setattr__(self, "axis", offset / norm if norm > 0.0 else offset)
        object.__setattr__(self, "major", c / 2.0)
        object.__setattr__(self, "minor", math.sqrt(c * c - self.c_min**2) / 2.0)

    def contains(self, x: State) -> bool:
        return distance(x, self.focus_a) + distance(x, self.focus_b) < self.c_current


def distance(a: State, b: State) -> float:
    """Euclidean distance between two states of equal dimensionality."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimensionality mismatch")
    return math.sqrt(((a - b) ** 2).sum())


def unit_ball_volume(n: int) -> float:
    """Lebesgue measure of the unit ball in n dimensions."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def lebesgue_measure(c_i: float, c_min: float, n: int) -> float:
    """Hypervolume of the two-focus hyperellipsoid with transverse diameter c_i.

    c_i is the diameter along the focal axis, c_min the focal distance.
    Evaluates to the interval length c_i at n = 1.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if c_min <= 0.0:
        raise ValueError("c_min must be positive")
    if c_i == math.inf:
        return math.inf
    if c_i < c_min:
        raise ValueError("c_i must not be below c_min")
    return (
        math.pi ** (n / 2.0)
        * c_i
        * (c_i * c_i - c_min * c_min) ** ((n - 1) / 2.0)
        / (2.0**n * math.gamma(n / 2.0 + 1.0))
    )


def orthonormal_basis(v: State) -> np.ndarray:
    """Orthonormal matrix whose first column is v normalized. The package
    builds no frame; the function stays for its tests and for
    ``perfbench``, which times a layer under this name.

    The remaining columns come from Gram-Schmidt over the standard basis,
    skipping the axis most parallel to v. A zero vector yields the identity.
    Python floats throughout: at planner dimensions per-call numpy overhead
    would dominate.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    norm = float(np.sqrt(np.sum(v * v)))
    if norm == 0.0:
        return np.eye(n)
    u0 = [float(vi) / norm for vi in v]
    cols = [u0]
    skip = max(range(n), key=lambda i: abs(u0[i]))
    for j in range(n):
        if j == skip or len(cols) == n:
            continue
        e = [0.0] * n
        e[j] = 1.0
        for u in cols:
            d = 0.0
            for k in range(n):
                d += u[k] * e[k]
            e = [e[k] - d * u[k] for k in range(n)]
        enorm = math.sqrt(sum(ek * ek for ek in e))
        if enorm < 1e-12:
            continue
        cols.append([ek / enorm for ek in e])
    if len(cols) != n:
        raise RuntimeError("failed to complete orthonormal basis")
    return np.array(cols).T


def sample_uniform(bounds: HyperRectangle, rng: np.random.Generator) -> State:
    """Uniform sample inside the box (degenerate axes collapse to the corner)."""
    return bounds.min_corner + rng.random(bounds.dimension) * bounds.widths


# consecutive rejected draws after which informed sampling gives up
_MAX_REJECTS = 100_000
# the most draws in one round of sample_batch: it keeps the round's temporary
# arrays small (16 KiB each at n = 8), since rounds of thousands of rows raised
# the planners' peak memory. Below _MAX_REJECTS, so only a run of rejections
# spanning rounds can reach that.
_MAX_ROUND = 256


def sample_informed(
    informed: InformedSet, bounds: HyperRectangle, rng: np.random.Generator
) -> State:
    """One uniform draw from the informed set intersected with the bounds:
    the only row of ``sample_batch(informed, bounds, rng, 1)``."""
    return sample_batch(informed, bounds, rng, 1)[0]


def sample_batch(
    informed: InformedSet, bounds: HyperRectangle, rng: np.random.Generator, count: int
) -> np.ndarray:
    """count uniform draws from the informed set intersected with the bounds,
    as a (count, n) array.

    Before a first solution (c_current infinite) the rows are uniform over
    the bounds, from one ``rng.random`` call. Otherwise each round draws k
    points y uniformly in the unit ball (a normalized standard normal row
    scaled by u^(1/n)) and maps them onto the spheroid with
    x = c + b*y + (a - b)(u.y)u (Gammell, Srinivasa and Barfoot, IROS 2014),
    which needs no rotation; the rows inside the closed bounds are kept in
    draw order. k is sized from the acceptance so far, up to _MAX_ROUND.
    Raises RuntimeError after _MAX_REJECTS consecutive rejected draws.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not math.isfinite(informed.c_current):
        return bounds.min_corner + rng.random((count, bounds.dimension)) * bounds.widths
    if informed.c_current <= informed.c_min:
        raise ValueError("informed set has no interior")
    center, axis, a, b = informed.center, informed.axis, informed.major, informed.minor
    n = center.size
    out = np.empty((count, n))
    filled = drawn = 0
    misses = 0  # rejected draws since the last kept one
    while filled < count:
        need = count - filled
        # a quarter more draws than the acceptance so far needs (all, at first)
        k = min(_MAX_ROUND, math.ceil(1.25 * need * (drawn + 1) / (filled + 1)))
        y = rng.standard_normal((k, n))
        norms = np.sqrt(np.einsum("ij,ij->i", y, y))
        # a zero row has no direction: it becomes NaN, which the bounds reject
        radii = rng.random(k) ** (1.0 / n)
        y *= np.divide(radii, norms, out=np.full(k, np.nan), where=norms > 0.0)[:, None]
        x = center + b * y + np.outer((a - b) * (y @ axis), axis)
        hits = np.flatnonzero(
            np.all((x >= bounds.min_corner) & (x <= bounds.max_corner), axis=1)
        )[:need]
        drawn += k
        if hits.size == 0:
            misses += k
            if misses >= _MAX_REJECTS:
                raise RuntimeError("informed sampling failed to hit the bounds")
            continue
        if misses + hits[0] >= _MAX_REJECTS:
            raise RuntimeError("informed sampling failed to hit the bounds")
        misses = k - 1 - int(hits[-1])
        out[filled : filled + hits.size] = x[hits]
        filled += hits.size
    return out


def is_state_valid(world: WorldModel, x: State) -> bool:
    """True iff x lies inside the bounds and inside no (closed) obstacle.

    Python floats throughout, on the lists is_motion_valid reads: once x is
    inside the bounds it is inside every box on the axes that box covers, so
    only the box's other axes are tested. Every comparison is exact, and NaN
    fails the bounds test.
    """
    xs = np.asarray(x, dtype=float)
    blo, bhi, boxes = world.corner_lists
    if xs.shape != (len(blo),):
        raise ValueError("dimensionality mismatch")
    xs = xs.tolist()
    for lo, v, hi in zip(blo, xs, bhi):
        if not lo <= v <= hi:
            return False
    for axes, _ in boxes:
        for k, lo, hi in axes:
            if xs[k] < lo or xs[k] > hi:
                break
        else:
            return False
    return True


def states_valid(world: WorldModel, points: np.ndarray) -> np.ndarray:
    """Row-wise is_state_valid over an (m, n) array of states, as a bool array."""
    points = np.asarray(points, dtype=float)
    b = world.bounds
    ok = np.all((points >= b.min_corner) & (points <= b.max_corner), axis=1)
    if world.obstacles:
        mins, maxs = world.obstacle_corners
        p = points[:, None, :]
        ok &= ~np.any(np.all((p >= mins) & (p <= maxs), axis=2), axis=1)
    return ok


def default_motion_resolution(world: WorldModel) -> float:
    """Sub-feature collision-check spacing: 1e-3 of the bounds diagonal."""
    return 1e-3 * world.bounds.diagonal


def is_motion_valid(world: WorldModel, a: State, b: State, resolution: float) -> bool:
    """Check the straight segment a-b at spacing <= resolution, endpoints included.

    The check runs in a kernel generated for the world (see
    ``_compile_motion_kernel``), compiled on the world's first call and kept
    on it.
    """
    if not resolution > 0.0:  # also rejects NaN
        raise ValueError("resolution must be positive")
    av = np.asarray(a, dtype=float).tolist()
    bv = np.asarray(b, dtype=float).tolist()
    n = len(world.corner_lists[0])
    if len(av) != n or len(bv) != n:
        raise ValueError("dimensionality mismatch")
    kernel = world.__dict__.get("_motion_kernel")
    if kernel is None:
        kernel = _compile_motion_kernel(*world.corner_lists)
        object.__setattr__(world, "_motion_kernel", kernel)
    return kernel(av, bv, resolution)


def _compile_motion_kernel(blo, bhi, boxes):
    """``kernel(av, bv, resolution)``: the segment check of one world, as a
    function generated for its bounds and boxes and compiled.

    The endpoints are unpacked into locals a0.., b0.., and the bounds are
    inlined as constants. Boxes are grouped by their tuple of cut axes (see
    ``WorldModel.corner_lists``); group i becomes one loop over the tuple
    ``G<i>``, whose rows hold each box's (lo, hi) on the cut axes and then,
    as one tuple, on the covered axes. So the code grows with the number of
    cut-axis patterns, not with the number of boxes. Per box the kernel
    slab-clips the segment's parameter interval against the cut axes, then
    tests the discretized points t = i / steps that can fall inside it, and
    confirms a hit on the covered axes. These are the float operations of a
    plain loop over the boxes (``tests/oracles.py::motion_valid_slab``), in
    the same order; only the order of the boxes changes, which cannot change
    the answer, since any box hit gives False.
    """
    n = len(blo)
    namespace = {"ceil": math.ceil, "floor": math.floor, "sqrt": math.sqrt}
    a = [f"a{k}" for k in range(n)]
    b = [f"b{k}" for k in range(n)]
    # the bounds box is convex, so endpoint containment covers the segment
    inside = (f"{lo!r} <= {x} <= {hi!r}" for p in (a, b) for lo, hi, x in zip(blo, bhi, p))
    src = [
        "def kernel(av, bv, resolution):",
        f"    {', '.join(a)}, = av",
        f"    {', '.join(b)}, = bv",
        f"    if not ({' and '.join(inside)}):",
        "        return False",
    ]
    groups: dict[tuple[int, ...], list[tuple]] = {}
    for cut, covered in boxes:
        row = tuple(v for _, lo, hi in cut for v in (lo, hi))
        if covered:
            row += (tuple(v for _, lo, hi in covered for v in (lo, hi)),)
        groups.setdefault(tuple(k for k, _, _ in cut), []).append(row)
    if not groups or () in groups:
        # no box, or one that covers the bounds on every axis and so holds
        # the whole segment
        src.append(f"    return {not groups}")
    else:
        src += [f"    d{k} = b{k} - a{k}" for k in range(n)]
        # the squared length summed left to right, as the plain loop does
        src += [
            f"    steps = ceil(sqrt({' + '.join(f'd{k} * d{k}' for k in range(n))}) / resolution)",
            "    if steps < 1:",
            "        steps = 1",
        ]
        for g, (cut, rows) in enumerate(groups.items()):
            namespace[f"G{g}"] = tuple(rows)
            src += _box_loop_source(f"G{g}", cut, n)
        src.append("    return True")
    exec(compile("\n".join(src), "<motion kernel>", "exec"), namespace)
    return namespace["kernel"]


def _box_loop_source(group: str, cut: tuple[int, ...], n: int) -> list[str]:
    """The kernel's loop over the boxes of one group, whose cut axes are cut."""
    covered = [k for k in range(n) if k not in cut]
    names = [f"{v}{k}" for k in cut for v in "lh"]
    src = [
        f"    for {', '.join(names + (['cov'] if covered else []))} in {group}:",
        "        t0 = 0.0",
        "        t1 = 1.0",
    ]
    for k in cut:
        src += [
            f"        if d{k} == 0.0:",
            f"            if a{k} < l{k} or a{k} > h{k}:",
            "                continue",
            "        else:",
            f"            ta = (l{k} - a{k}) / d{k}",
            f"            tb = (h{k} - a{k}) / d{k}",
            "            if ta > tb:",
            "                ta, tb = tb, ta",
            "            if ta > t0:",
            "                t0 = ta",
            "            if tb < t1:",
            "                t1 = tb",
            "            if t0 > t1:",
            "                continue",
        ]
    # the t = 1 point a + (b - a) can round off a face that b lies on, so b
    # itself is tested; b is inside the bounds, and so on every covered axis
    outside_b = " or ".join(f"b{k} < l{k} or b{k} > h{k}" for k in cut)
    src += [
        "        i_lo = floor(t0 * steps) - 1",
        "        if i_lo < 0:",
        "            i_lo = 0",
        "        i_hi = ceil(t1 * steps) + 1",
        "        if i_hi >= steps:",
        "            i_hi = steps",
        f"            if not ({outside_b}):",
        "                return False",
        "        for i in range(i_lo, i_hi + 1):",
        "            t = i / steps",
    ]
    for k in cut:
        src += _point_test(k)
    if covered:
        # a rounded point can leave the bounds, and so a covered axis, by an
        # ulp: confirm the hit on those axes too
        src.append(f"            {', '.join(f'{v}{k}' for k in covered for v in 'lh')} = cov")
        for k in covered:
            src += _point_test(k)
    return src + ["            return False"]


def _point_test(k: int) -> list[str]:
    """Kernel lines that go on to the next point when the point at t lies
    outside the box on axis k."""
    return [
        f"            p = a{k} + t * d{k}",
        f"            if p < l{k} or p > h{k}:",
        "                continue",
    ]


def world_to_dict(world: WorldModel) -> dict:
    return {
        "dimension": world.dimension,
        "bounds": {
            "min": world.bounds.min_corner.tolist(),
            "max": world.bounds.max_corner.tolist(),
        },
        "obstacles": [
            {"min": obs.min_corner.tolist(), "max": obs.max_corner.tolist()}
            for obs in world.obstacles
        ],
    }


def world_from_dict(data: dict) -> WorldModel:
    bounds = HyperRectangle(data["bounds"]["min"], data["bounds"]["max"])
    if bounds.dimension != data["dimension"]:
        raise ValueError("declared dimension does not match bounds")
    obstacles = tuple(
        HyperRectangle(o["min"], o["max"]) for o in data.get("obstacles", [])
    )
    return WorldModel(bounds, obstacles)


def save_world(world: WorldModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(world_to_dict(world), fh, indent=2)
        fh.write("\n")


def load_world(path) -> WorldModel:
    with open(path) as fh:
        return world_from_dict(json.load(fh))
