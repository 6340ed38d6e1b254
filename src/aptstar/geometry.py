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
    """Two-focus ellipsoid of states that could improve on the current cost."""

    focus_a: State
    focus_b: State
    c_current: float
    c_min: float

    def __post_init__(self):
        object.__setattr__(self, "focus_a", as_state(self.focus_a))
        object.__setattr__(self, "focus_b", as_state(self.focus_b))
        if math.isfinite(self.c_current) and self.c_current < self.c_min:
            raise ValueError("c_current below the focal distance")

    def contains(self, x: State) -> bool:
        return distance(x, self.focus_a) + distance(x, self.focus_b) < self.c_current

    @property
    def transform(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(semi-axes, rotation, centre) mapping the unit ball onto the set,
        built once per instance; the rotation's first column is the focal axis."""
        cached = getattr(self, "_transform", None)
        if cached is None:
            c = self.c_current
            axes = np.full(self.focus_a.size, math.sqrt(c * c - self.c_min**2) / 2.0)
            axes[0] = c / 2.0
            rot = orthonormal_basis(self.focus_b - self.focus_a)
            center = (self.focus_a + self.focus_b) / 2.0
            cached = (axes, rot, center)
            object.__setattr__(self, "_transform", cached)
        return cached


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
    """Orthonormal matrix whose first column is v normalized.

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


def sample_informed(
    informed: InformedSet, bounds: HyperRectangle, rng: np.random.Generator
) -> State:
    """Uniform sample from the informed set intersected with the bounds.

    Before a first solution (c_current infinite) this is uniform over the
    bounds. Otherwise a uniform point in the unit ball is scaled by the
    ellipse semi-axes, rotated so the major axis follows goal - start, and
    translated to the ellipse center; draws landing outside the bounds are
    rejected and retried.
    """
    if not math.isfinite(informed.c_current):
        return sample_uniform(bounds, rng)
    if informed.c_current <= informed.c_min:
        raise ValueError("informed set has no interior")
    n = informed.focus_a.size
    axes, rot, center = informed.transform
    inv_n = 1.0 / n
    for _ in range(_MAX_REJECTS):
        raw = rng.standard_normal(n)
        norm = math.sqrt(raw.dot(raw))  # np.linalg.norm's own arithmetic
        if norm == 0.0:
            continue
        ball = raw / norm * rng.random() ** inv_n
        x = center + rot @ (axes * ball)
        if bounds.contains(x):
            return x
    raise RuntimeError("informed sampling failed to hit the bounds")


def sample_batch(
    informed: InformedSet, bounds: HyperRectangle, rng: np.random.Generator, count: int
) -> np.ndarray:
    """count draws of sample_informed as one (count, n) array.

    The rows equal count successive sample_informed calls bit for bit, and
    rng is left in the same state. Only the random-number calls stay one per
    draw, in sample_informed's order; the transform and the bounds test run
    on all of a round's draws at once, and each round draws only the
    shortfall, so no draw past the last accepted one is consumed. The
    rotation is a stacked matrix-vector product because a plain matrix
    product rounds differently from ``rot @ v``.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not math.isfinite(informed.c_current):
        return bounds.min_corner + rng.random((count, bounds.dimension)) * bounds.widths
    if informed.c_current <= informed.c_min:
        raise ValueError("informed set has no interior")
    n = informed.focus_a.size
    axes, rot, center = informed.transform
    inv_n = 1.0 / n
    out = np.empty((count, n))
    filled = 0
    misses = 0  # rejected draws since the last accepted one
    while filled < count:
        need = count - filled
        raws = np.empty((need, n))
        norms = np.zeros(need)
        scales = np.empty(need)
        for i in range(need):
            raw = rng.standard_normal(n)
            norm = math.sqrt(raw.dot(raw))
            if norm == 0.0:
                continue  # a rejected draw, as in sample_informed
            raws[i] = raw
            norms[i] = norm
            scales[i] = rng.random() ** inv_n
        drawn = np.flatnonzero(norms)
        y = raws[drawn] / norms[drawn, None] * scales[drawn, None] * axes
        x = center + (rot @ y[:, :, None])[:, :, 0]
        inside = np.all((x >= bounds.min_corner) & (x <= bounds.max_corner), axis=1)
        hits = drawn[inside]
        # rejected draws before each accepted one, the first run continuing the last round's
        runs = np.diff(hits, prepend=-1) - 1
        if hits.size:
            runs[0] += misses
            misses = need - 1 - int(hits[-1])
        else:
            misses += need
        if misses >= _MAX_REJECTS or np.any(runs >= _MAX_REJECTS):
            raise RuntimeError("informed sampling failed to hit the bounds")
        out[filled : filled + hits.size] = x[inside]
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
    """Check the straight segment a-b at spacing <= resolution, endpoints included."""
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    av = np.asarray(a, dtype=float).tolist()
    bv = np.asarray(b, dtype=float).tolist()
    blo, bhi, boxes = world.corner_lists
    if len(av) != len(blo) or len(bv) != len(blo):
        raise ValueError("dimensionality mismatch")
    dv = []
    sq = 0  # summed from int 0, left to right, as sum() does
    for x, y, lo, hi in zip(av, bv, blo, bhi):
        # the bounds box is convex, so endpoint containment covers the segment
        if not (lo <= x <= hi and lo <= y <= hi):
            return False
        d = y - x
        dv.append(d)
        sq += d * d
    if not boxes:
        return True
    steps = max(1, int(math.ceil(math.sqrt(sq) / resolution)))
    for axes, covered in boxes:
        # slab-clip the segment's parameter interval against the box, then
        # test the discretized indices that can fall inside it; on a covered
        # axis the clip is [<= 0, >= 1] even after rounding, so it is skipped
        t0, t1 = 0.0, 1.0
        for k, lo, hi in axes:
            d = dv[k]
            if d == 0.0:
                if av[k] < lo or av[k] > hi:
                    break
            else:
                ta = (lo - av[k]) / d
                tb = (hi - av[k]) / d
                if ta > tb:
                    ta, tb = tb, ta
                if ta > t0:
                    t0 = ta
                if tb < t1:
                    t1 = tb
                if t0 > t1:
                    break
        else:
            i_lo = max(0, int(math.floor(t0 * steps)) - 1)
            i_hi = min(steps, int(math.ceil(t1 * steps)) + 1)
            # the t = 1 point a + (b - a) can round off a face that b lies
            # on, so b itself is tested; b is inside the bounds, and so on
            # every covered axis
            if i_hi == steps:
                for k, lo, hi in axes:
                    if bv[k] < lo or bv[k] > hi:
                        break
                else:
                    return False
            for i in range(i_lo, i_hi + 1):
                t = i / steps
                for k, lo, hi in axes:
                    p = av[k] + t * dv[k]
                    if p < lo or p > hi:
                        break
                else:
                    # a rounded point can leave the bounds, and so a covered
                    # axis, by an ulp: confirm the hit on those axes too
                    for k, lo, hi in covered:
                        p = av[k] + t * dv[k]
                        if p < lo or p > hi:
                            break
                    else:
                        return False
    return True


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
