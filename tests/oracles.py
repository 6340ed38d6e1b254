"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written without reusing the package's
internals: plain-Python loops, the math module, Fractions, and networkx.
The point is to cross-check, not to share code paths.
"""
from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx
import numpy as np


def euclid(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def bernoulli_at(m: int) -> Fraction:
    """Bernoulli number via the Akiyama-Tanigawa triangle (B_1 = +1/2)."""
    row = [Fraction(0)] * (m + 1)
    for i in range(m + 1):
        row[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def mc_two_focus_volume(
    c: float, c_min: float, n: int, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo hypervolume of {x : |x-fa| + |x-fb| < c} with |fa-fb|=c_min.

    Foci are placed on the first axis; the sampling box is the tight
    axis-aligned bounding box of the ellipsoid.
    """
    fa = np.zeros(n)
    fb = np.zeros(n)
    fb[0] = c_min
    center = (fa + fb) / 2.0
    half = np.full(n, math.sqrt(c * c - c_min * c_min) / 2.0)
    half[0] = c / 2.0
    pts = center + rng.uniform(-1.0, 1.0, size=(n_samples, n)) * half
    da = np.sqrt(np.sum((pts - fa) ** 2, axis=1))
    db = np.sqrt(np.sum((pts - fb) ** 2, axis=1))
    frac = np.mean(da + db < c)
    box = float(np.prod(2.0 * half))
    return float(frac) * box


def informed_bounding_box(fa, fb, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box of {x : |x - fa| + |x - fb| < c}.

    From the foci alone: the set is the spheroid with major radius a = c/2
    along the unit focal direction u and minor radius
    b = sqrt(c^2 - |fb - fa|^2)/2, whose support in direction e_i is
    sqrt(b^2 + (a^2 - b^2) u_i^2).
    """
    fa, fb = np.asarray(fa, dtype=float), np.asarray(fb, dtype=float)
    focal = euclid(fa, fb)
    u = (fb - fa) / focal
    a2, b2 = c * c / 4.0, (c * c - focal * focal) / 4.0
    half = np.sqrt(b2 + (a2 - b2) * u * u)
    mid = (fa + fb) / 2.0
    return mid - half, mid + half


def informed_rejection_samples(
    fa, fb, c: float, lo, hi, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count uniform draws from {x : |x - fa| + |x - fb| < c} intersected
    with the closed box [lo, hi], by rejection from the set's bounding box
    clipped to the box. Membership is the focal-sum definition itself."""
    fa, fb = np.asarray(fa, dtype=float), np.asarray(fb, dtype=float)
    box_lo, box_hi = informed_bounding_box(fa, fb, c)
    box_lo, box_hi = np.maximum(box_lo, lo), np.minimum(box_hi, hi)
    kept = []
    total = 0
    while total < count:
        pts = rng.uniform(box_lo, box_hi, size=(4096, fa.size))
        inside = pts[
            np.sqrt(np.sum((pts - fa) ** 2, axis=1)) + np.sqrt(np.sum((pts - fb) ** 2, axis=1))
            < c
        ]
        kept.append(inside)
        total += len(inside)
    return np.concatenate(kept)[:count]


def gram_schmidt_columns(f) -> list[list[float]]:
    """Plain-Python frame construction mirroring the documented convention:
    first column is f normalized, rest from the standard basis skipping the
    axis most parallel to f."""
    n = len(f)
    norm = math.sqrt(sum(v * v for v in f))
    u1 = [v / norm for v in f]
    skip = max(range(n), key=lambda i: abs(u1[i]))
    # max() returns the last argmax on ties; replicate first-argmax instead
    best = max(abs(v) for v in u1)
    skip = next(i for i in range(n) if abs(u1[i]) == best)
    cols = [u1]
    for j in range(n):
        if j == skip or len(cols) == n:
            continue
        e = [0.0] * n
        e[j] = 1.0
        for u in cols:
            dot = sum(u[k] * e[k] for k in range(n))
            e = [e[k] - dot * u[k] for k in range(n)]
        enorm = math.sqrt(sum(v * v for v in e))
        if enorm < 1e-12:
            continue
        cols.append([v / enorm for v in e])
    return cols


def brute_elliptical_nn(x, samples, batch_size, n, config, charge, eta=1.0,
                        informed_measure=math.inf, bounds_measure=1.0,
                        with_rounds=False):
    """Straight-line re-execution of the shrink loop, no spatial index.

    samples: sequence of (position tuple, valid flag). Returns sorted indices
    of the valid members of the final region; with with_rounds, also the
    list of (survivors, invalid survivors) after each round, one entry per
    round.
    """
    b = max(2, int(batch_size))
    measure = min(informed_measure, bounds_measure)
    ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    r = 2.0 * eta * ((1.0 + 1.0 / n) * (measure / ball) * (math.log(b) / b)) ** (1.0 / n)
    reach = config.max_prolongation * r

    rounds_log = []

    def result(indices):
        return (indices, rounds_log) if with_rounds else indices

    cand = [i for i in range(len(samples)) if euclid(x, samples[i][0]) <= reach]
    if not cand:
        return result([])
    force = [0.0] * n
    phi = 1.0
    rounds = 0
    while phi >= config.phi_threshold and rounds < config.max_shrink_rounds:
        rounds += 1
        for i in cand:
            p, valid = samples[i]
            d = max(euclid(x, p), config.min_pair_distance)
            mag = config.k_e * charge * charge / d ** (n - 1)
            s = mag if valid else -mag
            for k in range(n):
                force[k] += (s / d) * (p[k] - x[k])
        fnorm = math.sqrt(sum(v * v for v in force))
        if fnorm > 0.0:
            cols = gram_schmidt_columns(force)
        else:
            cols = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
        d1 = min(r * (1.0 + config.k * fnorm), r * config.max_prolongation)
        axes = [d1] + [r] * (n - 1)

        survivors = []
        n_invalid = 0
        for i in cand:
            p, valid = samples[i]
            diff = [p[k] - x[k] for k in range(n)]
            s = 0.0
            for a, col in zip(axes, cols):
                y = sum(diff[k] * col[k] for k in range(n))
                s += (y / a) ** 2
            if s < 1.0:
                survivors.append(i)
                if not valid:
                    n_invalid += 1
        rounds_log.append((len(survivors), n_invalid))
        if not survivors:
            return result([])
        phi = n_invalid / len(survivors)
        cand = survivors
    return result([i for i in cand if samples[i][1]])


def _segment_hits_interior(a, b, lo, hi, eps=1e-12) -> bool:
    """Does the open segment a-b pass through the open box interior?"""
    t0, t1 = 0.0, 1.0
    for k in range(len(a)):
        d = b[k] - a[k]
        if abs(d) < eps:
            if a[k] <= lo[k] + eps or a[k] >= hi[k] - eps:
                return False
        else:
            ta = (lo[k] - a[k]) / d
            tb = (hi[k] - a[k]) / d
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 >= t1 - eps:
                return False
    return True


def visibility_shortest_path(obstacles, start, goal, bounds=(0.0, 1.0)) -> float:
    """Exact 2D shortest-path length among axis-aligned rectangles.

    obstacles: list of ((x0, y0), (x1, y1)). The optimal path bends only at
    rectangle corners, so a visibility graph over corners plus the two
    endpoints is exact. Returns math.inf when disconnected.
    """
    nodes = [tuple(start), tuple(goal)]
    lo_b, hi_b = bounds
    for (x0, y0), (x1, y1) in obstacles:
        for corner in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
            if lo_b <= corner[0] <= hi_b and lo_b <= corner[1] <= hi_b:
                nodes.append(corner)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(nodes)))
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i], nodes[j]
            if any(
                _segment_hits_interior(a, b, lo, hi) for lo, hi in obstacles
            ):
                continue
            graph.add_edge(i, j, weight=euclid(a, b))
    try:
        return nx.dijkstra_path_length(graph, 0, 1)
    except nx.NetworkXNoPath:
        return math.inf


def state_valid(boxes, lo, hi, x) -> bool:
    """Is x inside the closed bounds [lo, hi] and inside none of the closed
    boxes, each a (min corner, max corner) pair? NaN is outside everything."""
    n = len(lo)
    if not all(lo[k] <= x[k] <= hi[k] for k in range(n)):
        return False
    for box_lo, box_hi in boxes:
        if all(box_lo[k] <= x[k] <= box_hi[k] for k in range(n)):
            return False
    return True


def motion_valid_fine(obstacles, bounds_lo, bounds_hi, a, b, resolution) -> bool:
    """Plain-loop segment check at the given spacing, endpoints included."""
    n = len(a)
    length = euclid(a, b)
    steps = max(1, math.ceil(length / resolution))
    for s in range(steps + 1):
        t = s / steps
        p = [a[k] + t * (b[k] - a[k]) for k in range(n)]
        if any(p[k] < bounds_lo[k] or p[k] > bounds_hi[k] for k in range(n)):
            return False
        for lo, hi in obstacles:
            if all(lo[k] <= p[k] <= hi[k] for k in range(n)):
                return False
    return True


def motion_valid_slab(obstacles, bounds_lo, bounds_hi, a, b, resolution) -> bool:
    """The segment check as a plain loop over the boxes: the exact answer of
    ``is_motion_valid``, bit for bit, at the same resolution.

    Per box the segment's parameter interval is slab-clipped against the
    axes on which the box does not cover the bounds (its cut axes); then
    the discretized points t = i / steps that can fall inside the clip are
    tested, and a hit is confirmed on the covered axes, which a rounded
    point can leave by an ulp. b itself is tested when the clip reaches
    t = 1, because the point a + (b - a) can round off a face b lies on.
    """
    av = [float(v) for v in a]
    bv = [float(v) for v in b]
    blo = [float(v) for v in bounds_lo]
    bhi = [float(v) for v in bounds_hi]
    n = len(blo)
    if len(av) != n or len(bv) != n:
        raise ValueError("dimensionality mismatch")
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    dv = []
    sq = 0
    for x, y, lo, hi in zip(av, bv, blo, bhi):
        # the bounds box is convex, so endpoint containment covers the segment
        if not (lo <= x <= hi and lo <= y <= hi):
            return False
        d = y - x
        dv.append(d)
        sq += d * d
    if not obstacles:
        return True
    steps = max(1, int(math.ceil(math.sqrt(sq) / resolution)))
    for box_lo, box_hi in obstacles:
        axes, covered = [], []
        for k in range(n):
            lo, hi = float(box_lo[k]), float(box_hi[k])
            (axes if lo > blo[k] or hi < bhi[k] else covered).append((k, lo, hi))
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
            if i_hi == steps:
                for k, lo, hi in axes:
                    if bv[k] < lo or bv[k] > hi:
                        break
                else:
                    return False
            for i in range(i_lo, i_hi + 1):
                t = i / steps
                for k, lo, hi in axes + covered:
                    p = av[k] + t * dv[k]
                    if p < lo or p > hi:
                        break
                else:
                    return False
    return True


def elliptical_nn_kd(x, kdtree, valid, r, config, charge, *, stats=None):
    """The elliptical neighbor query as it ran on a ``scipy.spatial.cKDTree``,
    float operation for float operation: (sorted int array of the valid
    members' indices, (axis or None, major, minor) or None).

    Candidates are ``kdtree.query_ball_point(x, reach)``, sorted, with reach
    ``max_prolongation * r``, or ``r * (1 + 1e-9)`` at zero charge when that
    finds anything; rounds are counted into ``stats["shrink_rounds"]`` and
    settled candidate sets into ``stats["settled"]``. Only at points within
    rounding of the reach sphere can the tree's answer differ from the
    ``|y|^2 <= reach^2`` gather, because its node pruning decides there.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    cap = r * config.max_prolongation
    ke_q2 = config.k_e * charge * charge

    def gather(reach):
        return np.sort(np.asarray(kdtree.query_ball_point(x, reach), dtype=int))

    def count(key, value):
        if stats is not None:
            stats[key] = stats.get(key, 0) + value

    def region(force, fnorm, major):
        return (force / fnorm if fnorm > 0.0 else None, major, r)

    if ke_q2 == 0.0:
        cand = gather(r * (1.0 + 1e-9))
        if cand.size == 0:
            cand = gather(cap)
    else:
        cand = gather(cap)
    if cand.size == 0:
        return cand, None
    valid_flags = valid[cand]
    diff = kdtree.data[cand] - x
    d2 = np.einsum("ij,ij->i", diff, diff)
    d = np.maximum(np.sqrt(d2), config.min_pair_distance)
    weight = ke_q2 / d ** (n - 1) / d
    r2 = r * r
    ball2 = r2 * (1.0 - 1e-9)
    final = bool((d2 < ball2).all())
    force = np.zeros(n)
    step = None
    checked = False
    n_total = cand.size
    n_invalid = int(np.count_nonzero(~valid_flags))
    phi = 1.0
    rounds = 0
    while phi >= config.phi_threshold and rounds < config.max_shrink_rounds:
        if step is None:
            step = np.where(valid_flags, weight, -weight) @ diff
        if final:
            phi = n_invalid / n_total
            stop = phi < config.phi_threshold or ke_q2 == 0.0
            last = rounds + 1 if stop else config.max_shrink_rounds
            count("shrink_rounds", last - rounds)
            for rounds in range(rounds + 1, last + 1):
                force = force + step
            fnorm = math.sqrt(float(force @ force))
            major = min(r * (1.0 + config.k * fnorm), cap)
            break
        rounds += 1
        count("shrink_rounds", 1)
        force = force + step
        fnorm = math.sqrt(float(force @ force))
        major = min(r * (1.0 + config.k * fnorm), cap)
        if fnorm > 0.0:
            p = diff @ (force / fnorm)
            form = (p / major) ** 2 + (d2 - p * p) / r2
            inside = form < 1.0
        else:
            inside = np.einsum("ij,ij->i", diff / r, diff / r) < 1.0
        n_inside = int(np.count_nonzero(inside))
        if n_inside == 0:
            return cand[:0], region(force, fnorm, major)
        if n_inside < n_total:
            cand = cand[inside]
            valid_flags = valid_flags[inside]
            diff = diff[inside]
            weight = weight[inside]
            d2 = d2[inside]
            step = None
            checked = False
            n_total = n_inside
            n_invalid = int(np.count_nonzero(~valid_flags))
            final = bool((d2 < ball2).all())
        elif (
            not checked
            and major == cap
            and fnorm > 0.0
            and rounds < config.max_shrink_rounds
            and n_invalid / n_total >= config.phi_threshold
            and float(force @ step) >= 0.0
        ):
            # the settled test: from force to the force after the last round
            # the directions sweep less than 90 degrees, so a candidate whose
            # projection keeps its sign and whose form stays below 1 - 1e-9
            # at both ends never leaves
            checked = True
            f_end = force + (config.max_shrink_rounds - rounds) * step
            fe_norm = math.sqrt(float(f_end @ f_end))
            p_end = diff @ (f_end / fe_norm)
            form_end = (p_end / cap) ** 2 + (d2 - p_end * p_end) / r2
            bound = 1.0 - 1e-9
            held = (p * p_end > 0.0) & (form < bound) & (form_end < bound)
            final = bool((held | (d2 < ball2)).all())
            if final:
                count("settled", 1)
        phi = n_invalid / n_total
        if ke_q2 == 0.0:
            break
    return cand[valid_flags], region(force, fnorm, major)


def rewire_candidates_kd(rows, x, axis, major, minor):
    """The rewire's candidates as gathered on a ``scipy.spatial.cKDTree``:
    the sorted indices of ``query_ball_point(x, major)`` over ``rows``, kept
    where x + y lies strictly inside the prolate region (axis, major, minor)
    centred at x, or the ball of radius minor when axis is None, with the
    region test's float operations."""
    # imported here: perfbench loads this module, and scipy.spatial alone
    # adds tens of MiB to a process
    from scipy.spatial import cKDTree

    x = np.asarray(x, dtype=float)
    cand = np.array(sorted(cKDTree(rows).query_ball_point(x, major)), dtype=int)
    y = rows[cand] - x
    if axis is None:
        inside = np.einsum("ij,ij->i", y / minor, y / minor) < 1.0
    else:
        p = y @ axis
        d2 = np.einsum("ij,ij->i", y, y)
        inside = (p / major) ** 2 + (d2 - p * p) / (minor * minor) < 1.0
    return cand[inside]
