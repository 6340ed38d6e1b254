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
