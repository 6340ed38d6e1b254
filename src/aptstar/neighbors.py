"""Force-based anisotropic nearest-neighbor search.

Every sample of a batch carries the charge set from that batch's size;
free-space samples attract and in-collision samples repel the query state.
The resulting virtual force stretches the usual r-nearest-neighbor ball
into a prolate ellipsoid whose major axis follows the force, and a shrink
loop discards candidates until fewer than ``phi_threshold`` of the
in-region samples are invalid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# no query builds a frame; orthonormal_basis stays importable from here because
# perfbench/layers.py times its "geometry.frame" layer under this name
from .geometry import State, is_int, orthonormal_basis, unit_ball_volume  # noqa: F401


@dataclass(frozen=True)
class NeighborConfig:
    k_e: float = 1.0
    # Scaling factor on the force magnitude in the prolongation; normalized
    # so a single maximally charged neighbor at distance r roughly doubles
    # the major axis in 2D.
    k: float = 1.0 / (1.9 * 1.9)
    phi_threshold: float = 0.1
    max_shrink_rounds: int = 16
    min_pair_distance: float = 1e-6
    max_prolongation: float = 3.0

    def __post_init__(self):
        # "not x >= bound" also rejects NaN
        if not 0.0 <= self.k_e < math.inf:
            raise ValueError("k_e must be nonnegative and finite")
        if not self.k >= 0.0:
            raise ValueError("k must be nonnegative")
        if not 0.0 < self.phi_threshold <= 1.0:
            raise ValueError("phi_threshold must be in (0, 1]")
        if not self.min_pair_distance > 0.0:
            raise ValueError("min_pair_distance must be positive")
        if not self.max_prolongation >= 1.0:
            raise ValueError("max_prolongation must be at least 1")
        if not (is_int(self.max_shrink_rounds) and self.max_shrink_rounds >= 1):
            raise ValueError("max_shrink_rounds must be a positive integer")


@dataclass(frozen=True)
class EllipsoidRegion:
    """Prolate neighbor region: a center, a unit major axis and two radii.

    A point c + y is inside when (p / major)^2 + (|y|^2 - p^2) / minor^2 < 1
    with p = y . axis. A region without an axis is the open ball of radius
    ``minor`` (and ``major == minor``).
    """

    center: State
    axis: np.ndarray | None
    major: float
    minor: float

    def __post_init__(self):
        if not self.minor > 0.0:
            raise ValueError("radii must be positive")
        if not self.major >= self.minor:
            raise ValueError("the major radius must not be below the minor radius")
        if self.axis is None and self.major != self.minor:
            raise ValueError("a region without an axis must be a ball")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Strict membership for an (m, n) array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.contains_offsets(points - self.center)

    def contains_offsets(self, offsets: np.ndarray) -> np.ndarray:
        """Strict membership of center + offsets[i] for an (m, n) array of offsets."""
        if self.axis is None:
            return np.einsum("ij,ij->i", offsets / self.minor, offsets / self.minor) < 1.0
        p = offsets @ self.axis
        d2 = np.einsum("ij,ij->i", offsets, offsets)
        return (p / self.major) ** 2 + (d2 - p * p) / (self.minor * self.minor) < 1.0

    def scaled(self, factor: float) -> EllipsoidRegion:
        """The region with both radii multiplied by factor."""
        return EllipsoidRegion(self.center, self.axis, self.major * factor, self.minor * factor)


def rnn_radius(
    batch_size: int,
    n: int,
    informed_measure: float,
    bounds_measure: float,
    eta: float = 1.0,
) -> float:
    """Connection radius of the underlying random geometric graph.

    The free-space measure is taken as the smaller of the informed-set
    hypervolume and the bounds hypervolume. Batch sizes below 2 are floored
    to 2 so log(B)/B stays positive.
    """
    if eta < 1.0:
        raise ValueError("eta must be at least 1")
    b = max(2, int(batch_size))
    measure = min(informed_measure, bounds_measure)
    return (
        2.0
        * eta
        * (
            (1.0 + 1.0 / n)
            * (measure / unit_ball_volume(n))
            * (math.log(b) / b)
        )
        ** (1.0 / n)
    )


def _weights(
    diff: np.ndarray, ke_q2: float, config: NeighborConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Squared lengths of the offsets diff and the force weight of each.

    A sample at offset y with d = max(|y|, min_pair_distance) contributes
    k_e q^2 / d^(n-1) along y / d, so its weight on y is k_e q^2 / d^n.
    """
    d2 = np.einsum("ij,ij->i", diff, diff)
    d = np.maximum(np.sqrt(d2), config.min_pair_distance)
    return d2, ke_q2 / d ** (diff.shape[1] - 1) / d


def coulomb_force(
    x: State,
    positions: np.ndarray,
    valid: np.ndarray,
    charge: float,
    config: NeighborConfig,
) -> np.ndarray:
    """Total virtual Coulomb force on x from samples of equal charge.

    Valid samples (rows of positions) pull toward themselves, invalid ones
    push away; each contributes k_e * q^2 / d^(n-1) along the unit
    direction, with pair distances clamped below by min_pair_distance.
    """
    x = np.asarray(x, dtype=float)
    diff = np.asarray(positions, dtype=float) - x
    _, weight = _weights(diff, config.k_e * charge * charge, config)
    return np.where(valid, weight, -weight) @ diff


def elliptical_nn_query(
    x: State,
    kdtree: cKDTree,
    valid: np.ndarray,
    r: float,
    config: NeighborConfig,
    charge: float,
    *,
    stats: dict | None = None,
    trace=None,
) -> tuple[list[int], EllipsoidRegion | None]:
    """Core query: (indices of the valid members, final region).

    The samples are the rows of ``kdtree.data`` with validity flags
    ``valid`` (a bool array), all of charge ``charge``; r is the base
    radius of the batch. Candidates start as the samples within
    max_prolongation * r of x (a superset of anything the region can ever
    contain), or within r when the charge is zero and the region can only
    be the r-ball; the virtual force is accumulated over the surviving
    candidates each round and membership retested until the invalid ratio
    drops below phi_threshold or the round bound is hit. Invalid samples
    are stripped from the result.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    # the cap on the major radius, so no region reaches farther
    cap = r * config.max_prolongation
    ke_q2 = config.k_e * charge * charge
    if ke_q2 == 0.0:
        # the force stays zero, so the region is the r-ball; the margin keeps
        # points the ball test admits inside the index's distance cut
        cand = _gather(x, r * (1.0 + 1e-9), kdtree)
        if cand.size == 0:
            # whether anything lies within the cap still decides between no
            # round and one empty round
            cand = _gather(x, cap, kdtree)
    else:
        cand = _gather(x, cap, kdtree)
    if cand.size == 0:
        return [], None
    valid_flags = valid[cand]
    # per-candidate geometry is invariant across rounds (candidates only
    # shrink), so compute distances and weights once
    diff = kdtree.data[cand] - x
    d2, weight = _weights(diff, ke_q2, config)
    r2 = r * r
    # Every region contains the open r-ball, so once all candidates lie
    # inside it (with a margin for rounding in the membership test) no later
    # round can drop one: membership and phi are final and the remaining
    # rounds only add the same force step again. _settled proves the same
    # for candidates outside the ball.
    ball2 = r2 * (1.0 - 1e-9)
    final = bool((d2 < ball2).all())
    force = np.zeros(n)
    step = None  # force increment of the current candidate set
    checked = False  # _settled has run for this step; its end force stays the same
    n_total = cand.size
    n_invalid = int(np.count_nonzero(~valid_flags))
    phi = 1.0
    rounds = 0
    while phi >= config.phi_threshold and rounds < config.max_shrink_rounds:
        if step is None:
            step = np.where(valid_flags, weight, -weight) @ diff
        if final:
            # phi can no longer change, so this round is the last if it ends
            # the loop, or if the charge is zero and the force stays zero;
            # else every round to the cap runs. Each adds step, as a
            # membership round does, in the same order.
            phi = n_invalid / n_total
            stop = phi < config.phi_threshold or ke_q2 == 0.0
            last = rounds + 1 if stop else config.max_shrink_rounds
            if stats is not None:
                stats["shrink_rounds"] = stats.get("shrink_rounds", 0) + last - rounds
            for rounds in range(rounds + 1, last + 1):
                force = force + step
                if trace is not None:
                    fnorm = math.sqrt(float(force @ force))
                    major = min(r * (1.0 + config.k * fnorm), cap)
                    trace.write(_round_line(rounds, n_total, n_invalid, phi, fnorm, major / r))
            fnorm = math.sqrt(float(force @ force))
            major = min(r * (1.0 + config.k * fnorm), cap)
            break
        rounds += 1
        if stats is not None:
            stats["shrink_rounds"] = stats.get("shrink_rounds", 0) + 1
        force = force + step
        fnorm = math.sqrt(float(force @ force))
        major = min(r * (1.0 + config.k * fnorm), cap)
        if fnorm > 0.0:
            # prolate test in closed form: every minor semi-axis is r
            p = diff @ (force / fnorm)
            form = (p / major) ** 2 + (d2 - p * p) / r2
            inside = form < 1.0
        else:
            inside = np.einsum("ij,ij->i", diff / r, diff / r) < 1.0
        n_inside = int(np.count_nonzero(inside))
        if n_inside == 0:
            if trace is not None:
                trace.write(f"{rounds} 0 0 nan {fnorm:.9e} {major / r:.9f}\n")
            return [], _region(x, force, fnorm, major, r)
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
            checked = True
            f_end = force + (config.max_shrink_rounds - rounds) * step
            final = _settled(diff, d2, p, form, f_end, cap, r2, ball2)
            if final and stats is not None:
                stats["settled"] = stats.get("settled", 0) + 1
        phi = n_invalid / n_total
        if trace is not None:
            trace.write(_round_line(rounds, n_total, n_invalid, phi, fnorm, major / r))
        if ke_q2 == 0.0:
            # zero charge leaves the force at zero forever, so the region
            # and its membership are already at their fixed point
            break
    return cand[valid_flags].tolist(), _region(x, force, fnorm, major, r)


def _round_line(
    rounds: int, n_total: int, n_invalid: int, phi: float, fnorm: float, ratio: float
) -> str:
    """One round's trace line: the round, the candidates and the invalid ones
    left, phi, the force's norm and the major radius over r."""
    return f"{rounds} {n_total} {n_invalid} {phi:.9f} {fnorm:.9e} {ratio:.9f}\n"


def _gather(x: State, reach: float, kdtree: cKDTree) -> np.ndarray:
    """Sorted indices of the indexed points within reach of x."""
    return np.sort(np.asarray(kdtree.query_ball_point(x, reach), dtype=int))


def _settled(
    diff: np.ndarray,
    d2: np.ndarray,
    p: np.ndarray,
    form: np.ndarray,
    f_end: np.ndarray,
    cap: float,
    r2: float,
    ball2: float,
) -> bool:
    """Can no remaining round of a settled candidate set drop a candidate?

    Called after a round that dropped nothing, with the major radius at its
    cap and force . step >= 0; p and form are that round's projections and
    quadratic forms, and f_end is the force after the last round. The later
    forces force + j * step then never shrink, so the cap holds, and their
    directions sweep an arc of less than 90 degrees from force to f_end. On
    such an arc a projection that keeps one sign has its smallest magnitude
    at an end, and the form only grows as p^2 falls. So a candidate whose
    projection keeps its sign and whose form is below 1 - 1e-9 at both ends
    stays inside; candidates inside the r-ball margin always do. The margin
    absorbs the rounding of the repeated additions.
    """
    fe_norm = math.sqrt(float(f_end @ f_end))
    p_end = diff @ (f_end / fe_norm)
    form_end = (p_end / cap) ** 2 + (d2 - p_end * p_end) / r2
    bound = 1.0 - 1e-9
    held = (p * p_end > 0.0) & (form < bound) & (form_end < bound)
    return bool((held | (d2 < ball2)).all())


def _region(
    x: State, force: np.ndarray, fnorm: float, major: float, r: float
) -> EllipsoidRegion:
    """The region for the final force: its direction, the major radius and r."""
    return EllipsoidRegion(x, force / fnorm if fnorm > 0.0 else None, major, r)
