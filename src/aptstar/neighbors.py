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

# no query builds a frame; only perfbench/layers.py's "geometry.frame" wrap asks
# for orthonormal_basis here, and the import goes with the wrap
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
        if not 0.0 <= self.k < math.inf:
            raise ValueError("k must be nonnegative and finite")
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


def _weights(d2: np.ndarray, n: int, ke_q2: float, config: NeighborConfig) -> np.ndarray:
    """The force weight of each sample at squared distance d2 in n dimensions.

    A sample at offset y with d = max(|y|, min_pair_distance) contributes
    k_e q^2 / d^(n-1) along y / d, so its weight on y is k_e q^2 / d^n.
    """
    d = np.maximum(np.sqrt(d2), config.min_pair_distance)
    return ke_q2 / d ** (n - 1) / d


def check_pair_distance(config: NeighborConfig, n: int, charge: float) -> None:
    """Raise ValueError unless a sample at the clamped pair distance has a
    finite force weight at this charge in n dimensions. The query's own
    vertex is a sample at distance 0, and a weight that overflows, or that
    divides zero by an underflowed d^(n-1), times its zero offset is NaN."""
    with np.errstate(all="ignore"):
        weight = float(_weights(np.zeros(1), n, config.k_e * charge * charge, config)[0])
    if not math.isfinite(weight):
        raise ValueError(
            f"min_pair_distance {config.min_pair_distance!r} is too small: a sample at "
            f"that distance has force weight {weight!r} in {n} dimensions"
        )


def elliptical_nn_query(
    x: State,
    points: np.ndarray,
    valid: np.ndarray,
    r: float,
    config: NeighborConfig,
    charge: float,
    *,
    stats: dict | None = None,
) -> tuple[np.ndarray, EllipsoidRegion | None]:
    """Core query: (int array of the valid members' indices, final region).

    The samples are the rows of the (m, n) array ``points`` with validity
    flags ``valid`` (a bool array), all of charge ``charge``; r is the base
    radius of the batch. Candidates start as the samples at offsets y from
    x with |y|^2 <= reach^2, in index order: reach is max_prolongation * r
    (a superset of anything the region can ever contain), or r when the
    charge is zero and the region can only be the r-ball. The virtual force
    is accumulated over the surviving candidates each round and membership
    retested until the invalid ratio drops below phi_threshold or the round
    bound is hit. Invalid samples are stripped from the result. With
    ``stats``, the rounds run are added to ``stats["shrink_rounds"]``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    # the cap on the major radius, so no region reaches farther
    cap = r * config.max_prolongation
    ke_q2 = config.k_e * charge * charge
    offsets = points - x
    dist2 = np.einsum("ij,ij->i", offsets, offsets)
    if ke_q2 == 0.0:
        # the force stays zero, so the region is the r-ball; the margin keeps
        # every point the ball test admits
        ball = r * (1.0 + 1e-9)
        cand = (dist2 <= ball * ball).nonzero()[0]
        if cand.size == 0:
            # whether anything lies within the cap still decides between no
            # round and one empty round
            cand = (dist2 <= cap * cap).nonzero()[0]
    else:
        cand = (dist2 <= cap * cap).nonzero()[0]
    if cand.size == 0:
        return cand, None
    valid_flags = valid[cand]
    # per-candidate geometry is invariant across rounds (candidates only
    # shrink), so gather offsets and signed weights once
    diff = offsets[cand]
    d2 = dist2[cand]
    weight = _weights(d2, n, ke_q2, config)
    signed = np.where(valid_flags, weight, -weight)
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
            step = signed @ diff
        if final:
            # phi can no longer change, so this round is the last if it ends
            # the loop, or if the charge is zero and the force stays zero;
            # else every round to the cap runs. Each adds step, as a
            # membership round does, in the same order.
            phi = n_invalid / n_total
            stop = phi < config.phi_threshold or ke_q2 == 0.0
            last = rounds + 1 if stop else config.max_shrink_rounds
            for rounds in range(rounds + 1, last + 1):
                force = force + step
            fnorm = math.sqrt(float(force @ force))
            major = min(r * (1.0 + config.k * fnorm), cap)
            break
        rounds += 1
        force = force + step
        fnorm = math.sqrt(float(force @ force))
        major = min(r * (1.0 + config.k * fnorm), cap)
        if fnorm > 0.0:
            # prolate test in closed form: every minor semi-axis is r;
            # form = (p / major)^2 + (d2 - p^2) / r2
            p = diff @ (force / fnorm)
            form = p / major
            form *= form
            rest = p * p
            np.subtract(d2, rest, out=rest)
            rest /= r2
            form += rest
            inside = form < 1.0
        else:
            inside = np.einsum("ij,ij->i", diff / r, diff / r) < 1.0
        keep = inside.nonzero()[0]
        if keep.size == 0:
            _count_rounds(stats, rounds)
            return cand[:0], _region(x, force, fnorm, major, r)
        if keep.size < n_total:
            cand = cand[keep]
            valid_flags = valid_flags[keep]
            diff = diff[keep]
            signed = signed[keep]
            d2 = d2[keep]
            step = None
            checked = False
            n_total = keep.size
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
        if ke_q2 == 0.0:
            # zero charge leaves the force at zero forever, so the region
            # and its membership are already at their fixed point
            break
    _count_rounds(stats, rounds)
    return cand[valid_flags], _region(x, force, fnorm, major, r)


def _count_rounds(stats: dict | None, rounds: int) -> None:
    if stats is not None:
        stats["shrink_rounds"] = stats.get("shrink_rounds", 0) + rounds


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
