"""Force-based anisotropic nearest-neighbor search.

Samples carry an electric charge; free-space samples attract and
in-collision samples repel the query state. The resulting virtual force
stretches the usual r-nearest-neighbor ball into a prolate ellipsoid whose
major axis follows the force, and a shrink loop discards candidates until
fewer than ``phi_threshold`` of the in-region samples are invalid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .geometry import State, as_state, orthonormal_basis, unit_ball_volume


@dataclass(frozen=True)
class ChargedSample:
    state: State
    valid: bool
    charge: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "state", as_state(self.state))
        if self.charge < 0.0:
            raise ValueError("charge must be nonnegative")


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
        if not 0.0 < self.phi_threshold <= 1.0:
            raise ValueError("phi_threshold must be in (0, 1]")
        if self.min_pair_distance <= 0.0:
            raise ValueError("min_pair_distance must be positive")
        if self.max_prolongation < 1.0:
            raise ValueError("max_prolongation must be at least 1")
        if self.max_shrink_rounds < 1:
            raise ValueError("max_shrink_rounds must be positive")


@dataclass(frozen=True)
class EllipsoidRegion:
    """Prolate neighbor region: center, orthonormal frame, semi-axis lengths."""

    center: State
    frame: np.ndarray
    semi_axes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_state(self.center))
        object.__setattr__(self, "frame", np.asarray(self.frame, dtype=float))
        object.__setattr__(self, "semi_axes", np.asarray(self.semi_axes, dtype=float))
        n = self.center.size
        if self.frame.shape != (n, n):
            raise ValueError("frame must be n x n")
        if self.semi_axes.shape != (n,):
            raise ValueError("one semi-axis per dimension required")
        if np.any(self.semi_axes <= 0.0):
            raise ValueError("semi-axes must be positive")
        if np.max(np.abs(self.frame.T @ self.frame - np.eye(n))) > 1e-9:
            raise ValueError("frame is not orthonormal")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Strict quadratic-form membership for an (m, n) array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        local = (points - self.center) @ self.frame
        return np.sum((local / self.semi_axes) ** 2, axis=1) < 1.0

    def contains_point(self, x: State) -> bool:
        return bool(self.contains(np.asarray(x, dtype=float)[None, :])[0])


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


def coulomb_force(
    x: State,
    neighbors: Sequence[ChargedSample],
    config: NeighborConfig,
) -> np.ndarray:
    """Total virtual Coulomb force on x from charged neighbor samples.

    Valid neighbors pull toward themselves, invalid ones push away; each
    contributes k_e * q^2 / r^(n-1) along the unit direction, with pair
    distances clamped below by min_pair_distance.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not neighbors:
        return np.zeros(n)
    positions = np.array([s.state for s in neighbors], dtype=float)
    charges = np.array([s.charge for s in neighbors], dtype=float)
    signs = np.where([s.valid for s in neighbors], 1.0, -1.0)
    diff = positions - x
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    dist = np.maximum(dist, config.min_pair_distance)
    unit = diff / dist[:, None]
    magnitude = config.k_e * charges**2 / dist ** (n - 1)
    return np.sum((signs * magnitude)[:, None] * unit, axis=0)


def orthonormal_frame(f: np.ndarray) -> np.ndarray:
    """Frame whose first column is the force direction; identity for zero force."""
    return orthonormal_basis(np.asarray(f, dtype=float))


def prolate_axes(r: float, f: np.ndarray, config: NeighborConfig) -> np.ndarray:
    """Semi-axes of the prolated region: d1 = r(1 + k * ||f||), rest stay at r.

    The major axis is capped at max_prolongation * r.
    """
    if r <= 0.0:
        raise ValueError("base radius must be positive")
    f = np.asarray(f, dtype=float)
    fnorm = float(np.sqrt(np.sum(f * f)))
    axes = np.full(f.size, r)
    axes[0] = min(r * (1.0 + config.k * fnorm), r * config.max_prolongation)
    return axes


def in_ellipse(x_center: State, x_i: State, region: EllipsoidRegion) -> bool:
    """Strict-inequality membership of x_i in the region centered at x_center."""
    if not np.array_equal(np.asarray(x_center, dtype=float), region.center):
        region = EllipsoidRegion(x_center, region.frame, region.semi_axes)
    return region.contains_point(x_i)


def eccentricity(region: EllipsoidRegion, r: float) -> float:
    """Normalized geometric-mean eccentricity; 0 iff the region is a ball."""
    if r <= 0.0:
        raise ValueError("base radius must be positive")
    d = region.semi_axes
    if np.any(d < r * (1.0 - 1e-12)):
        raise ValueError("malformed region: semi-axis below the base radius")
    gm = float(np.exp(np.mean(np.log(d))))
    radicand = min(max(1.0 - r / gm, 0.0), 1.0 - 1e-16)
    return math.sqrt(radicand)


def elliptical_nn_query(
    x: State,
    samples: Sequence[ChargedSample],
    batch_size: int,
    n: int,
    config: NeighborConfig,
    charge_fn: Callable[[int], float],
    *,
    informed_measure: float = math.inf,
    bounds_measure: float = 1.0,
    eta: float = 1.0,
    radius_factor: float = 1.0,
    kdtree: cKDTree | None = None,
    positions: np.ndarray | None = None,
    valid: np.ndarray | None = None,
    trace=None,
    stats: dict | None = None,
) -> tuple[list[int], EllipsoidRegion | None, float]:
    """Core query: (valid member indices, final region, base radius).

    Candidates start as the samples within max_prolongation * r of x (a
    superset of anything the region can ever contain); the virtual force is
    accumulated over the surviving candidates each round and membership
    retested until the invalid ratio drops below phi_threshold or the round
    bound is hit. The region's frame is built once, for the final force.
    Invalid samples are stripped from the result. Callers with precomputed
    position and validity arrays may pass samples as None.
    """
    x = np.asarray(x, dtype=float)
    if positions is None:
        positions = np.array([s.state for s in samples], dtype=float).reshape(
            len(samples), n
        )
    r = radius_factor * rnn_radius(batch_size, n, informed_measure, bounds_measure, eta)
    reach = config.max_prolongation * r
    if len(positions) == 0:
        return [], None, r
    if kdtree is not None:
        cand = np.sort(np.asarray(kdtree.query_ball_point(x, reach), dtype=int))
    else:
        dist = np.sqrt(np.einsum("ij,ij->i", positions - x, positions - x))
        cand = np.nonzero(dist <= reach)[0]
    if cand.size == 0:
        return [], None, r
    if valid is not None:
        valid_flags = valid[cand]
    else:
        valid_flags = np.fromiter(
            (samples[i].valid for i in cand), dtype=bool, count=cand.size
        )
    cand_pos = positions[cand]
    q = float(charge_fn(batch_size))
    ke_q2 = config.k_e * q * q
    # per-candidate geometry is invariant across rounds (candidates only
    # shrink), so compute distances, magnitudes, and weights once
    diff = cand_pos - x
    d2 = np.einsum("ij,ij->i", diff, diff)
    d = np.maximum(np.sqrt(d2), config.min_pair_distance)
    mag = ke_q2 / d ** (n - 1)
    weight = mag / d
    r2 = r * r
    # Every region contains the open r-ball, so once all candidates lie
    # inside it (with a margin for rounding in the membership test) no later
    # round can drop one: membership and phi are final and the remaining
    # rounds only add the same force step again.
    ball2 = r2 * (1.0 - 1e-9)
    final = bool(np.all(d2 < ball2))
    force = np.zeros(n)
    step = None  # force increment of the current candidate set
    n_total = cand.size
    n_invalid = int(np.count_nonzero(~valid_flags))
    phi = 1.0
    rounds = 0
    while phi >= config.phi_threshold and rounds < config.max_shrink_rounds:
        rounds += 1
        if stats is not None:
            stats["shrink_rounds"] = stats.get("shrink_rounds", 0) + 1
        if step is None:
            step = np.where(valid_flags, weight, -weight) @ diff
        force = force + step
        fnorm = math.sqrt(float(force @ force))
        major = min(r * (1.0 + config.k * fnorm), r * config.max_prolongation)
        if not final:
            if fnorm > 0.0:
                # prolate test in closed form: every minor semi-axis is r
                p = diff @ (force / fnorm)
                inside = (p / major) ** 2 + (d2 - p * p) / r2 < 1.0
            else:
                inside = np.einsum("ij,ij->i", diff / r, diff / r) < 1.0
            n_inside = int(np.count_nonzero(inside))
            if n_inside == 0:
                if trace is not None:
                    trace.write(f"{rounds} 0 0 nan {fnorm:.9e} {major / r:.9f}\n")
                return [], _region(x, force, fnorm, major, r), r
            if n_inside < n_total:
                cand = cand[inside]
                valid_flags = valid_flags[inside]
                diff = diff[inside]
                weight = weight[inside]
                d2 = d2[inside]
                step = None
                n_total = n_inside
                n_invalid = int(np.count_nonzero(~valid_flags))
                final = bool(np.all(d2 < ball2))
        phi = n_invalid / n_total
        if trace is not None:
            trace.write(
                f"{rounds} {n_total} {n_invalid} {phi:.9f} {fnorm:.9e} {major / r:.9f}\n"
            )
        if ke_q2 == 0.0:
            # zero charge leaves the force at zero forever, so the region
            # and its membership are already at their fixed point
            break
    return cand[valid_flags].tolist(), _region(x, force, fnorm, major, r), r


def _region(
    x: State, force: np.ndarray, fnorm: float, major: float, r: float
) -> EllipsoidRegion:
    """The region for the final force, with its frame built once per query."""
    frame = orthonormal_basis(force) if fnorm > 0.0 else np.eye(x.size)
    axes = np.full(x.size, r)
    axes[0] = major
    return EllipsoidRegion(x, frame, axes)


def elliptical_nn_indices(
    x: State,
    samples: Sequence[ChargedSample],
    batch_size: int,
    n: int,
    config: NeighborConfig,
    charge_fn: Callable[[int], float],
    **kwargs,
) -> list[int]:
    """Indices (into samples) of the valid members of the final prolate region."""
    idx, _, _ = elliptical_nn_query(x, samples, batch_size, n, config, charge_fn, **kwargs)
    return idx


def elliptical_nearest_neighbors(
    x: State,
    samples: Sequence[ChargedSample],
    batch_size: int,
    n: int,
    config: NeighborConfig,
    charge_fn: Callable[[int], float],
    **kwargs,
) -> list[ChargedSample]:
    """Valid samples inside the force-prolated neighbor region around x."""
    idx = elliptical_nn_indices(x, samples, batch_size, n, config, charge_fn, **kwargs)
    return [samples[i] for i in idx]
