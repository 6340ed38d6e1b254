import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptstar.geometry import orthonormal_basis
from aptstar.neighbors import (
    ChargedSample,
    EllipsoidRegion,
    NeighborConfig,
    coulomb_force,
    eccentricity,
    elliptical_nearest_neighbors,
    elliptical_nn_indices,
    in_ellipse,
    orthonormal_frame,
    prolate_axes,
    rnn_radius,
)

from oracles import brute_elliptical_nn


CFG = NeighborConfig()


def samples_from(points, valid_flags, charge=1.0):
    return [
        ChargedSample(np.asarray(p, dtype=float), bool(v), charge)
        for p, v in zip(points, valid_flags)
    ]


class TestRnnRadius:
    def test_frozen_value(self):
        # 2 * (1.5 * log(3) / 3) ** 0.5, frozen from direct evaluation
        got = rnn_radius(3, 2, math.pi, math.pi, eta=1.0)
        assert got == pytest.approx(1.4823038073675112, abs=1e-12)

    def test_decreasing_in_batch(self):
        args = (2, math.pi, math.pi)
        assert rnn_radius(10**6, *args) < rnn_radius(10**3, *args)

    def test_linear_in_eta(self):
        base = rnn_radius(50, 3, 1.0, 1.0, eta=1.0)
        assert rnn_radius(50, 3, 1.0, 1.0, eta=1.001) == pytest.approx(
            1.001 * base, rel=1e-12
        )

    def test_small_batch_floored(self):
        assert rnn_radius(1, 2, 1.0, 1.0) == rnn_radius(2, 2, 1.0, 1.0)
        assert rnn_radius(0, 2, 1.0, 1.0) > 0.0

    def test_infinite_informed_uses_bounds(self):
        assert rnn_radius(10, 2, math.inf, 1.0) == rnn_radius(10, 2, 5.0, 1.0)


class TestCoulombForce:
    def test_single_attractor(self):
        f = coulomb_force(
            np.array([0.0, 0.0]), samples_from([(1, 0)], [True]), CFG
        )
        assert np.allclose(f, [1.0, 0.0], atol=1e-15)

    def test_attractor_plus_repulsor(self):
        f = coulomb_force(
            np.array([0.0, 0.0]),
            samples_from([(1, 0), (0, 2)], [True, False]),
            CFG,
        )
        assert np.allclose(f, [1.0, -0.5], atol=1e-15)

    def test_symmetric_cancellation(self):
        f = coulomb_force(
            np.array([0.0, 0.0]),
            samples_from([(1, 0), (-1, 0)], [True, True]),
            CFG,
        )
        assert np.allclose(f, [0.0, 0.0], atol=1e-15)

    def test_empty_neighbors(self):
        assert np.array_equal(coulomb_force(np.zeros(3), [], CFG), np.zeros(3))

    def test_magnitude_law(self):
        # one neighbor at distance r: ||F|| = k_e q^2 / r^(n-1) exactly
        for n in (2, 3, 4):
            for r in (0.25, 1.0, 2.0):
                x = np.zeros(n)
                p = np.zeros(n)
                p[0] = r
                f = coulomb_force(x, [ChargedSample(p, True, 1.3)], CFG)
                assert np.linalg.norm(f) == pytest.approx(
                    CFG.k_e * 1.3**2 / r ** (n - 1), rel=1e-12
                )

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rotation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        rot = orthonormal_basis(rng.standard_normal(n))
        x = rng.uniform(-1, 1, n)
        pts = rng.uniform(-1, 1, (6, n))
        flags = rng.random(6) < 0.5
        nbrs = samples_from(pts, flags)
        nbrs_rot = samples_from(pts @ rot.T, flags)
        f = coulomb_force(x, nbrs, CFG)
        f_rot = coulomb_force(rot @ x, nbrs_rot, CFG)
        assert np.allclose(f_rot, rot @ f, atol=1e-9 * max(1.0, np.linalg.norm(f)))

    def test_coincident_sample_clamped(self):
        x = np.array([0.0, 0.0])
        f = coulomb_force(x, samples_from([(0.0, 0.0)], [True]), CFG)
        assert np.all(np.isfinite(f))


class TestFrameAndAxes:
    def test_identity_frame(self):
        assert np.array_equal(orthonormal_frame(np.array([1.0, 0.0])), np.eye(2))

    def test_prolate_axes(self):
        cfg = NeighborConfig(k=1.0)
        axes = prolate_axes(1.0, np.array([0.5, 0.0, 0.0]), cfg)
        assert np.allclose(axes, [1.5, 1.0, 1.0])

    def test_zero_force_is_sphere(self):
        axes = prolate_axes(0.7, np.zeros(3), CFG)
        assert np.allclose(axes, 0.7)

    def test_cap(self):
        cfg = NeighborConfig(k=1.0, max_prolongation=3.0)
        axes = prolate_axes(1.0, np.array([1e6, 0.0]), cfg)
        assert axes[0] == 3.0


class TestInEllipse:
    def test_ball_case(self):
        region = EllipsoidRegion(np.zeros(2), np.eye(2), np.array([1.0, 1.0]))
        assert in_ellipse(np.zeros(2), np.array([0.5, 0.0]), region)

    def test_boundary_excluded(self):
        region = EllipsoidRegion(np.zeros(2), np.eye(2), np.array([2.0, 1.0]))
        assert not in_ellipse(np.zeros(2), np.array([2.0, 0.0]), region)

    def test_rotated_frame(self):
        u1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        u2 = np.array([-1.0, 1.0]) / math.sqrt(2.0)
        region = EllipsoidRegion(
            np.array([0.2, 0.3]), np.column_stack([u1, u2]), np.array([2.0, 1.0])
        )
        center = np.array([0.2, 0.3])
        assert in_ellipse(center, center + 1.5 * u1, region)
        assert not in_ellipse(center, center + 1.5 * u2, region)

    def test_ball_equals_euclidean_predicate(self):
        rng = np.random.default_rng(9)
        r = 0.8
        region = EllipsoidRegion(np.zeros(3), np.eye(3), np.full(3, r))
        pts = rng.uniform(-1.5, 1.5, (10_000, 3))
        got = region.contains(pts)
        want = np.sqrt(np.sum(pts**2, axis=1)) < r
        assert np.array_equal(got, want)

    def test_non_orthonormal_frame_rejected(self):
        with pytest.raises(ValueError):
            EllipsoidRegion(np.zeros(2), np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2))


class TestEccentricity:
    def test_sphere(self):
        region = EllipsoidRegion(np.zeros(2), np.eye(2), np.full(2, 0.4))
        assert eccentricity(region, 0.4) == 0.0

    def test_frozen_2d_value(self):
        region = EllipsoidRegion(np.zeros(2), np.eye(2), np.array([2.0, 1.0]))
        # sqrt(1 - 1/sqrt(2)), frozen from direct evaluation
        assert eccentricity(region, 1.0) == pytest.approx(0.5411961001461971, abs=1e-12)

    def test_monotone_toward_sphere(self):
        cfg = NeighborConfig(k=1.0)
        vals = []
        for fnorm in (1.0, 0.5, 0.1, 0.01):
            axes = prolate_axes(1.0, np.array([fnorm, 0.0]), cfg)
            region = EllipsoidRegion(np.zeros(2), np.eye(2), axes)
            vals.append(eccentricity(region, 1.0))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_malformed_region_rejected(self):
        region = EllipsoidRegion(np.zeros(2), np.eye(2), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            eccentricity(region, 1.5)


def random_fixture(rng, n, count):
    pts = rng.uniform(0.0, 1.0, (count, n))
    flags = rng.random(count) < 0.7
    x = rng.uniform(0.2, 0.8, n)
    return x, pts, flags


class TestEllipticalNearestNeighbors:
    def test_all_valid_single_pass(self):
        rng = np.random.default_rng(0)
        x, pts, _ = random_fixture(rng, 2, 30)
        flags = np.ones(30, dtype=bool)
        samples = samples_from(pts, flags)
        got = elliptical_nearest_neighbors(x, samples, 20, 2, CFG, lambda b: 1.0)
        # single round: force from all-valid candidates, prolate region, done
        assert all(s.valid for s in got)
        assert all(any(s is t for t in samples) for s in got)

    def test_zero_charge_is_isotropic(self):
        rng = np.random.default_rng(1)
        for n in (2, 4):
            for _ in range(200):
                x, pts, flags = random_fixture(rng, n, 40)
                samples = samples_from(pts, flags)
                got = set(
                    elliptical_nn_indices(x, samples, 30, n, CFG, lambda b: 0.0)
                )
                r = rnn_radius(30, n, math.inf, 1.0)
                want = {
                    i
                    for i in range(40)
                    if flags[i] and np.linalg.norm(pts[i] - x) < r
                }
                assert got == want

    def test_output_subset_valid_and_in_region(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, pts, flags = random_fixture(rng, 2, 50)
            samples = samples_from(pts, flags)
            idx = elliptical_nn_indices(x, samples, 25, 2, CFG, lambda b: 1.0)
            assert all(flags[i] for i in idx)
            assert len(set(idx)) == len(idx)

    def test_shrink_monotonicity_via_trace(self):
        rng = np.random.default_rng(4)
        x, pts, flags = random_fixture(rng, 2, 50)
        flags[:] = False
        flags[:5] = True
        samples = samples_from(pts, flags)
        trace = io.StringIO()
        elliptical_nn_indices(x, samples, 30, 2, CFG, lambda b: 1.5, trace=trace)
        lines = trace.getvalue().strip().splitlines()
        assert lines
        totals = [int(line.split()[1]) for line in lines]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        for line in lines:
            parts = line.split()
            assert len(parts) == 6

    def test_empty_input(self):
        assert elliptical_nn_indices(np.zeros(2), [], 10, 2, CFG, lambda b: 1.0) == []

    def test_hand_fixture_matches_oracle(self):
        # 4 valid samples on the free side, 2 invalid clustered on +x
        x = np.array([0.5, 0.5])
        pts = [
            (0.35, 0.5),
            (0.4, 0.62),
            (0.42, 0.38),
            (0.3, 0.55),
            (0.62, 0.5),
            (0.6, 0.56),
        ]
        flags = [True, True, True, True, False, False]
        samples = samples_from(pts, flags, 1.5)
        got = elliptical_nn_indices(x, samples, 12, 2, CFG, lambda b: 1.5)
        want = brute_elliptical_nn(
            tuple(x), list(zip(pts, flags)), 12, 2, CFG, 1.5
        )
        assert sorted(got) == sorted(want)

    def test_brute_force_equivalence_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 8):
            for _ in range(100):
                count = int(rng.integers(3, 51))
                x, pts, flags = random_fixture(rng, n, count)
                charge = float(rng.uniform(0.1, 1.9))
                batch = int(rng.integers(5, 60))
                samples = samples_from(pts, flags, charge)
                got = elliptical_nn_indices(x, samples, batch, n, CFG, lambda b: charge)
                want = brute_elliptical_nn(
                    tuple(x),
                    [(tuple(p), bool(v)) for p, v in zip(pts, flags)],
                    batch,
                    n,
                    CFG,
                    charge,
                )
                assert sorted(got) == sorted(want)

    def test_frozen_membership_runs_every_round(self):
        # invalid samples inside the r-ball can never leave the region, so
        # phi stays at 3/8 and the loop runs to the round cap; the sample
        # far out on the minor axis drops in round one, after which every
        # survivor lies inside the r-ball and membership is final
        x = np.array([0.5, 0.5])
        r = rnn_radius(12, 2, math.inf, 1.0)
        offsets = [
            (0.6, 0.0), (0.5, 0.3), (0.5, -0.3), (0.4, 0.4), (0.4, -0.4),
            (-0.5, 0.0), (-0.4, 0.2), (-0.4, -0.2), (0.0, 2.5),
        ]
        flags = [True] * 5 + [False] * 4
        pts = [tuple(x + r * np.array(o)) for o in offsets]
        samples = samples_from(pts, flags, 1.2)
        stats = {}
        trace = io.StringIO()
        got = elliptical_nn_indices(
            x, samples, 12, 2, CFG, lambda b: 1.2, stats=stats, trace=trace
        )
        lines = trace.getvalue().splitlines()
        assert stats["shrink_rounds"] == CFG.max_shrink_rounds
        assert len(lines) == CFG.max_shrink_rounds
        assert [int(line.split()[0]) for line in lines] == list(
            range(1, CFG.max_shrink_rounds + 1)
        )
        assert all(line.split()[1:4] == ["8", "3", "0.375000000"] for line in lines)
        want = brute_elliptical_nn(tuple(x), list(zip(pts, flags)), 12, 2, CFG, 1.2)
        assert sorted(got) == sorted(want) == [0, 1, 2, 3, 4]


class TestChargedSample:
    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            ChargedSample(np.zeros(2), True, -0.1)


class TestNeighborConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborConfig(phi_threshold=0.0)
        with pytest.raises(ValueError):
            NeighborConfig(min_pair_distance=0.0)
        with pytest.raises(ValueError):
            NeighborConfig(max_prolongation=0.5)
