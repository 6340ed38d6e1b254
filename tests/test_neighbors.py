import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from aptstar.cli import main
from aptstar.geometry import orthonormal_basis
from aptstar.neighbors import (
    EllipsoidRegion,
    NeighborConfig,
    coulomb_force,
    elliptical_nn_query,
    rnn_radius,
)

from oracles import (
    brute_elliptical_nn,
    elliptical_nn_kd,
    gram_schmidt_columns,
    rewire_candidates_kd,
)


CFG = NeighborConfig()


def query(x, pts, flags, batch, charge, cfg=CFG, **kwargs):
    """elliptical_nn_query over the points, with the base radius of a batch
    in the unit cube."""
    pts = np.asarray(pts, dtype=float)
    return elliptical_nn_query(
        np.asarray(x, dtype=float),
        pts.reshape(len(pts), len(x)),
        np.asarray(flags, dtype=bool),
        rnn_radius(batch, len(x), math.inf, 1.0),
        cfg,
        charge,
        **kwargs,
    )


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
        f = coulomb_force(np.array([0.0, 0.0]), [(1, 0)], [True], 1.0, CFG)
        assert np.allclose(f, [1.0, 0.0], atol=1e-15)

    def test_attractor_plus_repulsor(self):
        f = coulomb_force(
            np.array([0.0, 0.0]), [(1, 0), (0, 2)], [True, False], 1.0, CFG
        )
        assert np.allclose(f, [1.0, -0.5], atol=1e-15)

    def test_symmetric_cancellation(self):
        f = coulomb_force(
            np.array([0.0, 0.0]), [(1, 0), (-1, 0)], [True, True], 1.0, CFG
        )
        assert np.allclose(f, [0.0, 0.0], atol=1e-15)

    def test_empty_neighbors(self):
        assert np.array_equal(
            coulomb_force(np.zeros(3), np.zeros((0, 3)), [], 1.0, CFG), np.zeros(3)
        )

    def test_magnitude_law(self):
        # one neighbor at distance r: ||F|| = k_e q^2 / r^(n-1) exactly
        for n in (2, 3, 4):
            for r in (0.25, 1.0, 2.0):
                x = np.zeros(n)
                p = np.zeros(n)
                p[0] = r
                f = coulomb_force(x, [p], [True], 1.3, CFG)
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
        f = coulomb_force(x, pts, flags, 1.0, CFG)
        f_rot = coulomb_force(rot @ x, pts @ rot.T, flags, 1.0, CFG)
        assert np.allclose(f_rot, rot @ f, atol=1e-9 * max(1.0, np.linalg.norm(f)))

    def test_coincident_sample_clamped(self):
        x = np.array([0.0, 0.0])
        f = coulomb_force(x, [(0.0, 0.0)], [True], 1.0, CFG)
        assert np.all(np.isfinite(f))


def query_region(x, pts, flags, charge, n, cfg=CFG, batch=12):
    """The region and base radius of one query with a constant charge."""
    _, region = query(x, pts, flags, batch, charge, cfg)
    return region, rnn_radius(batch, n, math.inf, 1.0)


def region_frame(region):
    """Orthonormal frame whose first column is the region's axis; identity for a ball."""
    if region.axis is None:
        return np.eye(np.asarray(region.center).size)
    return orthonormal_basis(region.axis)


class TestFrameAndAxes:
    def test_identity_frame(self):
        region = EllipsoidRegion(np.zeros(2), np.array([1.0, 0.0]), 2.0, 1.0)
        assert np.array_equal(region_frame(region), np.eye(2))
        ball = EllipsoidRegion(np.zeros(3), None, 1.0, 1.0)
        assert np.array_equal(region_frame(ball), np.eye(3))
        assert np.array_equal(np.array(gram_schmidt_columns([1.0, 0.0])).T, np.eye(2))

    def test_prolate_axes(self):
        # one valid sample on the first axis pulls with |f| = q^2 / d^2 = 0.5
        cfg = NeighborConfig(k=1.0)
        r = rnn_radius(12, 3, math.inf, 1.0)
        d = 0.5 * r
        region, got_r = query_region(
            np.zeros(3), [(d, 0.0, 0.0)], [True], d * math.sqrt(0.5), 3, cfg
        )
        assert got_r == r
        assert region.major == pytest.approx(1.5 * r, rel=1e-12)
        assert region.minor == r
        assert np.allclose(region.axis, [1.0, 0.0, 0.0], atol=1e-15)

    def test_zero_force_is_sphere(self):
        r = rnn_radius(12, 3, math.inf, 1.0)
        pts = [(0.3 * r, 0.0, 0.0), (0.0, -0.5 * r, 0.1 * r), (2.0 * r, 0.0, 0.0)]
        region, _ = query_region(np.zeros(3), pts, [True, False, True], 0.0, 3)
        assert region.axis is None
        assert region.major == region.minor == r

    def test_cap(self):
        cfg = NeighborConfig(k=1.0, max_prolongation=3.0)
        r = rnn_radius(12, 2, math.inf, 1.0)
        region, _ = query_region(np.zeros(2), [(0.5 * r, 0.0)], [True], 1e3, 2, cfg)
        assert region.major == 3.0 * r


class TestInEllipse:
    def test_ball_case(self):
        region = EllipsoidRegion(np.zeros(2), None, 1.0, 1.0)
        assert region.contains(np.array([0.5, 0.0]))[0]

    def test_boundary_excluded(self):
        region = EllipsoidRegion(np.zeros(2), np.array([1.0, 0.0]), 2.0, 1.0)
        assert not region.contains(np.array([2.0, 0.0]))[0]

    def test_rotated_frame(self):
        u1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        u2 = np.array([-1.0, 1.0]) / math.sqrt(2.0)
        center = np.array([0.2, 0.3])
        region = EllipsoidRegion(center, u1, 2.0, 1.0)
        assert region.contains(center + 1.5 * u1)[0]
        assert not region.contains(center + 1.5 * u2)[0]

    def test_ball_equals_euclidean_predicate(self):
        rng = np.random.default_rng(9)
        r = 0.8
        region = EllipsoidRegion(np.zeros(3), None, r, r)
        pts = rng.uniform(-1.5, 1.5, (10_000, 3))
        got = region.contains(pts)
        want = np.sqrt(np.sum(pts**2, axis=1)) < r
        assert np.array_equal(got, want)

    def test_malformed_radii_rejected(self):
        with pytest.raises(ValueError):
            EllipsoidRegion(np.zeros(2), np.array([1.0, 0.0]), 0.5, 1.0)
        with pytest.raises(ValueError):
            EllipsoidRegion(np.zeros(2), None, 2.0, 1.0)
        with pytest.raises(ValueError):
            EllipsoidRegion(np.zeros(2), None, 0.0, 0.0)


def oracle_form(center, axis, major, minor, points):
    """Quadratic form of each point in the frame of oracles.gram_schmidt_columns."""
    n = len(center)
    if axis is None:
        cols = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    else:
        cols = gram_schmidt_columns([float(v) for v in axis])
    radii = [major] + [minor] * (n - 1)
    out = []
    for pt in points:
        y = [float(pt[k]) - float(center[k]) for k in range(n)]
        out.append(
            sum((sum(y[k] * col[k] for k in range(n)) / a) ** 2 for a, col in zip(radii, cols))
        )
    return np.array(out)


class TestRegionAgainstFrameOracle:
    """The closed-form test against the quadratic form in a Gram-Schmidt frame."""

    def regions(self, rng, n):
        """Random regions, and the regions that random queries return."""
        out = []
        for _ in range(10):
            r = float(rng.uniform(0.05, 0.5))
            axis = rng.standard_normal(n)
            axis /= np.linalg.norm(axis)
            out.append(EllipsoidRegion(rng.uniform(0, 1, n), axis, r * rng.uniform(1, 3), r))
        out.append(EllipsoidRegion(rng.uniform(0, 1, n), None, 0.3, 0.3))
        while len(out) < 20:
            x, pts, flags = random_fixture(rng, n, 40)
            region, _ = query_region(x, pts, flags, float(rng.uniform(0.5, 1.9)), n, batch=20)
            if region is not None:
                out.append(region)
        return out

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_contains_and_rewiring_test_match_oracle(self, n):
        rng = np.random.default_rng(n)
        for region in self.regions(rng, n):
            for factor in (1.0, 1.2):
                scaled = region.scaled(factor)
                pts = region.center + rng.uniform(-1, 1, (400, n)) * 1.2 * scaled.major
                form = oracle_form(
                    scaled.center, scaled.axis, scaled.major, scaled.minor, pts
                )
                off_band = np.abs(form - 1.0) > 1e-9
                assert off_band.sum() > 350
                got = scaled.contains_offsets(pts - scaled.center)
                assert np.array_equal(got[off_band], (form < 1.0)[off_band])
                assert np.array_equal(scaled.contains(pts), got)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_frame_is_the_oracle_frame(self, n):
        rng = np.random.default_rng(10 + n)
        for region in self.regions(rng, n):
            frame = region_frame(region)
            assert np.allclose(frame.T @ frame, np.eye(n), atol=1e-12)
            if region.axis is None:
                assert np.array_equal(frame, np.eye(n))
                continue
            want = np.array(gram_schmidt_columns([float(v) for v in region.axis])).T
            assert np.allclose(frame, want, atol=1e-12)
            # the frame's quadratic form gives the same membership
            pts = region.center + rng.uniform(-1, 1, (400, n)) * 1.2 * region.major
            local = (pts - region.center) @ frame
            radii = np.full(n, region.minor)
            radii[0] = region.major
            form = np.sum((local / radii) ** 2, axis=1)
            off_band = np.abs(form - 1.0) > 1e-9
            assert np.array_equal(region.contains(pts)[off_band], (form < 1.0)[off_band])


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
        got = query(x, pts, flags, 20, 1.0)[0]
        # single round: force from all-valid candidates, prolate region, done
        assert all(flags[i] for i in got)
        assert all(0 <= i < 30 for i in got)
        assert len(set(got)) == len(got)

    def test_zero_charge_is_isotropic(self):
        rng = np.random.default_rng(1)
        for n in (2, 4):
            for _ in range(200):
                x, pts, flags = random_fixture(rng, n, 40)
                got = set(query(x, pts, flags, 30, 0.0)[0])
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
            idx = query(x, pts, flags, 25, 1.0)[0]
            assert all(flags[i] for i in idx)
            assert len(set(idx)) == len(idx)

    def test_shrink_monotonicity_via_trace(self):
        rng = np.random.default_rng(4)
        x, pts, flags = random_fixture(rng, 2, 50)
        flags[:] = False
        flags[:5] = True
        trace = io.StringIO()
        query(x, pts, flags, 30, 1.5, trace=trace)
        lines = trace.getvalue().strip().splitlines()
        assert lines
        totals = [int(line.split()[1]) for line in lines]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        for line in lines:
            parts = line.split()
            assert len(parts) == 6

    def test_empty_input(self):
        got = query(np.zeros(2), np.zeros((0, 2)), [], 10, 1.0)[0]
        assert got.dtype.kind == "i" and got.tolist() == []

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
        got = query(x, pts, flags, 12, 1.5)[0]
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
                got = query(x, pts, flags, batch, charge)[0]
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
        stats = {}
        trace = io.StringIO()
        got = query(x, pts, flags, 12, 1.2, stats=stats, trace=trace)[0]
        lines = trace.getvalue().splitlines()
        assert stats["shrink_rounds"] == CFG.max_shrink_rounds
        assert len(lines) == CFG.max_shrink_rounds
        assert [int(line.split()[0]) for line in lines] == list(
            range(1, CFG.max_shrink_rounds + 1)
        )
        assert all(line.split()[1:4] == ["8", "3", "0.375000000"] for line in lines)
        want = brute_elliptical_nn(tuple(x), list(zip(pts, flags)), 12, 2, CFG, 1.2)
        assert sorted(got) == sorted(want) == [0, 1, 2, 3, 4]


    def test_first_round_force_is_coulomb_force(self):
        # the loop's first force is coulomb_force over the candidates that
        # max_prolongation * r gathers
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            count = int(rng.integers(3, 51))
            x, pts, flags = random_fixture(rng, n, count)
            charge = float(rng.uniform(0.1, 1.9))
            batch = int(rng.integers(5, 60))
            trace = io.StringIO()
            query(x, pts, flags, batch, charge, trace=trace)
            reach = CFG.max_prolongation * rnn_radius(batch, n, math.inf, 1.0)
            near = np.linalg.norm(pts - x, axis=1) <= reach
            assert near.any()
            force = coulomb_force(x, pts[near], flags[near], charge, CFG)
            first = trace.getvalue().splitlines()[0].split()
            assert first[4] == f"{np.linalg.norm(force):.9e}"


def unit_vectors(rng, count, n):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestZeroChargeGather:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_points_on_the_ball_boundary_match_oracle(self, n):
        # zero charge gathers within r, not max_prolongation * r; points
        # at r (1 +- 1e-12) sit on either side of the ball's boundary
        rng = np.random.default_rng(20 + n)
        batch = 30
        r = rnn_radius(batch, n, math.inf, 1.0)
        for _ in range(40):
            x = rng.uniform(0.3, 0.7, n)
            scales = np.concatenate([
                np.full(6, 1.0 - 1e-12),
                np.full(6, 1.0 + 1e-12),
                rng.uniform(0.0, 1.0, 4),
                rng.uniform(1.0, 3.0, 4),
            ])
            pts = x + r * scales[:, None] * unit_vectors(rng, scales.size, n)
            flags = rng.random(scales.size) < 0.6
            want = brute_elliptical_nn(
                tuple(x), [(tuple(p), bool(v)) for p, v in zip(pts, flags)],
                batch, n, CFG, 0.0,
            )
            got, region = query(x, pts, flags, batch, 0.0)
            assert sorted(got) == want
            assert region.axis is None and region.major == region.minor == r

    def test_nothing_within_r_still_counts_one_round(self):
        # the region is empty, but a sample inside max_prolongation * r
        # costs one round, as when candidates were gathered that far
        x = np.zeros(2)
        r = rnn_radius(12, 2, math.inf, 1.0)
        for far, rounds in ((2.0, 1), (3.5, 0)):
            stats = {}
            got, region = query(x, [(far * r, 0.0)], [True], 12, 0.0, stats=stats)
            assert got.dtype.kind == "i" and got.tolist() == []
            assert stats.get("shrink_rounds", 0) == rounds
            assert (region is None) == (rounds == 0)


def settled_fixture(rng, n, batch):
    """Valid samples in a narrow cone out to 2.6 r pull the region to its cap
    along the cone; invalid samples inside the r-ball keep phi above the
    threshold, and invalid samples off the cone drop out in early rounds."""
    r = rnn_radius(batch, n, math.inf, 1.0)
    x = np.full(n, 0.5)
    u = unit_vectors(rng, 1, n)[0]
    t = np.concatenate([rng.uniform(0.1, 0.3, 2), rng.uniform(0.3, 2.6, 8)])
    cone = u + 0.3 / math.sqrt(n) * rng.standard_normal((10, n))
    along = x + r * t[:, None] * cone
    inner = x + r * rng.uniform(0.5, 0.9, (4, 1)) * unit_vectors(rng, 4, n)
    off = x + r * rng.uniform(1.1, 2.5, (6, 1)) * unit_vectors(rng, 6, n)
    pts = np.vstack([along, inner, off])
    flags = np.array([True] * 10 + [False] * 10)
    return x, pts, flags


class TestSettledRounds:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_oracle_round_by_round(self, n):
        rng = np.random.default_rng(30 + n)
        batch = 30
        fixtures = 40
        settled = 0
        for _ in range(fixtures):
            x, pts, flags = settled_fixture(rng, n, batch)
            charge = float(rng.uniform(1.2, 1.9))
            stats = {}
            trace = io.StringIO()
            got = query(x, pts, flags, batch, charge, stats=stats, trace=trace)[0]
            want, rounds = brute_elliptical_nn(
                tuple(x), [(tuple(p), bool(v)) for p, v in zip(pts, flags)],
                batch, n, CFG, charge, with_rounds=True,
            )
            assert sorted(got) == want
            assert stats["shrink_rounds"] == len(rounds)
            lines = [line.split() for line in trace.getvalue().splitlines()]
            assert [(int(a), int(b), int(c)) for a, b, c, *_ in lines] == [
                (i + 1, total, invalid) for i, (total, invalid) in enumerate(rounds)
            ]
            settled += stats.get("settled", 0)
        # the fixtures exist to exercise the certificate: most must fire it
        assert settled > fixtures // 2


    def test_projection_that_changes_sign_drops(self):
        # offsets in units of r, from a random search: at some settled round
        # a member's projection on the axis has opposite signs at that
        # round's force and at the last force, so it leaves the region
        # where the turning axis passes square to it, though both ends
        # hold it; the certificate must not fire there
        offsets = [
            (1.4142550556929976, -0.7059676959650368),
            (2.4199301172286196, -1.0086195275574006),
            (2.278165444833726, -1.5912060976021185),
            (-0.18814770041731874, -1.9500224233047958),
            (2.797015760434552, -0.6083179944722903),
            (0.8889083376394382, -0.4612628216330394),
            (1.0819386315254254, -0.2538895347780804),
            (-0.062319002448705176, -0.35420163596852505),
            (0.14512502540092423, -0.6657460683925991),
        ]
        flags = [True] * 7 + [False] * 2
        x = np.array([0.5, 0.5])
        r = rnn_radius(30, 2, math.inf, 1.0)
        pts = [tuple(x + r * np.array(o)) for o in offsets]
        charge = 1.3340784915836539
        stats = {}
        got = query(x, pts, flags, 30, charge, stats=stats)[0]
        want, rounds = brute_elliptical_nn(
            tuple(x), list(zip(pts, flags)), 30, 2, CFG, charge, with_rounds=True
        )
        assert sorted(got) == want
        assert stats["shrink_rounds"] == len(rounds)


def region_key(region):
    if region is None:
        return None
    axis = None if region.axis is None else region.axis.tobytes()
    return region.center.tobytes(), axis, region.major, region.minor


class TestTraceChangesNothing:
    """Rounds that can no longer change membership run as one tight loop of
    force additions; with trace= they still write a line each. Both give the
    same members, region and stats, and the oracle's members and rounds."""

    def check(self, x, pts, flags, batch, charge):
        n = len(x)
        plain, traced = {}, {}
        trace = io.StringIO()
        got, region = query(x, pts, flags, batch, charge, stats=plain)
        got_t, region_t = query(x, pts, flags, batch, charge, stats=traced, trace=trace)
        assert np.array_equal(got, got_t)
        assert region_key(region) == region_key(region_t)
        assert plain == traced
        lines = [line.split() for line in trace.getvalue().splitlines()]
        assert [int(line[0]) for line in lines] == list(range(1, len(lines) + 1))
        assert len(lines) == plain.get("shrink_rounds", 0)
        r = rnn_radius(batch, n, math.inf, 1.0)
        if region is not None:
            assert lines[-1][5] == f"{region.major / r:.9f}"
        want, rounds = brute_elliptical_nn(
            tuple(x), [(tuple(p), bool(v)) for p, v in zip(pts, flags)],
            batch, n, CFG, charge, with_rounds=True,
        )
        assert sorted(got) == want
        if charge > 0.0:
            # with zero charge the oracle runs every round of a force that stays zero
            assert len(lines) == len(rounds)
        return plain

    def test_zero_charge(self):
        rng = np.random.default_rng(40)
        for n in (2, 4):
            for _ in range(20):
                x, pts, flags = random_fixture(rng, n, 40)
                stats = self.check(x, pts, flags, 30, 0.0)
                assert stats.get("shrink_rounds", 0) <= 1

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_final_from_the_start(self, n):
        # every candidate lies inside the r-ball, so no round tests membership
        rng = np.random.default_rng(50 + n)
        r = rnn_radius(30, n, math.inf, 1.0)
        x = np.full(n, 0.5)
        for invalid in (0, 1, 4):
            pts = x + r * rng.uniform(0.1, 0.9, (12, 1)) * unit_vectors(rng, 12, n)
            flags = np.arange(12) >= invalid
            stats = self.check(x, pts, flags, 30, 1.3)
            # phi = invalid / 12 ends the loop after one round only below 0.1
            cap = CFG.max_shrink_rounds
            assert stats["shrink_rounds"] == (1 if invalid / 12 < 0.1 else cap)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_settled_mid_loop(self, n):
        rng = np.random.default_rng(60 + n)
        settled = 0
        for _ in range(20):
            x, pts, flags = settled_fixture(rng, n, 30)
            settled += self.check(x, pts, flags, 30, float(rng.uniform(1.2, 1.9))).get(
                "settled", 0
            )
        assert settled > 0

    def test_round_cap(self):
        # the fixture of test_frozen_membership_runs_every_round: round one
        # drops the far sample, and the rest of the rounds run to the cap
        x = np.array([0.5, 0.5])
        r = rnn_radius(12, 2, math.inf, 1.0)
        offsets = [
            (0.6, 0.0), (0.5, 0.3), (0.5, -0.3), (0.4, 0.4), (0.4, -0.4),
            (-0.5, 0.0), (-0.4, 0.2), (-0.4, -0.2), (0.0, 2.5),
        ]
        pts = np.array([x + r * np.array(o) for o in offsets])
        flags = np.array([True] * 5 + [False] * 4)
        assert self.check(x, pts, flags, 12, 1.2)["shrink_rounds"] == CFG.max_shrink_rounds
        # and random queries, some of which reach the cap without settling
        rng = np.random.default_rng(70)
        capped = 0
        for n in (2, 4):
            for _ in range(40):
                x, pts, flags = random_fixture(rng, n, 50)
                stats = self.check(x, pts, flags, 25, float(rng.uniform(0.5, 1.9)))
                capped += stats.get("shrink_rounds", 0) == CFG.max_shrink_rounds
        assert capped > 0


class TestGatherEqualsKdOracle:
    """The query gathers its candidates from the point array by
    |y|^2 <= reach^2; on clouds with no point within rounding of the reach
    sphere it gives the k-d tree query's members, region and stats."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 4, 8]),
        count=st.integers(1, 60),
        batch=st.integers(5, 60),
        charge=st.one_of(st.just(0.0), st.floats(0.1, 1.9)),
        settled=st.booleans(),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_clouds(self, seed, n, count, batch, charge, settled):
        rng = np.random.default_rng(seed)
        if settled:
            x, pts, flags = settled_fixture(rng, n, batch)
        else:
            x, pts, flags = random_fixture(rng, n, count)
        stats, want_stats = {}, {}
        got, region = query(x, pts, flags, batch, charge, stats=stats)
        want, want_region = elliptical_nn_kd(
            x, cKDTree(pts), flags, rnn_radius(batch, n, math.inf, 1.0), CFG, charge,
            stats=want_stats,
        )
        assert got.tolist() == want.tolist()
        assert stats == want_stats
        if want_region is not None:
            axis, major, minor = want_region
            want_region = (x.tobytes(), None if axis is None else axis.tobytes(), major, minor)
        assert region_key(region) == want_region

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("charge", [0.0, 1.3])
    def test_points_on_the_reach_sphere(self, n, charge):
        # one sample within 3 ulps per coordinate of the reach sphere
        # max_prolongation * r: it is a candidate exactly when its squared
        # offset is at most reach^2, and a candidate costs one round (it
        # never lies in the region) where no candidate costs none
        rng = np.random.default_rng(80 + n)
        r = rnn_radius(30, n, math.inf, 1.0)
        reach = r * CFG.max_prolongation
        x = np.full(n, 0.5)
        seen = set()
        for u in unit_vectors(rng, 300, n):
            p = x + reach * u
            for k in range(n):
                steps = int(rng.integers(-3, 4))
                toward = math.inf if steps > 0 else -math.inf
                for _ in range(abs(steps)):
                    p[k] = np.nextafter(p[k], toward)
            y = p[None, :] - x
            gathered = bool(np.einsum("ij,ij->i", y, y)[0] <= reach * reach)
            seen.add(gathered)
            stats = {}
            got, region = query(x, p[None, :], [True], 30, charge, stats=stats)
            assert got.tolist() == []
            assert stats.get("shrink_rounds", 0) == int(gathered)
            assert (region is not None) == gathered
        assert seen == {False, True}


def nudged(rng, p, ulps):
    """p with each coordinate moved by up to ulps ulps either way."""
    p = p.copy()
    for k in range(p.size):
        steps = int(rng.integers(-ulps, ulps + 1))
        toward = math.inf if steps > 0 else -math.inf
        for _ in range(abs(steps)):
            p[k] = np.nextafter(p[k], toward)
    return p


class TestRewireGatherAgainstKdOracle:
    """The rewire keeps the tree rows at offsets y from the vertex that its
    scaled region contains, with no k-d prefilter. form < 1 implies
    |y| < major, so the gathers can differ only on rows where rounding
    decides: the k-d tree drops some rows within ulps of the major-radius
    sphere that the region test keeps (the seed-0 example), and the
    projection y . axis rounds differently over the whole array than over
    the tree's subset, which flips rows whose form is within rounding of 1
    (the seed-837 example). Every other row is gathered by both or by
    neither."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 4, 8]),
        ball=st.booleans(),
        count=st.integers(0, 40),
    )
    @example(seed=0, n=4, ball=False, count=0)
    @example(seed=837, n=8, ball=False, count=0)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_regions(self, seed, n, ball, count):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        minor = float(rng.uniform(0.01, 0.5))
        if ball:
            axis, major = None, minor
        else:
            force = rng.standard_normal(n)
            axis = force / math.sqrt(float(force @ force))
            major = minor * float(rng.uniform(1.0, 3.0))
        region = EllipsoidRegion(x, axis, major, minor).scaled(1.2)
        # rows on the major-radius sphere: on the axis and tilted off it by
        # small angles, or anywhere on a ball, each within 3 ulps per coordinate
        u = unit_vectors(rng, 12, n)
        if axis is not None:
            tilt = 10.0 ** rng.uniform(-12.0, -2.0, (12, 1))
            u = axis * np.where(rng.random((12, 1)) < 0.5, 1.0, -1.0) + tilt * u
            u[:2] = [axis, -axis]
            u /= np.linalg.norm(u, axis=1)[:, None]
        sphere = [nudged(rng, x + region.major * d, 3) for d in u]
        cloud = x + rng.uniform(-1.5, 1.5, (count, n)) * region.major
        rows = np.vstack([cloud, *sphere])[rng.permutation(count + len(sphere))]
        got = region.contains_offsets(rows - x).nonzero()[0]
        want = rewire_candidates_kd(rows, x, region.axis, region.major, region.minor)
        for i in np.setxor1d(got, want).tolist():
            y = (rows[i] - x).tolist()
            d2 = math.fsum(c * c for c in y)
            if region.axis is None:
                form = d2 / region.minor**2
            else:
                p = math.fsum(c * a for c, a in zip(y, region.axis.tolist()))
                form = (p / region.major) ** 2 + (d2 - p * p) / region.minor**2
            assert abs(form - 1.0) < 1e-12, (i, form)


class TestNeighborConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborConfig(phi_threshold=0.0)
        with pytest.raises(ValueError):
            NeighborConfig(min_pair_distance=0.0)
        with pytest.raises(ValueError):
            NeighborConfig(max_prolongation=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", -0.5),
            ("k_e", -1.0),
            ("k", math.nan),
            ("k_e", math.nan),
            ("k_e", math.inf),
            # inf * 0.0 is NaN: a zero force would give a NaN major radius
            ("k", math.inf),
            ("phi_threshold", math.nan),
            ("max_shrink_rounds", 0),
            ("max_shrink_rounds", math.nan),
            ("max_shrink_rounds", 2.5),
            ("max_shrink_rounds", 16.0),
            ("min_pair_distance", math.nan),
            ("max_prolongation", math.nan),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NeighborConfig(**{field: value})

    def test_cli_exits_2_on_negative_k(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        main(["worldgen", "--family", "dw", "--dim", "2", "--out", str(world)])
        config = tmp_path / "cfg.json"
        config.write_text('{"neighbor.k": -0.5}')
        code = main(["plan", "--world", str(world), "--planner", "apt",
                     "--max-iters", "3", "--config", str(config)])
        assert code == 2
        assert "k must be nonnegative" in capsys.readouterr().err
