import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptstar.geometry import (
    HyperRectangle,
    InformedSet,
    ProblemInstance,
    WorldModel,
    default_motion_resolution,
    distance,
    is_motion_valid,
    is_state_valid,
    lebesgue_measure,
    load_world,
    orthonormal_basis,
    sample_batch,
    sample_informed,
    sample_uniform,
    save_world,
    states_valid,
    unit_ball_volume,
    world_from_dict,
    world_to_dict,
)
from aptstar.worlds import WorldSpec, make_world

from oracles import mc_two_focus_volume, motion_valid_fine, state_valid


def unit_world(*obstacles):
    return WorldModel(
        HyperRectangle([0.0, 0.0], [1.0, 1.0]),
        tuple(HyperRectangle(lo, hi) for lo, hi in obstacles),
    )


class TestDistance:
    def test_identity(self):
        assert distance((0, 0), (0, 0)) == 0.0

    def test_345_triangle(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_canonical_start_goal(self):
        assert distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.9, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance((0, 0), (0, 0, 0))

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.data(),
    )
    def test_triangle_inequality(self, a, data):
        n = len(a)
        b = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        c = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6), st.data())
    def test_symmetry(self, a, data):
        b = data.draw(st.lists(st.floats(-10, 10), min_size=len(a), max_size=len(a)))
        assert distance(a, b) == distance(b, a)


class TestSampleUniform:
    def test_containment(self):
        rng = np.random.default_rng(0)
        box = HyperRectangle([0.0, 0.0], [1.0, 1.0])
        for _ in range(100):
            x = sample_uniform(box, rng)
            assert box.contains(x)

    def test_degenerate_box(self):
        rng = np.random.default_rng(0)
        box = HyperRectangle([0.3, 0.7], [0.3, 0.7])
        assert np.array_equal(sample_uniform(box, rng), [0.3, 0.7])

    def test_empirical_mean(self):
        rng = np.random.default_rng(42)
        box = HyperRectangle([0.0, 0.0], [1.0, 1.0])
        draws = np.array([sample_uniform(box, rng) for _ in range(10_000)])
        # 1e4 draws keeps the desk-scale law-of-large-numbers check under a
        # second; the standard error is 0.003, well inside the 0.01 budget.
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) < 0.01)


class TestSampleInformed:
    def test_infinite_cost_is_uniform_fallback(self):
        rng = np.random.default_rng(1)
        box = HyperRectangle([0.0, 0.0], [1.0, 1.0])
        informed = InformedSet([0.1, 0.5], [0.9, 0.5], math.inf, 0.8)
        for _ in range(50):
            assert box.contains(sample_informed(informed, box, rng))

    def test_membership(self):
        rng = np.random.default_rng(2)
        box = HyperRectangle([-2.0, -2.0], [3.0, 2.0])
        informed = InformedSet([0.0, 0.0], [1.0, 0.0], 1.25, 1.0)
        for _ in range(500):
            x = sample_informed(informed, box, rng)
            assert informed.contains(x)
            assert box.contains(x)

    def test_left_half_symmetry(self):
        rng = np.random.default_rng(3)
        box = HyperRectangle([-2.0, -2.0], [3.0, 2.0])
        informed = InformedSet([0.0, 0.0], [1.0, 0.0], 1.25, 1.0)
        draws = np.array([sample_informed(informed, box, rng) for _ in range(20_000)])
        left = np.mean(draws[:, 0] < 0.5)
        # standard error at 2e4 draws is 0.0035
        assert abs(left - 0.5) < 0.012

    def test_cost_below_cmin_rejected(self):
        with pytest.raises(ValueError):
            InformedSet([0.0, 0.0], [1.0, 0.0], 0.5, 1.0)

    def test_alternating_sets_keep_their_own_transform(self):
        # a transform cached on the wrong set, or shared between sets, puts
        # the narrow set's draws far outside it
        rng = np.random.default_rng(4)
        box = HyperRectangle(np.full(3, -3.0), np.full(3, 3.0))
        narrow = InformedSet([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0 + 1e-3, 1.0)
        fa, fb = np.array([-1.0, 0.5, 0.2]), np.array([0.4, -1.2, 1.0])
        c_min = distance(fa, fb)
        wide = InformedSet(fa, fb, 1.5 * c_min, c_min)
        for _ in range(300):
            for informed in (narrow, wide):
                x = sample_informed(informed, box, rng)
                assert informed.contains(x)
                assert box.contains(x)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_membership_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        fa = rng.uniform(-1, 1, n)
        fb = rng.uniform(-1, 1, n)
        c_min = float(np.linalg.norm(fb - fa))
        if c_min < 1e-6:
            return
        c = c_min * float(rng.uniform(1.01, 2.0))
        informed = InformedSet(fa, fb, c, c_min)
        box = HyperRectangle(np.full(n, -5.0), np.full(n, 5.0))
        x = sample_informed(informed, box, rng)
        assert informed.contains(x)



def draws_one_by_one(informed, box, rng, count):
    return np.array([sample_informed(informed, box, rng) for _ in range(count)]).reshape(
        count, box.dimension
    )


class TestSampleBatch:
    """sample_batch must equal count sample_informed calls bit for bit, and
    leave the generator where they leave it."""

    def assert_same_as_one_by_one(self, informed, box, seed, count):
        one, batch = np.random.default_rng(seed), np.random.default_rng(seed)
        want = draws_one_by_one(informed, box, one, count)
        got = sample_batch(informed, box, batch, count)
        assert got.shape == (count, box.dimension)
        assert np.array_equal(got, want)
        assert batch.bit_generator.state == one.bit_generator.state
        return got

    @pytest.mark.parametrize("n", range(1, 17))
    def test_informed_draws_are_bit_identical(self, n):
        rng = np.random.default_rng(100 + n)
        box = HyperRectangle(np.zeros(n), np.ones(n))
        wide = HyperRectangle(np.full(n, -10.0), np.full(n, 10.0))
        cut = 0
        for case in range(20):
            # foci off every coordinate axis, and sets the unit box cuts
            fa, fb = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
            c_min = distance(fa, fb)
            informed = InformedSet(fa, fb, c_min * float(rng.uniform(1.01, 2.5)), c_min)
            count = int(rng.integers(1, 60))
            got = self.assert_same_as_one_by_one(informed, box, case, count)
            # the same stream without rejections gives other rows
            unbounded = sample_batch(informed, wide, np.random.default_rng(case), count)
            cut += not np.array_equal(got, unbounded)
        assert cut >= 5

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_infinite_cost_is_uniform_over_the_bounds(self, n):
        box = HyperRectangle(np.linspace(-1.0, 0.0, n), np.linspace(0.5, 3.0, n))
        fa, fb = np.zeros(n), np.full(n, 0.1)
        informed = InformedSet(fa, fb, math.inf, distance(fa, fb))
        got = self.assert_same_as_one_by_one(informed, box, 7, 100)
        assert all(box.contains(x) for x in got)

    def test_count_zero(self):
        box = HyperRectangle([0.0] * 3, [1.0] * 3)
        fa, fb = [0.1, 0.2, 0.3], [0.9, 0.8, 0.4]
        for c in (math.inf, 1.5):
            informed = InformedSet(fa, fb, c, distance(fa, fb))
            got = self.assert_same_as_one_by_one(informed, box, 3, 0)
            assert got.shape == (0, 3)

    def test_negative_count_rejected(self):
        box = HyperRectangle([0.0, 0.0], [1.0, 1.0])
        informed = InformedSet([0.1, 0.5], [0.9, 0.5], 1.0, 0.8)
        with pytest.raises(ValueError):
            sample_batch(informed, box, np.random.default_rng(0), -1)

    def test_no_interior_rejected_by_both(self):
        box = HyperRectangle([0.0, 0.0], [1.0, 1.0])
        informed = InformedSet([0.1, 0.5], [0.9, 0.5], 0.8, 0.8)
        with pytest.raises(ValueError, match="no interior"):
            sample_informed(informed, box, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no interior"):
            sample_batch(informed, box, np.random.default_rng(0), 5)

    def test_set_missing_the_bounds_fails_in_both(self):
        box = HyperRectangle([0.0, 0.0], [1.0, 1.0])
        informed = InformedSet([5.0, 5.0], [6.0, 5.0], 1.2, 1.0)
        with pytest.raises(RuntimeError) as one:
            sample_informed(informed, box, np.random.default_rng(0))
        with pytest.raises(RuntimeError) as batch:
            sample_batch(informed, box, np.random.default_rng(0), 50)
        assert str(batch.value) == str(one.value)


class TestLebesgueMeasure:
    def test_degenerate(self):
        assert lebesgue_measure(1.0, 1.0, 2) == 0.0

    def test_n1_reduces_to_interval(self):
        assert lebesgue_measure(0.7, 0.5, 1) == pytest.approx(0.7, abs=1e-15)

    def test_2d_value(self):
        # pi * 2 * sqrt(3) / 4, frozen from direct evaluation
        assert lebesgue_measure(2.0, 1.0, 2) == pytest.approx(
            2.7206990463513265, abs=1e-12
        )

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            vol = mc_two_focus_volume(2.0, 1.0, n, 200_000, rng)
            assert lebesgue_measure(2.0, 1.0, n) == pytest.approx(vol, rel=0.02)

    def test_monotone_in_cost(self):
        cs = np.linspace(1.0, 4.0, 50)
        vals = [lebesgue_measure(c, 1.0, 3) for c in cs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_errors_and_infinity(self):
        with pytest.raises(ValueError):
            lebesgue_measure(0.9, 1.0, 2)
        assert lebesgue_measure(math.inf, 1.0, 2) == math.inf


# one world of each benchmark family
BENCHMARK_FAMILIES = [
    WorldSpec("dividing_wall", 2, seed=1),
    WorldSpec("dividing_wall", 4, seed=1),
    WorldSpec("dividing_wall", 8, seed=1),
    WorldSpec("random_rectangles", 2, seed=1),
    WorldSpec("random_rectangles", 4, seed=1, obstacle_count=60, width_range=(0.25, 0.45)),
]


def covering_world(n, lo, hi):
    """Bounds [lo, hi]^n with boxes that touch or cover them on some axes."""
    w = hi - lo
    wall_lo, wall_hi = np.full(n, lo), np.full(n, hi)
    wall_lo[0], wall_hi[0] = lo + 0.45 * w, lo + 0.55 * w
    corner_hi = np.full(n, hi)
    corner_hi[-1] = lo + 0.3 * w
    boxes = (
        # spans the bounds on every axis but the first
        HyperRectangle(wall_lo, wall_hi),
        # touches the lower faces on every axis
        HyperRectangle(np.full(n, lo), np.full(n, lo + 0.2 * w)),
        # covers the bounds on every axis but the last, beyond them on some
        HyperRectangle(np.full(n, lo - 1.0), corner_hi),
        # inside, touching nothing
        HyperRectangle(np.full(n, lo + 0.6 * w), np.full(n, lo + 0.7 * w)),
    )
    return WorldModel(HyperRectangle(np.full(n, lo), np.full(n, hi)), boxes)


class TestValidity:
    def test_empty_world(self):
        world = unit_world()
        assert is_state_valid(world, np.array([0.3, 0.8]))

    def test_obstacle_centroid(self):
        world = unit_world(([0.4, 0.4], [0.6, 0.6]))
        assert not is_state_valid(world, np.array([0.5, 0.5]))

    def test_obstacle_boundary_is_invalid(self):
        world = unit_world(([0.4, 0.4], [0.6, 0.6]))
        assert not is_state_valid(world, np.array([0.4, 0.5]))

    def test_out_of_bounds(self):
        world = unit_world()
        assert not is_state_valid(world, np.array([1.1, 0.5]))

    @staticmethod
    def boundary_points(boxes, rng, count):
        """Random points, points built from the boxes' corner coordinates
        (each also nudged one ulp either way), and points that mix such
        coordinates with random ones."""
        n = boxes[0].dimension
        edges = np.array([v for box in boxes for v in (*box.min_corner, *box.max_corner)])
        coords = np.concatenate([np.nextafter(edges, -2.0), edges, np.nextafter(edges, 2.0)])
        grid = coords[rng.integers(0, coords.size, (count, n))]
        free = rng.uniform(-0.1, 1.1, (count, n))
        mixed = np.where(rng.random((count, n)) < 0.5, grid, free)
        return np.vstack([grid, mixed, rng.uniform(-0.1, 1.1, (count, n))])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_equals_per_state(self, n):
        rng = np.random.default_rng(n)
        obstacles = [
            HyperRectangle(np.full(n, 0.4), np.full(n, 0.6)),
            # touches the bounds on every axis
            HyperRectangle(np.full(n, 0.0), np.full(n, 0.25)),
            HyperRectangle(np.full(n, 0.8), np.full(n, 1.0)),
        ]
        bounds = HyperRectangle(np.zeros(n), np.ones(n))
        for world in (WorldModel(bounds), WorldModel(bounds, tuple(obstacles))):
            pts = self.boundary_points([bounds, *obstacles], rng, 400)
            got = states_valid(world, pts)
            assert got.dtype == bool and got.shape == (len(pts),)
            assert got.tolist() == [is_state_valid(world, p) for p in pts]

    def test_batched_on_no_rows(self):
        world = unit_world(([0.4, 0.4], [0.6, 0.6]))
        assert states_valid(world, np.empty((0, 2))).shape == (0,)

    def assert_equals_oracle(self, world, rng, count=400):
        lo, hi = world.bounds.min_corner.tolist(), world.bounds.max_corner.tolist()
        boxes = [(o.min_corner.tolist(), o.max_corner.tolist()) for o in world.obstacles]
        pts = self.boundary_points([world.bounds, *world.obstacles], rng, count)
        got = [is_state_valid(world, p) for p in pts]
        want = [state_valid(boxes, lo, hi, p.tolist()) for p in pts]
        mismatches = [p for p, g, w in zip(pts, got, want) if g != w]
        assert not mismatches, mismatches[:3]
        return got

    @pytest.mark.parametrize("spec", BENCHMARK_FAMILIES, ids=lambda spec: spec.world_id)
    def test_benchmark_families_equal_oracle(self, spec):
        got = self.assert_equals_oracle(make_world(spec), np.random.default_rng(41))
        assert 0 < sum(got) < len(got)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.1, 0.9), (-1.3, 2.7)])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_boxes_covering_some_axes_equal_oracle(self, n, lo, hi):
        self.assert_equals_oracle(covering_world(n, lo, hi), np.random.default_rng(n))

    def test_box_covering_every_axis_equals_oracle(self):
        for bounds_lo, bounds_hi in ((0.0, 1.0), (0.1, 0.9)):
            bounds = HyperRectangle([bounds_lo] * 3, [bounds_hi] * 3)
            for cover in (bounds, HyperRectangle([-1.0] * 3, [2.0] * 3)):
                got = self.assert_equals_oracle(
                    WorldModel(bounds, (cover,)), np.random.default_rng(5)
                )
                assert not any(got)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_empty_world_equals_oracle(self, n):
        world = WorldModel(HyperRectangle(np.zeros(n), np.ones(n)))
        got = self.assert_equals_oracle(world, np.random.default_rng(n))
        assert 0 < sum(got) < len(got)

    def test_nan_is_invalid(self):
        for world in (unit_world(), unit_world(([0.4, 0.4], [0.6, 0.6]))):
            assert not is_state_valid(world, np.array([0.5, math.nan]))
            assert not is_state_valid(world, np.array([math.nan, math.nan]))

    def test_out_of_bounds_beside_a_box_is_invalid(self):
        # outside the bounds on a covered axis of a box that holds no point
        world = unit_world(([0.45, 0.0], [0.55, 1.0]))
        assert not is_state_valid(world, np.array([0.2, 1.0000000000000002]))
        assert not is_state_valid(world, np.array([-1e-300, 0.5]))

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
    def test_dimension_mismatch_raises(self, x):
        for world in (unit_world(), unit_world(([0.4, 0.4], [0.6, 0.6]))):
            with pytest.raises(ValueError, match="dimensionality"):
                is_state_valid(world, np.array(x))


class TestMotionValid:
    def test_trivial_point(self):
        world = unit_world()
        a = np.array([0.2, 0.2])
        assert is_motion_valid(world, a, a, 0.01)

    def test_crossing_slab(self):
        world = unit_world(([0.45, 0.0], [0.55, 1.0]))
        assert not is_motion_valid(
            world, np.array([0.1, 0.5]), np.array([0.9, 0.5]), 0.01
        )

    def test_fine_resolution_oracle(self):
        obstacles = [
            ((0.45, 0.0), (0.55, 0.45)),
            ((0.45, 0.55), (0.55, 1.0)),
            ((0.2, 0.2), (0.3, 0.35)),
        ]
        world = unit_world(*obstacles)
        res = default_motion_resolution(world)
        rng = np.random.default_rng(11)
        fixtures = [
            (np.array([0.1, 0.5]), np.array([0.9, 0.5])),
            (np.array([0.1, 0.44]), np.array([0.9, 0.56])),
            (np.array([0.44, 0.5]), np.array([0.56, 0.5])),
        ] + [
            (rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)) for _ in range(40)
        ]
        for a, b in fixtures:
            got = is_motion_valid(world, a, b, res)
            want = motion_valid_fine(
                obstacles, (0.0, 0.0), (1.0, 1.0), a, b, res / 10.0
            )
            assert got == want, (a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        world = unit_world(([0.4, 0.4], [0.6, 0.6]))
        a = rng.uniform(0, 1, 2)
        b = rng.uniform(0, 1, 2)
        assert is_motion_valid(world, a, b, 0.01) == is_motion_valid(
            world, b, a, 0.01
        )


def _oracle_edges(world, rng, count, max_length):
    """Random short edges (endpoints may leave the bounds), axis-parallel
    edges, and edges lying in an obstacle face."""
    n = world.dimension
    edges = []
    for _ in range(count):
        a = rng.uniform(0.0, 1.0, n)
        step = rng.standard_normal(n)
        edges.append((a, a + step / np.linalg.norm(step) * rng.uniform(0.0, max_length)))
    for obs in world.obstacles:
        lo, hi = obs.min_corner, obs.max_corner
        for _ in range(20):
            # every axis but one keeps its coordinate: the dv[k] == 0 branch
            a = rng.uniform(np.maximum(lo - 0.1, 0.0), np.minimum(hi + 0.1, 1.0))
            b = a.copy()
            b[int(rng.integers(n))] = rng.uniform(0.0, 1.0)
            edges.append((a, b))
            # both endpoints on one face plane of the closed box
            k = int(rng.integers(n))
            face = (lo if rng.random() < 0.5 else hi)[k]
            a = rng.uniform(np.maximum(lo - 0.1, 0.0), np.minimum(hi + 0.1, 1.0))
            b = rng.uniform(np.maximum(lo - 0.1, 0.0), np.minimum(hi + 0.1, 1.0))
            a[k] = b[k] = face
            edges.append((a, b))
    return edges


class TestMotionOracleEqualResolution:
    @pytest.mark.parametrize(
        "spec, max_length",
        [
            (WorldSpec("random_rectangles", 4, seed=0, obstacle_count=60,
                       width_range=(0.25, 0.45)), 0.5),
            (WorldSpec("dividing_wall", 8, seed=0), 1.25),
        ],
        ids=["rr-d4-60-boxes", "dw-d8"],
    )
    def test_equals_fine_oracle_at_same_resolution(self, spec, max_length):
        world = make_world(spec)
        res = default_motion_resolution(world)
        boxes = [(o.min_corner.tolist(), o.max_corner.tolist()) for o in world.obstacles]
        lo, hi = world.bounds.min_corner.tolist(), world.bounds.max_corner.tolist()
        edges = _oracle_edges(world, np.random.default_rng(23), 2000, max_length)
        got = [is_motion_valid(world, a, b, res) for a, b in edges]
        want = [motion_valid_fine(boxes, lo, hi, a, b, res) for a, b in edges]
        mismatches = [e for e, g, w in zip(edges, got, want) if g != w]
        assert not mismatches, mismatches[:3]
        assert 0 < sum(got) < len(got)


def reference_is_motion_valid(world, a, b, resolution):
    """The segment check with the slab clip and the point test on every axis
    of every box: the reference that is_motion_valid must equal exactly."""
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    av = np.asarray(a, dtype=float).tolist()
    bv = np.asarray(b, dtype=float).tolist()
    n = len(av)
    blo, bhi = world.bounds.min_corner.tolist(), world.bounds.max_corner.tolist()
    boxes = [(o.min_corner.tolist(), o.max_corner.tolist()) for o in world.obstacles]
    # the bounds box is convex, so endpoint containment covers the segment
    for k in range(n):
        if not (blo[k] <= av[k] <= bhi[k] and blo[k] <= bv[k] <= bhi[k]):
            return False
    if not boxes:
        return True
    dv = [bv[k] - av[k] for k in range(n)]
    length = math.sqrt(sum(d * d for d in dv))
    steps = max(1, int(math.ceil(length / resolution)))
    for lo, hi in boxes:
        # slab-clip the segment's parameter interval against the box, then
        # test the discretized indices that can fall inside it
        t0, t1 = 0.0, 1.0
        overlap = True
        for k in range(n):
            d = dv[k]
            if d == 0.0:
                if av[k] < lo[k] or av[k] > hi[k]:
                    overlap = False
                    break
            else:
                ta = (lo[k] - av[k]) / d
                tb = (hi[k] - av[k]) / d
                if ta > tb:
                    ta, tb = tb, ta
                if ta > t0:
                    t0 = ta
                if tb < t1:
                    t1 = tb
                if t0 > t1:
                    overlap = False
                    break
        if not overlap:
            continue
        i_lo = max(0, int(math.floor(t0 * steps)) - 1)
        i_hi = min(steps, int(math.ceil(t1 * steps)) + 1)
        for i in range(i_lo, i_hi + 1):
            t = i / steps
            inside = True
            for k in range(n):
                p = av[k] + t * dv[k]
                if p < lo[k] or p > hi[k]:
                    inside = False
                    break
            if inside:
                return False
    return True


def _face_edges(world, rng, count):
    """Edges whose coordinates come from the bounds' and the boxes' faces
    (each also nudged one ulp either way) mixed with random ones: endpoints
    on the faces of the bounds, axes with dv[k] == 0, and edges along faces."""
    n = world.dimension
    lo, hi = world.bounds.min_corner, world.bounds.max_corner
    faces = np.concatenate(
        [lo, hi, *(c for o in world.obstacles for c in (o.min_corner, o.max_corner))]
    )
    faces = np.concatenate([np.nextafter(faces, -np.inf), faces, np.nextafter(faces, np.inf)])
    edges = []
    for _ in range(count):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        pick = rng.random((2, n)) < 0.5
        a[pick[0]] = faces[rng.integers(faces.size, size=int(pick[0].sum()))]
        b[pick[1]] = faces[rng.integers(faces.size, size=int(pick[1].sum()))]
        same = rng.random(n) < 0.25
        b[same] = a[same]
        edges.append((a, b))
    return edges


def _assert_matches_reference(world, edges, resolution):
    # the reference can miss an end point b on a face (see
    # test_end_point_rounded_off_a_covered_face); is_motion_valid tests b
    lo, hi = world.bounds.min_corner.tolist(), world.bounds.max_corner.tolist()
    boxes = [(o.min_corner.tolist(), o.max_corner.tolist()) for o in world.obstacles]
    got = [is_motion_valid(world, a, b, resolution) for a, b in edges]
    want = [
        reference_is_motion_valid(world, a, b, resolution)
        and state_valid(boxes, lo, hi, b.tolist())
        for a, b in edges
    ]
    mismatches = [e for e, g, w in zip(edges, got, want) if g != w]
    assert not mismatches, mismatches[:3]
    return got


class TestMotionCheckEqualsReference:
    """is_motion_valid gives exactly the reference loop's answer."""

    @pytest.mark.parametrize("spec", BENCHMARK_FAMILIES, ids=lambda spec: spec.world_id)
    def test_benchmark_families(self, spec):
        world = make_world(spec)
        rng = np.random.default_rng(31)
        res = default_motion_resolution(world)
        edges = _oracle_edges(world, rng, 600, 1.25) + _face_edges(world, rng, 600)
        got = _assert_matches_reference(world, edges, res)
        assert 0 < sum(got) < len(got)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.1, 0.9), (-1.3, 2.7)])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_boxes_touching_or_covering_the_bounds(self, n, lo, hi):
        # On bounds such as [0.1, 0.9] the rounded end point a + (b - a) can
        # leave the bounds by one ulp while b is on a face.
        rng = np.random.default_rng(n)
        w = hi - lo
        world = covering_world(n, lo, hi)
        edges = _face_edges(world, rng, 1500)
        for resolution in (1e-3 * w, 0.37 * w, 10.0 * w):  # the last gives steps == 1
            _assert_matches_reference(world, edges, resolution)

    def test_box_covering_the_whole_bounds(self):
        for bounds_lo, bounds_hi in ((0.0, 1.0), (0.1, 0.9)):
            bounds = HyperRectangle([bounds_lo] * 3, [bounds_hi] * 3)
            for cover in (bounds, HyperRectangle([-1.0] * 3, [2.0] * 3)):
                world = WorldModel(bounds, (cover,))
                edges = _face_edges(world, np.random.default_rng(5), 200)
                assert not any(_assert_matches_reference(world, edges, 0.01))

    def test_zero_length_and_single_step(self):
        world = make_world(WorldSpec("dividing_wall", 4, seed=1))
        rng = np.random.default_rng(8)
        points = [e[0] for e in _face_edges(world, rng, 300)]
        _assert_matches_reference(world, [(p, p.copy()) for p in points], 0.01)
        edges = _face_edges(world, rng, 300)
        _assert_matches_reference(world, edges, 100.0)

    def test_end_point_rounded_off_a_covered_face(self):
        # a + (b - a) rounds to 0.9000000000000001 on the axis the wall
        # covers, so the reference's t = 1 point misses the wall there
        world = WorldModel(
            HyperRectangle([0.1, 0.1], [0.9, 0.9]),
            (HyperRectangle([0.45, 0.1], [0.55, 0.9]),),
        )
        a = np.array([0.3618784962784357, 0.16934505849163423])
        b = np.array([0.45, 0.9])
        assert (a + (b - a))[1] > 0.9
        assert not is_state_valid(world, b)
        assert reference_is_motion_valid(world, a, b, 0.01)
        assert not is_motion_valid(world, a, b, 0.01)

    def test_end_point_rounded_off_a_cut_face_in_one_step(self):
        # 1.0 + (0.3 - 1.0) is 0.30000000000000004, above the box's face
        world = WorldModel(HyperRectangle([0.0], [1.0]), (HyperRectangle([-1.0], [0.3]),))
        a, b = np.array([1.0]), np.array([0.3])
        assert (a + (b - a))[0] > 0.3
        assert reference_is_motion_valid(world, a, b, 10.0)
        assert not is_motion_valid(world, a, b, 10.0)

    def test_point_inside_a_box(self):
        world = unit_world(([0.45, 0.0], [0.55, 1.0]))
        p = np.array([0.5, 0.5])
        assert not is_motion_valid(world, p, p, 0.01)
        assert is_motion_valid(world, np.array([0.2, 0.0]), np.array([0.2, 1.0]), 0.01)


class TestMotionCheckDimensions:
    @pytest.mark.parametrize(
        "a, b",
        [
            ([0.1, 0.2], [0.3, 0.4, 0.5]),
            ([0.1, 0.2, 0.5], [0.3, 0.4]),
            ([0.1, 0.2, 0.5], [0.3, 0.4, 0.5]),
            ([0.1], [0.3]),
        ],
    )
    def test_mismatched_dimensions_raise(self, a, b):
        for world in (unit_world(), unit_world(([0.4, 0.4], [0.6, 0.6]))):
            with pytest.raises(ValueError, match="dimensionality"):
                is_motion_valid(world, np.array(a), np.array(b), 0.01)


class TestHyperRectangleContains:
    box = HyperRectangle([0.0, -1.0, 2.0], [1.0, 1.0, 2.0])

    def test_boundary_points_are_inside(self):
        for x in ([0.0, -1.0, 2.0], [1.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.5, 0.0, 2.0]):
            assert self.box.contains(np.array(x))

    def test_points_outside(self):
        for x in ([1.0000000000000002, 0.0, 2.0], [0.5, -1.5, 2.0], [0.5, 0.0, 2.1]):
            assert not self.box.contains(np.array(x))

    def test_nan_is_outside(self):
        assert not self.box.contains(np.array([0.5, math.nan, 2.0]))
        assert not self.box.contains(np.array([math.nan] * 3))

    def test_lists_and_tuples_accepted(self):
        assert self.box.contains([0.5, 0, 2])
        assert not self.box.contains((1.5, 0.0, 2.0))

    @pytest.mark.parametrize("x", [[0.5, 0.0], [0.5, 0.0, 2.0, 0.0], [0.5], [[0.5, 0.0, 2.0]]])
    def test_wrong_length_raises(self, x):
        with pytest.raises(ValueError):
            self.box.contains(np.array(x))


class TestHyperRectangleWidths:
    def test_built_once_and_read_only(self):
        box = HyperRectangle([0.1, -1.0, 2.0], [0.9, 1.0, 2.0])
        assert box.widths is box.widths
        assert box.widths.tolist() == (box.max_corner - box.min_corner).tolist()
        with pytest.raises(ValueError):
            box.widths[0] = 5.0


class TestOrthonormalBasis:
    def test_axis_aligned(self):
        assert np.array_equal(orthonormal_basis(np.array([1.0, 0.0, 0.0])), np.eye(3))

    def test_first_column(self):
        q = orthonormal_basis(np.array([0.0, 3.0]))
        assert np.allclose(q[:, 0], [0.0, 1.0])
        assert np.max(np.abs(q.T @ q - np.eye(2))) < 1e-9

    def test_determinant_in_r8(self):
        rng = np.random.default_rng(5)
        for n in (8, 12, 16):
            for _ in range(20):
                q = orthonormal_basis(rng.standard_normal(n))
                assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-9

    def test_zero_vector(self):
        assert np.array_equal(orthonormal_basis(np.zeros(4)), np.eye(4))


class TestWorldSerialization:
    def test_roundtrip(self, tmp_path):
        world = unit_world(([0.4, 0.4], [0.6, 0.6]), ([0.1, 0.1], [0.2, 0.9]))
        path = tmp_path / "w.json"
        save_world(world, path)
        loaded = load_world(path)
        assert world_to_dict(loaded) == world_to_dict(world)

    def test_dimension_mismatch_rejected(self):
        data = world_to_dict(unit_world())
        data["dimension"] = 3
        with pytest.raises(ValueError):
            world_from_dict(data)


class TestProblemInstance:
    def test_cmin(self):
        world = unit_world()
        prob = ProblemInstance(world, [0.05, 0.5], ([0.95, 0.5],))
        assert prob.c_min == pytest.approx(0.9, abs=1e-15)

    def test_invalid_start_rejected(self):
        world = unit_world(([0.0, 0.4], [0.1, 0.6]))
        with pytest.raises(ValueError):
            ProblemInstance(world, [0.05, 0.5], ([0.95, 0.5],))

    def test_start_equals_goal_rejected(self):
        world = unit_world()
        with pytest.raises(ValueError):
            ProblemInstance(world, [0.5, 0.5], ([0.5, 0.5],))

    def test_start_dimension_mismatch_named(self):
        message = "start has 3 coordinates but the world has dimension 2"
        with pytest.raises(ValueError, match=message):
            ProblemInstance(unit_world(), [0.05, 0.5, 0.5], ([0.95, 0.5],))

    def test_goal_dimension_mismatch_named(self):
        message = "goal has 1 coordinates but the world has dimension 2"
        with pytest.raises(ValueError, match=message):
            ProblemInstance(unit_world(), [0.05, 0.5], ([0.95, 0.5], [0.9]))


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
