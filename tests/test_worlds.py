import numpy as np
import pytest

from aptstar.geometry import (
    is_motion_valid,
    is_state_valid,
    world_from_dict,
    world_to_dict,
)
from aptstar.worlds import (
    WorldSpec,
    canonical_start_goal,
    free_cells,
    is_feasible,
    make_problem,
    make_world,
)


class TestWorldSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            WorldSpec("maze", 2)

    def test_obstacle_family_needs_2d(self):
        with pytest.raises(ValueError):
            WorldSpec("dividing_wall", 1)

    def test_world_id(self):
        assert WorldSpec("dividing_wall", 4, seed=7).world_id == "dividing_wall-d4-s7"

    def test_width_range_validated(self):
        with pytest.raises(ValueError):
            WorldSpec("random_rectangles", 2, width_range=(0.0, 0.4))


class TestCanonicalEndpoints:
    def test_values(self):
        start, goal = canonical_start_goal(3)
        assert np.array_equal(start, [0.05, 0.5, 0.5])
        assert np.array_equal(goal, [0.95, 0.5, 0.5])


class TestDividingWall:
    def test_two_gaps_three_segments(self):
        spec = WorldSpec("dividing_wall", 2, seed=0, gap_count=2, gap_width=0.02)
        world = make_world(spec)
        assert len(world.obstacles) == 3

    def test_straight_segment_blocked(self):
        spec = WorldSpec("dividing_wall", 2, seed=0, gap_count=2, gap_width=0.02)
        world = make_world(spec)
        start, goal = canonical_start_goal(2)
        assert not is_motion_valid(world, start, goal, 0.001)

    def test_determinism(self):
        spec = WorldSpec("dividing_wall", 3, seed=4)
        assert world_to_dict(make_world(spec)) == world_to_dict(make_world(spec))

    def test_degenerate_gaps_rejected(self):
        with pytest.raises(ValueError):
            make_world(WorldSpec("dividing_wall", 2, gap_count=2, gap_width=0.6))

    def test_extrusion_in_higher_dims(self):
        world = make_world(WorldSpec("dividing_wall", 4, seed=1))
        for obs in world.obstacles:
            assert np.array_equal(obs.min_corner[2:], [0.0, 0.0])
            assert np.array_equal(obs.max_corner[2:], [1.0, 1.0])

    def test_endpoints_valid_and_feasible(self):
        for seed in range(5):
            world = make_world(WorldSpec("dividing_wall", 2, seed=seed))
            start, goal = canonical_start_goal(2)
            assert is_state_valid(world, start)
            assert is_state_valid(world, goal)
            assert is_feasible(world)


class TestRandomRectangles:
    def test_zero_count_is_empty(self):
        world = make_world(WorldSpec("random_rectangles", 2, obstacle_count=0))
        assert world.obstacles == ()

    def test_determinism_and_endpoint_validity(self):
        spec = WorldSpec("random_rectangles", 2, seed=3)
        w1 = make_world(spec)
        w2 = make_world(spec)
        assert world_to_dict(w1) == world_to_dict(w2)
        start, goal = canonical_start_goal(2)
        assert is_state_valid(w1, start)
        assert is_state_valid(w1, goal)

    def test_obstacle_count_and_widths(self):
        spec = WorldSpec(
            "random_rectangles", 2, seed=5, obstacle_count=8, width_range=(0.1, 0.4)
        )
        world = make_world(spec)
        assert len(world.obstacles) == 8
        for obs in world.obstacles:
            # clipping against the unit cube can only shrink widths
            assert np.all(obs.widths <= 0.4 + 1e-12)

    def test_emitted_worlds_feasible(self):
        for seed in range(5):
            world = make_world(WorldSpec("random_rectangles", 2, seed=seed))
            assert is_feasible(world)


class TestSerialization:
    def test_roundtrip_all_families(self):
        for family, dim in (("empty", 2), ("dividing_wall", 3), ("random_rectangles", 2)):
            world = make_world(WorldSpec(family, dim, seed=1))
            data = world_to_dict(world)
            assert world_to_dict(world_from_dict(data)) == data


class TestMakeProblem:
    def test_problem_assembly(self):
        prob = make_problem(WorldSpec("dividing_wall", 2, seed=0))
        assert prob.c_min == pytest.approx(0.9, abs=1e-12)
        assert len(prob.goals) == 1


class TestFeasibility:
    def test_empty_feasible(self):
        assert is_feasible(make_world(WorldSpec("empty", 2)))

    def test_full_wall_infeasible(self):
        from aptstar.geometry import HyperRectangle, WorldModel

        world = WorldModel(
            HyperRectangle([0.0, 0.0], [1.0, 1.0]),
            (HyperRectangle([0.45, 0.0], [0.55, 1.0]),),
        )
        assert not is_feasible(world)


class TestFreeCells:
    @pytest.mark.parametrize(
        "spec",
        [
            WorldSpec("dividing_wall", 2, seed=0),
            WorldSpec("dividing_wall", 4, seed=1),
            WorldSpec("dividing_wall", 8, seed=2),
            WorldSpec("random_rectangles", 2, seed=0),
            WorldSpec(
                "random_rectangles", 4, seed=1, obstacle_count=60, width_range=(0.25, 0.45)
            ),
        ],
        ids=lambda spec: spec.world_id,
    )
    def test_equals_per_cell_predicate(self, spec):
        world = make_world(spec)
        grid = 64
        want = np.zeros((grid, grid), dtype=bool)
        probe = np.full(world.dimension, 0.5)
        for i in range(grid):
            probe[0] = (i + 0.5) / grid
            for j in range(grid):
                probe[1] = (j + 0.5) / grid
                want[i, j] = is_state_valid(world, probe)
        got = free_cells(world, grid)
        assert 0 < want.sum() < grid * grid
        assert np.array_equal(got, want)

    def test_one_dimension(self):
        world = make_world(WorldSpec("empty", 1))
        got = free_cells(world, 16)
        assert got.shape == (16,) and got.all()
