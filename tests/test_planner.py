import math
import time

import numpy as np
import pytest

from aptstar.adaptive import BatchConfig, ChargeConfig
from aptstar.cli import main
from aptstar.geometry import HyperRectangle, ProblemInstance, WorldModel, distance
from aptstar.neighbors import NeighborConfig
from aptstar.planner import (
    PLANNERS,
    PlannerConfig,
    SearchTree,
    extract_path,
    plan_apt,
    plan_batch_informed_trees,
    plan_informed_rrt_star,
    plan_rrt_connect,
)
from aptstar.worlds import WorldSpec
from aptstar.worlds import make_problem as make_spec_problem

from oracles import visibility_shortest_path


def make_world(*obstacles):
    return WorldModel(
        HyperRectangle([0.0, 0.0], [1.0, 1.0]),
        tuple(HyperRectangle(lo, hi) for lo, hi in obstacles),
    )


def make_problem(world):
    return ProblemInstance(world, [0.05, 0.5], ([0.95, 0.5],))


EMPTY = make_world()
# one 0.1-wide gap centered at (0.5, 0.5)
DW_CENTERED = make_world(
    ([0.45, 0.0], [0.55, 0.45]),
    ([0.45, 0.55], [0.55, 1.0]),
)
DW_CENTERED_OBS = [((0.45, 0.0), (0.55, 0.45)), ((0.45, 0.55), (0.55, 1.0))]
# one 0.1-wide gap off to the side, forcing a detour
DW_OFFSET = make_world(
    ([0.45, 0.0], [0.55, 0.2]),
    ([0.45, 0.3], [0.55, 1.0]),
)
DW_OFFSET_OBS = [((0.45, 0.0), (0.55, 0.2)), ((0.45, 0.3), (0.55, 1.0))]
WALLED = make_world(([0.45, 0.0], [0.55, 1.0]))


class TestPlannerConfig:
    def test_requires_a_budget(self):
        with pytest.raises(ValueError):
            PlannerConfig()

    def test_goal_bias_range(self):
        with pytest.raises(ValueError):
            PlannerConfig(max_iterations=1, goal_bias=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_time": -1.0},
            {"max_time": math.nan},
            {"max_iterations": -3},
            {"max_iterations": 2.5},
            {"max_iterations": 3.0},
            {"max_iterations": True},
            {"max_iterations": 5, "rewire_factor": 0.0},
            {"max_iterations": 5, "rewire_factor": -1.2},
            {"max_iterations": 5, "max_edge_length": -0.5},
            {"max_iterations": 5, "max_edge_length": 0.0},
            {"max_iterations": 5, "motion_resolution": 0.0},
            {"max_iterations": 5, "motion_resolution": -0.01},
            {"max_iterations": 5, "eta": 0.5},
            {"max_iterations": 5, "eta": math.nan},
            {"max_iterations": 5, "rewire_factor": 0.5},
            {"max_iterations": 5, "rewire_factor": 5e-324},
            {"max_iterations": 5, "motion_resolution": math.inf},
            {"max_iterations": 5, "motion_resolution": math.nan},
            {"max_iterations": 5, "rng_seed": -1},
            {"max_iterations": 5, "rng_seed": 1.5},
            {"max_iterations": 5, "rng_seed": 2.0},
            {"max_iterations": 5, "rng_seed": None},
            {"max_iterations": 5, "rng_seed": True},
            {"max_iterations": 5, "batch": None},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)

    def test_batch_defaults_like_the_other_sub_configs(self):
        config = PlannerConfig(max_iterations=1)
        assert config.batch == BatchConfig()
        assert config.neighbor == NeighborConfig()
        assert config.charge == ChargeConfig()

    def test_zero_budgets_accepted(self):
        assert PlannerConfig(max_time=0.0).max_time == 0.0
        assert PlannerConfig(max_iterations=0).max_iterations == 0

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-iters", "-3"), ("--max-time", "-1")],
    )
    def test_cli_exits_2_on_negative_budget(self, tmp_path, capsys, flag, value):
        world = tmp_path / "w.json"
        main(["worldgen", "--family", "empty", "--dim", "2", "--out", str(world)])
        code = main(["plan", "--world", str(world), "--planner", "apt", flag, value])
        assert code == 2
        assert "must be nonnegative" in capsys.readouterr().err

    def test_cli_exits_2_on_fractional_iteration_budget(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        main(["worldgen", "--family", "dw", "--dim", "2", "--out", str(world)])
        config = tmp_path / "cfg.json"
        config.write_text('{"max_iterations": 2.5}')
        code = main(["plan", "--world", str(world), "--planner", "informed_rrt_star",
                     "--config", str(config)])
        assert code == 2
        assert "max_iterations must be an integer" in capsys.readouterr().err

    def test_cli_exits_2_on_zero_rewire_factor(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        main(["worldgen", "--family", "empty", "--dim", "2", "--out", str(world)])
        config = tmp_path / "cfg.json"
        config.write_text('{"rewire_factor": 0}')
        code = main(["plan", "--world", str(world), "--planner", "apt",
                     "--max-iters", "2", "--config", str(config)])
        assert code == 2
        assert "rewire_factor must be at least 1" in capsys.readouterr().err

    def test_cli_exits_2_on_negative_edge_length(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        main(["worldgen", "--family", "dw", "--dim", "2", "--out", str(world)])
        config = tmp_path / "cfg.json"
        config.write_text('{"max_edge_length": -0.5}')
        code = main(["plan", "--world", str(world), "--planner", "rrt_connect",
                     "--max-iters", "300", "--config", str(config)])
        assert code == 2
        assert "max_edge_length must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("n, pair", [(2, 5e-324), (16, 1e-20), (8, 1e-40), (4, 1e-80)])
    def test_pair_distance_whose_force_weight_overflows_rejected(self, n, pair):
        # the query's own vertex is a sample at distance 0, clamped to pair:
        # k_e q_max^2 / pair^n overflowed, and inf times a zero offset made
        # the force NaN inside the first batch
        problem = make_spec_problem(WorldSpec("dividing_wall", n, seed=0))
        config = PlannerConfig(max_iterations=2, neighbor=NeighborConfig(min_pair_distance=pair))
        with pytest.raises(ValueError, match="min_pair_distance"):
            plan_apt(problem, config)

    def test_bit_rejects_a_pair_distance_whose_power_underflows(self):
        # bit's k_e is zero, so its weight 0 / pair^(n-1) / pair is finite
        # until pair^(n-1) underflows to 0
        problem = make_spec_problem(WorldSpec("dividing_wall", 4, seed=0))
        config = PlannerConfig(max_iterations=2, neighbor=NeighborConfig(min_pair_distance=1e-80))
        assert plan_batch_informed_trees(problem, config).success
        config = PlannerConfig(max_iterations=2, neighbor=NeighborConfig(min_pair_distance=1e-300))
        with pytest.raises(ValueError, match="min_pair_distance"):
            plan_batch_informed_trees(problem, config)

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    @pytest.mark.parametrize("resolution", [5e-324, 1e-300, 1e-17])
    def test_resolution_below_the_coordinates_spacing_rejected(self, planner, resolution):
        # consecutive check points could not differ: 5e-324 overflowed the
        # segment check's step count, and 1e-300 ran for longer than 20 s
        problem = make_spec_problem(WorldSpec("dividing_wall", 2, seed=0))
        config = PlannerConfig(max_iterations=2, motion_resolution=resolution)
        with pytest.raises(ValueError, match="motion_resolution"):
            PLANNERS[planner](problem, config)


class TestSearchTree:
    def test_extract_root_only(self):
        tree = SearchTree(np.array([0.5, 0.5]))
        path = extract_path(tree, 0)
        assert len(path) == 1
        assert tree.g[0] == 0.0

    def test_extract_two_node_chain(self):
        tree = SearchTree(np.array([0.0, 0.0]))
        v = tree.add(np.array([0.3, 0.4]), 0, 0.5)
        path = extract_path(tree, v)
        assert len(path) == 2
        assert np.array_equal(path[0], [0.0, 0.0])
        assert np.array_equal(path[1], [0.3, 0.4])

    def test_random_tree_cost_consistency(self):
        rng = np.random.default_rng(17)
        tree = SearchTree(rng.uniform(0, 1, 3))
        for _ in range(60):
            parent = int(rng.integers(len(tree)))
            state = rng.uniform(0, 1, 3)
            edge = float(np.linalg.norm(state - tree.states[parent]))
            tree.add(state, parent, edge)
        self.assert_rows_match(tree, rng)
        for v in range(len(tree)):
            path = extract_path(tree, v)
            total = sum(
                float(np.linalg.norm(b - a)) for a, b in zip(path, path[1:])
            )
            assert abs(total - tree.g[v]) < 1e-9
        # vertex 60 was added after the row storage grew from 16 to 32 to 64
        chain = [60]
        while tree.parent[chain[-1]] != -1:
            chain.append(tree.parent[chain[-1]])
        assert np.array_equal(np.array(tree.path_to(60)), tree.positions[chain[::-1]])
        leaf = next(v for v in range(1, len(tree)) if not tree.children[v])
        new_parent = next(
            v for v in range(len(tree)) if v != leaf and v != tree.parent[leaf]
        )
        tree.reparent(
            leaf, new_parent,
            float(np.linalg.norm(tree.states[leaf] - tree.states[new_parent])),
        )
        self.assert_rows_match(tree, rng)

    @staticmethod
    def assert_rows_match(tree, rng):
        assert np.array_equal(tree.positions, np.array(tree.states))
        x = rng.uniform(0, 1, 3)
        want = np.linalg.norm(np.array(tree.states) - x, axis=1)
        assert np.max(np.abs(tree.distances(x) - want)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 17))
    def test_row_distances_equal_distance_bit_for_bit(self, n):
        # the RRT planners steer with a row of distances() in place of distance()
        rng = np.random.default_rng(n)
        tree = SearchTree(rng.uniform(0, 1, n))
        for _ in range(40):
            tree.add(rng.uniform(-3, 3, n) * rng.choice([1e-3, 1.0, 1e3]), 0, 1.0)
        for _ in range(5):
            x = rng.uniform(0, 1, n)
            assert tree.distances(x).tolist() == [distance(s, x) for s in tree.states]

    def test_disconnected_goal_rejected(self):
        tree = SearchTree(np.zeros(2))
        with pytest.raises(ValueError):
            extract_path(tree, 5)

    def test_reparent_propagates(self):
        tree = SearchTree(np.zeros(1))
        a = tree.add(np.array([1.0]), 0, 1.0)
        b = tree.add(np.array([2.0]), a, 1.0)
        c = tree.add(np.array([0.5]), 0, 0.5)
        tree.reparent(a, c, 0.5)
        assert tree.g[a] == 1.0
        assert tree.g[b] == 2.0
        assert not tree.is_ancestor(b, a)
        assert tree.is_ancestor(c, b)


class TestPlanApt:
    def test_empty_world(self):
        run = plan_apt(make_problem(EMPTY), PlannerConfig(max_iterations=1, rng_seed=0))
        assert run.success
        assert run.c_final == pytest.approx(0.9, abs=1e-6)
        assert run.counters["batches"] <= 1

    def test_infeasible_world(self):
        run = plan_apt(make_problem(WALLED), PlannerConfig(max_iterations=3, rng_seed=0))
        assert not run.success
        assert run.events == []
        assert run.path is None

    def test_dw_centered_matches_visibility_oracle(self):
        oracle = visibility_shortest_path(DW_CENTERED_OBS, (0.05, 0.5), (0.95, 0.5))
        run = plan_apt(
            make_problem(DW_CENTERED), PlannerConfig(max_iterations=10, rng_seed=0)
        )
        assert run.success
        assert run.c_final <= oracle * 1.01
        assert run.c_final >= oracle - 1e-9

    def test_dw_offset_matches_visibility_oracle(self):
        oracle = visibility_shortest_path(DW_OFFSET_OBS, (0.05, 0.5), (0.95, 0.5))
        assert math.isfinite(oracle) and oracle > 0.9
        run = plan_apt(
            make_problem(DW_OFFSET), PlannerConfig(max_iterations=10, rng_seed=1)
        )
        assert run.success
        assert run.c_final <= oracle * 1.01
        assert run.c_final >= oracle - 1e-9

    def test_anytime_monotonicity_and_lower_bound(self):
        for seed in range(5):
            run = plan_apt(
                make_problem(DW_OFFSET), PlannerConfig(max_iterations=6, rng_seed=seed)
            )
            costs = [c for _, c in run.events]
            assert all(b < a for a, b in zip(costs, costs[1:]))
            assert all(c >= 0.9 - 1e-9 for c in costs)

    def test_determinism_iteration_budget(self):
        cfg = PlannerConfig(max_iterations=6, rng_seed=7)
        r1 = plan_apt(make_problem(DW_OFFSET), cfg)
        r2 = plan_apt(make_problem(DW_OFFSET), cfg)
        assert r1.events == r2.events
        assert r1.counters == r2.counters

    def test_path_consistent_with_cost(self):
        run = plan_apt(
            make_problem(DW_OFFSET), PlannerConfig(max_iterations=6, rng_seed=3)
        )
        assert run.success
        total = sum(
            float(np.linalg.norm(b - a)) for a, b in zip(run.path, run.path[1:])
        )
        assert total == pytest.approx(run.c_final, abs=1e-9)

    def test_empty_world_median_proxy(self):
        finals = []
        for seed in range(20):
            run = plan_apt(
                make_problem(EMPTY), PlannerConfig(max_iterations=2, rng_seed=seed)
            )
            finals.append(run.c_final)
        med = sorted(finals)[9]
        assert abs(med - 0.9) / 0.9 < 1e-3


class TestRrtConnect:
    def test_empty_world(self):
        run = plan_rrt_connect(
            make_problem(EMPTY), PlannerConfig(max_iterations=500, rng_seed=0)
        )
        assert run.success
        assert run.c_final >= 0.9 - 1e-9
        assert len(run.events) == 1

    def test_infeasible(self):
        run = plan_rrt_connect(
            make_problem(WALLED), PlannerConfig(max_iterations=200, rng_seed=0)
        )
        assert not run.success

    def test_determinism(self):
        cfg = PlannerConfig(max_iterations=500, rng_seed=5)
        prob = make_problem(DW_OFFSET)
        r1 = plan_rrt_connect(prob, cfg)
        r2 = plan_rrt_connect(prob, cfg)
        assert r1.events == r2.events
        assert r1.counters == r2.counters


class TestInformedRrtStar:
    def test_empty_world(self):
        run = plan_informed_rrt_star(
            make_problem(EMPTY), PlannerConfig(max_iterations=2000, rng_seed=0)
        )
        assert run.success
        assert run.c_final >= 0.9 - 1e-9

    def test_infeasible(self):
        run = plan_informed_rrt_star(
            make_problem(WALLED), PlannerConfig(max_iterations=300, rng_seed=0)
        )
        assert not run.success

    def test_determinism(self):
        cfg = PlannerConfig(max_iterations=800, rng_seed=5)
        prob = make_problem(DW_OFFSET)
        r1 = plan_informed_rrt_star(prob, cfg)
        r2 = plan_informed_rrt_star(prob, cfg)
        assert r1.events == r2.events

    def test_anytime_monotone(self):
        run = plan_informed_rrt_star(
            make_problem(DW_OFFSET), PlannerConfig(max_iterations=1500, rng_seed=2)
        )
        costs = [c for _, c in run.events]
        assert all(b < a for a, b in zip(costs, costs[1:]))


class TestMultiGoalInformedSet:
    """Once the incumbent's goal is reached in a straight line, or by a path
    whose summed cost rounds below that line, its informed set has no
    interior; a nearer goal can still lower the cost, so planning goes on."""

    # the far goal is in plain sight of the start, the near one behind a wall
    WALL2 = ProblemInstance(
        make_world(([0.2, 0.2], [0.3, 0.8])), [0.1, 0.5], ([0.1, 0.9], [0.4, 0.5])
    )
    # in 1-D every path is straight
    LINE1 = ProblemInstance(
        WorldModel(HyperRectangle([0.0], [1.0]), (HyperRectangle([0.36], [0.74]),)),
        [0.0],
        ([0.09], [0.27]),
    )
    # an empty world: a two-edge path to the far goal sums below its distance
    OPEN4 = ProblemInstance(
        WorldModel(HyperRectangle([0.0] * 4, [1.0] * 4)),
        [0.7845822109817221, 1.0, 0.6862689176861808, 0.7322625609228085],
        (
            [0.5940727124966699, 0.6105506387346894, 0.9165420505570774, 0.738817174285074],
            [0.9744748566188305, 0.688389675725899, 0.5848087428374977, 0.2739643248027279],
        ),
    )

    @pytest.mark.parametrize(
        "problem, planner, budget, seed",
        [
            (WALL2, "apt", 2, 0),
            (WALL2, "bit", 2, 0),
            (LINE1, "informed_rrt_star", 150, 0),
            (OPEN4, "informed_rrt_star", 150, 150),
        ],
        ids=["wall2-apt", "wall2-bit", "line1-irrt", "open4-irrt"],
    )
    def test_planning_goes_on(self, problem, planner, budget, seed):
        run = PLANNERS[planner](problem, PlannerConfig(max_iterations=budget, rng_seed=seed))
        assert run.success
        costs = [c for _, c in run.events]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert run.c_final >= problem.c_min - 1e-12


class TestWallClockBudget:
    """Every planner stops on max_time, and its event times are wall seconds."""

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_zero_time_draws_nothing(self, planner):
        for world in (EMPTY, DW_OFFSET):
            run = PLANNERS[planner](make_problem(world), PlannerConfig(max_time=0.0))
            assert run.counters["samples"] == 0
            assert run.counters.get("batches", 0) == 0
            assert run.counters.get("neighbor_queries", 0) == 0
            # only apt's and bit's goal test before the first batch can succeed
            if planner in ("apt", "bit") and world is EMPTY:
                assert run.success and len(run.events) == 1
                assert run.c_final == pytest.approx(0.9)
            else:
                assert not run.success and run.events == []

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_event_times_are_wall_seconds(self, planner):
        # no iteration budget: only the clock stops the run
        t0 = time.perf_counter()
        run = PLANNERS[planner](
            make_problem(DW_OFFSET), PlannerConfig(max_time=0.25, max_iterations=None)
        )
        elapsed = time.perf_counter() - t0
        assert run.success
        times = [t for t, _ in run.events]
        assert 0.0 <= times[0]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times[-1] <= elapsed
        assert run.counters["samples"] > 0


class TestRegistry:
    def test_all_planners_registered(self):
        assert set(PLANNERS) == {"apt", "bit", "rrt_connect", "informed_rrt_star"}


GOLDEN_PROBLEMS = {
    "w2": make_problem(DW_OFFSET),
    # a 4-D wall with one gap, and a box between the start and the wall
    "w4": ProblemInstance(
        WorldModel(
            HyperRectangle([0.0] * 4, [1.0] * 4),
            (
                HyperRectangle([0.45, 0.0, 0.0, 0.0], [0.55, 0.3, 1.0, 1.0]),
                HyperRectangle([0.45, 0.4, 0.0, 0.0], [0.55, 1.0, 1.0, 1.0]),
                HyperRectangle([0.2, 0.35, 0.3, 0.3], [0.3, 0.65, 0.7, 0.7]),
            ),
        ),
        [0.05, 0.5, 0.5, 0.5],
        ([0.95, 0.5, 0.5, 0.5],),
    ),
    # two goals: the far one, below the gap, is the cheaper to reach
    "w2g2": ProblemInstance(DW_OFFSET, [0.05, 0.5], ([0.95, 0.5], [0.95, 0.1])),
    # w4's wall with start and goal apart in every coordinate: the focal axis
    # is on no coordinate axis, so every informed draw goes through a full
    # rotation, and the bounds cut the informed sets. A rotation that rounds
    # differently in the last bit changes three of these four logs.
    "w4x": ProblemInstance(
        WorldModel(
            HyperRectangle([0.0] * 4, [1.0] * 4),
            (
                HyperRectangle([0.45, 0.0, 0.0, 0.0], [0.55, 0.3, 1.0, 1.0]),
                HyperRectangle([0.45, 0.4, 0.0, 0.0], [0.55, 1.0, 1.0, 1.0]),
            ),
        ),
        [0.05, 0.71, 0.63, 0.25],
        ([0.95, 0.48, 0.18, 0.71],),
    ),
    # an 8-D wall with its gap far off the start-goal line; the wall spans
    # the bounds on axes 2-7. At the RRT edge length every vertex is a
    # neighbor of a new one and long draws are steered.
    "w8": ProblemInstance(
        WorldModel(
            HyperRectangle([0.0] * 8, [1.0] * 8),
            (
                HyperRectangle([0.45, 0.0] + [0.0] * 6, [0.55, 0.1] + [1.0] * 6),
                HyperRectangle([0.45, 0.2] + [0.0] * 6, [0.55, 1.0] + [1.0] * 6),
            ),
        ),
        [0.05] + [0.5] * 7,
        ([0.95] + [0.5] * 7,),
    ),
    # the same wall in bounds stretched to 2 on axes 2-7: draws are often
    # farther than the edge length from the tree and are steered, and the
    # neighbor radius no longer holds every vertex
    "w8s": ProblemInstance(
        WorldModel(
            HyperRectangle([0.0] * 8, [1.0] * 2 + [2.0] * 6),
            (
                HyperRectangle([0.45, 0.0] + [0.0] * 6, [0.55, 0.1] + [2.0] * 6),
                HyperRectangle([0.45, 0.2] + [0.0] * 6, [0.55, 1.0] + [2.0] * 6),
            ),
        ),
        [0.05, 0.5] + [1.0] * 6,
        ([0.95, 0.5] + [1.0] * 6,),
    ),
    # 60 random 4-D boxes clipped at the bounds, so many boxes touch the
    # bounds on some axes but not on others
    "r4": make_spec_problem(
        WorldSpec(
            "random_rectangles", 4, seed=0, obstacle_count=60, width_range=(0.25, 0.45)
        )
    ),
}
GOLDEN_BUDGETS = {"apt": 3, "bit": 3, "rrt_connect": 300, "informed_rrt_star": 400}
# (world, planner, seed) -> the events of the run below up to its first
# solution: those stamped with the batch or iteration of the first event.
# Only draws made before any solution lead to them, so they hold through a
# change to informed sampling; they were recorded before the informed draws
# moved to the rotation-free spheroid transform, and are kept by hand.
FIRST_SOLUTION_EVENTS = {
    ("w2", "apt", 2): [
        (0.0, 1.1031565415252782),
        (0.0, 1.0909891353719936),
        (0.0, 1.0642887528556262),
        (0.0, 1.0327036216033396),
    ],
    ("w2", "apt", 8): [
        (0.0, 1.1326373606415197),
        (0.0, 1.1311144042181889),
        (0.0, 1.0243462694740237),
        (0.0, 1.0236110555024367),
    ],
    ("w2", "bit", 2): [
        (0.0, 1.133186274473243),
        (0.0, 1.1156910224287455),
        (0.0, 1.0789126739120767),
        (0.0, 1.0327036216033396),
    ],
    ("w2", "bit", 8): [
        (0.0, 1.1973757823136275),
        (0.0, 1.145879949685013),
        (0.0, 1.1156955971798377),
        (0.0, 1.113382853905022),
    ],
    ("w2", "informed_rrt_star", 2): [(18.0, 1.1225117872415913)],
    ("w2", "informed_rrt_star", 8): [(18.0, 1.07890846135086)],
    ("w2", "rrt_connect", 2): [(58.0, 1.3779460290780168)],
    ("w2", "rrt_connect", 8): [(15.0, 1.2237034990382027)],
    ("w4", "apt", 2): [(0.0, 1.211613383510325), (0.0, 1.1888480221983797)],
    ("w4", "apt", 8): [
        (0.0, 1.350924382417202),
        (0.0, 1.3503807769644993),
        (0.0, 1.3315531165970833),
        (0.0, 1.3243542904426442),
    ],
    ("w4", "bit", 2): [(0.0, 1.211613383510325), (0.0, 1.1888480221983797)],
    ("w4", "bit", 8): [
        (0.0, 1.350924382417202),
        (0.0, 1.3503807769644993),
        (0.0, 1.3315531165970833),
        (0.0, 1.3243542904426442),
    ],
    ("w4", "informed_rrt_star", 2): [(87.0, 2.1105140637801107)],
    ("w4", "informed_rrt_star", 8): [(26.0, 1.6611129902212092)],
    ("w4", "rrt_connect", 2): [(11.0, 1.9414403663696191)],
    ("w4", "rrt_connect", 8): [(85.0, 2.5366086819601725)],
    ("w2g2", "apt", 1): [
        (0.0, 1.044642305945947),
        (0.0, 0.9986977379402028),
        (0.0, 0.99116768709282),
        (0.0, 0.9875909434082757),
    ],
    ("w2g2", "apt", 2): [(0.0, 0.998531897884403), (0.0, 0.985885962022595)],
    ("w2g2", "bit", 1): [
        (0.0, 1.044642305945947),
        (0.0, 0.9986977379402028),
        (0.0, 0.99116768709282),
    ],
    ("w2g2", "bit", 2): [(0.0, 0.998531897884403), (0.0, 0.9888479815897743)],
    ("w2g2", "informed_rrt_star", 1): [
        (14.0, 1.1025794256689871),
        (14.0, 1.0637200662879438),
    ],
    ("w2g2", "informed_rrt_star", 2): [(15.0, 1.008798141533561)],
    ("w4x", "apt", 1): [
        (0.0, 1.4680889629675489),
        (0.0, 1.3588634958058532),
        (0.0, 1.3230547676297133),
    ],
    ("w4x", "apt", 2): [
        (0.0, 1.5234208494191057),
        (0.0, 1.3778072914738493),
        (0.0, 1.3286567943739431),
    ],
    ("w4x", "bit", 1): [
        (0.0, 1.4680889629675489),
        (0.0, 1.3588634958058532),
        (0.0, 1.3430804725445182),
    ],
    ("w4x", "bit", 2): [(0.0, 1.5234208494191057), (0.0, 1.3778072914738493)],
    ("w8", "informed_rrt_star", 1): [(18.0, 2.53009882583685)],
    ("w8", "informed_rrt_star", 2): [(24.0, 2.910889469900807)],
    ("w8", "rrt_connect", 1): [(95.0, 5.305986687649779)],
    ("w8", "rrt_connect", 2): [(45.0, 2.4984128627907785)],
    ("w8s", "informed_rrt_star", 1): [(35.0, 3.1516786274435837)],
    ("w8s", "informed_rrt_star", 2): [(76.0, 6.759504377123303)],
    ("w8s", "rrt_connect", 1): [(41.0, 4.61288842993258)],
    ("w8s", "rrt_connect", 2): [(45.0, 3.686800213666558)],
    ("r4", "informed_rrt_star", 1): [(99.0, 2.2819830585834944)],
    ("r4", "informed_rrt_star", 2): [(152.0, 1.8291022014725848)],
}
# (world, planner, seed) -> (events, counters) of seeded iteration-budget runs,
# as exact float literals: a change to one bit of any event cost fails the
# test. A change that alters seeded runs on purpose re-records these with
# tests/record_golden.py and says why.
GOLDEN_RUNS = {
    ("w2", "apt", 2): (
        [
            (0.0, 1.1031565415252782),
            (0.0, 1.0909891353719936),
            (0.0, 1.0642887528556262),
            (0.0, 1.0327036216033396),
            (1.0, 1.0119027903026487),
            (1.0, 1.009680896072823),
            (1.0, 1.0078547177841135),
            (1.0, 1.00392544445744),
        ],
        {
            "samples": 495,
            "collision_checks": 1357,
            "neighbor_queries": 283,
            "shrink_rounds": 1331,
            "batches": 3,
        },
    ),
    ("w2", "apt", 8): (
        [
            (0.0, 1.1326373606415197),
            (0.0, 1.1311144042181889),
            (0.0, 1.0243462694740237),
            (0.0, 1.0236110555024367),
            (2.0, 1.0176470903218782),
            (2.0, 1.0125256740939999),
            (2.0, 1.0063892405741743),
            (2.0, 1.0039819660578624),
            (2.0, 1.0032794786742625),
        ],
        {
            "samples": 496,
            "collision_checks": 1541,
            "neighbor_queries": 296,
            "shrink_rounds": 1801,
            "batches": 3,
        },
    ),
    ("w2", "bit", 2): (
        [
            (0.0, 1.133186274473243),
            (0.0, 1.1156910224287455),
            (0.0, 1.0789126739120767),
            (0.0, 1.0327036216033396),
            (1.0, 1.0122157624293924),
            (2.0, 1.012209511603235),
            (2.0, 1.009330671350309),
            (2.0, 1.00843589602431),
        ],
        {
            "samples": 300,
            "collision_checks": 448,
            "neighbor_queries": 149,
            "shrink_rounds": 149,
            "batches": 3,
        },
    ),
    ("w2", "bit", 8): (
        [
            (0.0, 1.1973757823136275),
            (0.0, 1.145879949685013),
            (0.0, 1.1156955971798377),
            (0.0, 1.113382853905022),
            (1.0, 1.0376163009583843),
            (1.0, 1.023631505423069),
            (1.0, 1.0113060420714275),
            (2.0, 1.0086417016475533),
        ],
        {
            "samples": 300,
            "collision_checks": 512,
            "neighbor_queries": 179,
            "shrink_rounds": 179,
            "batches": 3,
        },
    ),
    ("w2", "informed_rrt_star", 2): (
        [
            (18.0, 1.1225117872415913),
            (19.0, 1.0997390876675375),
            (20.0, 1.0464774611787893),
            (24.0, 1.03965993839564),
            (36.0, 1.035840844609444),
            (78.0, 1.0326063905459328),
            (78.0, 1.0224939987579447),
            (140.0, 1.0222897099857704),
            (192.0, 1.0136674565104575),
            (192.0, 1.0115809303520662),
            (208.0, 1.01005113431246),
            (256.0, 1.009229590178517),
            (259.0, 1.0079140556788808),
        ],
        {"samples": 400, "collision_checks": 969, "neighbor_queries": 356},
    ),
    ("w2", "informed_rrt_star", 8): (
        [
            (18.0, 1.07890846135086),
            (43.0, 1.0681783527404),
            (48.0, 1.011961673088401),
            (125.0, 1.0111297126119085),
            (222.0, 1.0070465047841741),
            (360.0, 1.005630105415672),
        ],
        {"samples": 400, "collision_checks": 740, "neighbor_queries": 353},
    ),
    ("w2", "rrt_connect", 2): (
        [
            (58.0, 1.3779460290780168),
        ],
        {"samples": 59, "collision_checks": 80},
    ),
    ("w2", "rrt_connect", 8): (
        [
            (15.0, 1.2237034990382027),
        ],
        {"samples": 16, "collision_checks": 18},
    ),
    ("w4", "apt", 2): (
        [
            (0.0, 1.211613383510325),
            (0.0, 1.1888480221983797),
            (1.0, 1.1431880246973698),
            (1.0, 1.0862384481619682),
            (2.0, 1.07632819548059),
        ],
        {
            "samples": 446,
            "collision_checks": 270,
            "neighbor_queries": 28,
            "shrink_rounds": 418,
            "batches": 3,
        },
    ),
    ("w4", "apt", 8): (
        [
            (0.0, 1.350924382417202),
            (0.0, 1.3503807769644993),
            (0.0, 1.3315531165970833),
            (0.0, 1.3243542904426442),
            (1.0, 1.1761005828885813),
            (1.0, 1.0519276475817485),
        ],
        {
            "samples": 341,
            "collision_checks": 182,
            "neighbor_queries": 22,
            "shrink_rounds": 323,
            "batches": 3,
        },
    ),
    ("w4", "bit", 2): (
        [
            (0.0, 1.211613383510325),
            (0.0, 1.1888480221983797),
            (1.0, 1.0674953198736155),
        ],
        {
            "samples": 300,
            "collision_checks": 139,
            "neighbor_queries": 25,
            "shrink_rounds": 25,
            "batches": 3,
        },
    ),
    ("w4", "bit", 8): (
        [
            (0.0, 1.350924382417202),
            (0.0, 1.3503807769644993),
            (0.0, 1.3315531165970833),
            (0.0, 1.3243542904426442),
            (1.0, 1.2483707851637162),
            (1.0, 1.224270416938404),
            (2.0, 1.133409944270519),
        ],
        {
            "samples": 300,
            "collision_checks": 313,
            "neighbor_queries": 43,
            "shrink_rounds": 43,
            "batches": 3,
        },
    ),
    ("w4", "informed_rrt_star", 2): (
        [
            (87.0, 2.1105140637801107),
            (131.0, 1.8585369319528182),
            (141.0, 1.7460046967513223),
            (146.0, 1.4078083566238322),
            (150.0, 1.3295660393679625),
            (181.0, 1.307508907050246),
            (214.0, 1.2478523822729501),
            (306.0, 1.2172163286107862),
            (334.0, 1.182344814796677),
            (367.0, 1.1675557236164884),
        ],
        {"samples": 400, "collision_checks": 2195, "neighbor_queries": 350},
    ),
    ("w4", "informed_rrt_star", 8): (
        [
            (26.0, 1.6611129902212092),
            (27.0, 1.607042033361017),
            (32.0, 1.3255301688419405),
            (55.0, 1.3062412004951591),
            (65.0, 1.172414331391824),
            (96.0, 1.1502047370264834),
            (147.0, 1.1223524041450437),
            (186.0, 1.0895541841244833),
            (347.0, 1.0792176466329801),
        ],
        {"samples": 400, "collision_checks": 2657, "neighbor_queries": 334},
    ),
    ("w4", "rrt_connect", 2): (
        [
            (11.0, 1.9414403663696191),
        ],
        {"samples": 12, "collision_checks": 14},
    ),
    ("w4", "rrt_connect", 8): (
        [
            (85.0, 2.5366086819601725),
        ],
        {"samples": 86, "collision_checks": 118},
    ),
    ("w2g2", "apt", 1): (
        [
            (0.0, 1.044642305945947),
            (0.0, 0.9986977379402028),
            (0.0, 0.99116768709282),
            (0.0, 0.9875909434082757),
            (1.0, 0.9871232428062268),
            (1.0, 0.986754817862274),
            (1.0, 0.9867249406886764),
            (1.0, 0.9864245993326645),
            (2.0, 0.9861298285883745),
            (2.0, 0.986069348629135),
            (2.0, 0.9860142574311355),
            (2.0, 0.9859607909300488),
            (2.0, 0.9859318216780547),
            (2.0, 0.98593149743609),
        ],
        {
            "samples": 496,
            "collision_checks": 1977,
            "neighbor_queries": 339,
            "shrink_rounds": 1392,
            "batches": 3,
        },
    ),
    ("w2g2", "apt", 2): (
        [
            (0.0, 0.998531897884403),
            (0.0, 0.985885962022595),
            (2.0, 0.9858787678502594),
            (2.0, 0.9858228955746529),
        ],
        {
            "samples": 496,
            "collision_checks": 2495,
            "neighbor_queries": 293,
            "shrink_rounds": 2034,
            "batches": 3,
        },
    ),
    ("w2g2", "bit", 1): (
        [
            (0.0, 1.044642305945947),
            (0.0, 0.9986977379402028),
            (0.0, 0.99116768709282),
            (2.0, 0.9907661601370953),
            (2.0, 0.9905170575546179),
            (2.0, 0.9901303222196131),
            (2.0, 0.9896705640398566),
            (2.0, 0.9894195848946947),
            (2.0, 0.9884075413329403),
            (2.0, 0.9872932668282794),
        ],
        {
            "samples": 300,
            "collision_checks": 449,
            "neighbor_queries": 185,
            "shrink_rounds": 185,
            "batches": 3,
        },
    ),
    ("w2g2", "bit", 2): (
        [
            (0.0, 0.998531897884403),
            (0.0, 0.9888479815897743),
            (2.0, 0.9884979234346005),
            (2.0, 0.9884901963506719),
            (2.0, 0.9883829181817733),
            (2.0, 0.9872730537217843),
            (2.0, 0.9863479993595432),
            (2.0, 0.98594787031086),
            (2.0, 0.9859301766003872),
        ],
        {
            "samples": 300,
            "collision_checks": 444,
            "neighbor_queries": 158,
            "shrink_rounds": 158,
            "batches": 3,
        },
    ),
    ("w2g2", "informed_rrt_star", 1): (
        [
            (14.0, 1.1025794256689871),
            (14.0, 1.0637200662879438),
            (15.0, 1.0338782330391543),
            (15.0, 0.9950188736581108),
            (18.0, 0.9926970887446235),
            (24.0, 0.9898321673236611),
            (27.0, 0.9891425606759736),
            (31.0, 0.987253148817206),
            (33.0, 0.9871588589800738),
            (35.0, 0.9865087899567664),
            (35.0, 0.986493479218205),
            (43.0, 0.9864594407999578),
            (58.0, 0.9860537685745018),
            (59.0, 0.9859535607251888),
            (87.0, 0.9859090797427911),
            (103.0, 0.9858765669064469),
        ],
        {"samples": 400, "collision_checks": 1604, "neighbor_queries": 369},
    ),
    ("w2g2", "informed_rrt_star", 2): (
        [
            (15.0, 1.008798141533561),
            (16.0, 0.9973272898074819),
            (17.0, 0.9943792314795119),
            (20.0, 0.9873722030154111),
            (23.0, 0.9873318522857644),
            (26.0, 0.987250393264784),
            (60.0, 0.9870737692862818),
            (81.0, 0.9866025778542211),
            (81.0, 0.9860994589549074),
            (216.0, 0.9858540048229272),
        ],
        {"samples": 400, "collision_checks": 1439, "neighbor_queries": 372},
    ),
    ("w4x", "apt", 1): (
        [
            (0.0, 1.4680889629675489),
            (0.0, 1.3588634958058532),
            (0.0, 1.3230547676297133),
            (1.0, 1.317193649597989),
            (2.0, 1.3169655237809663),
            (2.0, 1.3151749278208147),
            (2.0, 1.306611849250547),
            (2.0, 1.2831585517687452),
            (2.0, 1.2757530512295343),
            (2.0, 1.2745085990471283),
        ],
        {
            "samples": 496,
            "collision_checks": 1096,
            "neighbor_queries": 180,
            "shrink_rounds": 2252,
            "batches": 3,
        },
    ),
    ("w4x", "apt", 2): (
        [
            (0.0, 1.5234208494191057),
            (0.0, 1.3778072914738493),
            (0.0, 1.3286567943739431),
            (1.0, 1.3254638809659558),
            (1.0, 1.2637752632636592),
            (2.0, 1.2543949214871857),
        ],
        {
            "samples": 464,
            "collision_checks": 796,
            "neighbor_queries": 134,
            "shrink_rounds": 1750,
            "batches": 3,
        },
    ),
    ("w4x", "bit", 1): (
        [
            (0.0, 1.4680889629675489),
            (0.0, 1.3588634958058532),
            (0.0, 1.3430804725445182),
            (1.0, 1.27175141704878),
            (2.0, 1.2441980357134397),
        ],
        {
            "samples": 300,
            "collision_checks": 198,
            "neighbor_queries": 57,
            "shrink_rounds": 57,
            "batches": 3,
        },
    ),
    ("w4x", "bit", 2): (
        [
            (0.0, 1.5234208494191057),
            (0.0, 1.3778072914738493),
            (1.0, 1.318435597890619),
            (2.0, 1.315647490801371),
            (2.0, 1.2994957088807202),
        ],
        {
            "samples": 300,
            "collision_checks": 309,
            "neighbor_queries": 88,
            "shrink_rounds": 88,
            "batches": 3,
        },
    ),
    ("w8", "informed_rrt_star", 1): (
        [
            (18.0, 2.53009882583685),
            (32.0, 2.4584117382977775),
            (47.0, 2.3491245477811846),
            (81.0, 2.098526797406886),
            (174.0, 2.09708457587431),
            (231.0, 1.898628977191611),
            (345.0, 1.8237746206138428),
            (367.0, 1.7306154552766533),
            (386.0, 1.692549109255791),
            (397.0, 1.6214341096300358),
        ],
        {"samples": 400, "collision_checks": 16790, "neighbor_queries": 368},
    ),
    ("w8", "informed_rrt_star", 2): (
        [
            (24.0, 2.910889469900807),
            (38.0, 2.426017132376336),
            (49.0, 1.935672094893821),
            (88.0, 1.9250005246686914),
            (158.0, 1.748397458198964),
            (225.0, 1.6990753949422859),
        ],
        {"samples": 400, "collision_checks": 16184, "neighbor_queries": 349},
    ),
    ("w8", "rrt_connect", 1): (
        [
            (95.0, 5.305986687649779),
        ],
        {"samples": 96, "collision_checks": 129},
    ),
    ("w8", "rrt_connect", 2): (
        [
            (45.0, 2.4984128627907785),
        ],
        {"samples": 46, "collision_checks": 65},
    ),
    ("w8s", "informed_rrt_star", 1): (
        [
            (35.0, 3.1516786274435837),
            (43.0, 3.0765244677905432),
            (98.0, 2.276301527775698),
            (126.0, 2.044183325185002),
            (134.0, 1.7101118981805978),
            (326.0, 1.676653286541233),
        ],
        {"samples": 400, "collision_checks": 11406, "neighbor_queries": 351},
    ),
    ("w8s", "informed_rrt_star", 2): (
        [
            (76.0, 6.759504377123303),
            (77.0, 4.706099794423257),
            (82.0, 4.666050687350735),
            (202.0, 4.413166814102896),
            (245.0, 3.849359463891327),
            (288.0, 3.5474638590211565),
            (293.0, 3.1903101339328397),
        ],
        {"samples": 400, "collision_checks": 1586, "neighbor_queries": 363},
    ),
    ("w8s", "rrt_connect", 1): (
        [
            (41.0, 4.61288842993258),
        ],
        {"samples": 42, "collision_checks": 65},
    ),
    ("w8s", "rrt_connect", 2): (
        [
            (45.0, 3.686800213666558),
        ],
        {"samples": 46, "collision_checks": 67},
    ),
    ("r4", "informed_rrt_star", 1): (
        [
            (99.0, 2.2819830585834944),
            (106.0, 2.03635341595181),
            (123.0, 1.6673273311577712),
            (151.0, 1.596422870727995),
            (226.0, 1.5490006598849868),
            (277.0, 1.0578112624098879),
        ],
        {"samples": 400, "collision_checks": 601, "neighbor_queries": 185},
    ),
    ("r4", "informed_rrt_star", 2): (
        [
            (152.0, 1.8291022014725848),
            (158.0, 1.7226940581435237),
            (291.0, 1.2561368249988305),
        ],
        {"samples": 400, "collision_checks": 727, "neighbor_queries": 193},
    ),
}


class TestGoldenEventLogs:
    @pytest.mark.parametrize("world, planner, seed", sorted(GOLDEN_RUNS))
    def test_seeded_run_matches_recorded_log(self, world, planner, seed):
        run = PLANNERS[planner](
            GOLDEN_PROBLEMS[world],
            PlannerConfig(max_iterations=GOLDEN_BUDGETS[planner], rng_seed=seed),
        )
        first_solution = [event for event in run.events if event[0] == run.t_init]
        assert first_solution == FIRST_SOLUTION_EVENTS[world, planner, seed]
        events, counters = GOLDEN_RUNS[world, planner, seed]
        assert run.events == events
        assert run.counters == counters


def assert_same_run(a, b):
    """Events, counters, success and path equal bit for bit."""
    assert a.events == b.events
    assert a.counters == b.counters
    assert a.success == b.success
    assert (a.path is None) == (b.path is None)
    if a.path is not None:
        assert len(a.path) == len(b.path)
        assert all(np.array_equal(p, q) for p, q in zip(a.path, b.path))


class TestAblationIdentity:
    def test_apt_with_modules_disabled_equals_bit(self):
        # both modules off by config: a fixed batch of m_default and zero k_e
        m = BatchConfig().m_default
        for world, seed in sorted({(w, s) for w, _, s in GOLDEN_RUNS}):
            config = PlannerConfig(max_iterations=GOLDEN_BUDGETS["bit"], rng_seed=seed)
            off = PlannerConfig(
                max_iterations=GOLDEN_BUDGETS["bit"], rng_seed=seed,
                batch=BatchConfig(m, m), neighbor=NeighborConfig(k_e=0.0),
            )
            a = plan_apt(GOLDEN_PROBLEMS[world], off)
            b = plan_batch_informed_trees(GOLDEN_PROBLEMS[world], config)
            assert (a.planner, b.planner) == ("apt", "bit")
            assert_same_run(a, b)

    def test_bit_ignores_the_modules_configs(self):
        # bit runs a fixed batch of the caller's m_default at zero k_e,
        # whatever batch range, k_e and charge schedule it is given
        problem = GOLDEN_PROBLEMS["w4"]
        given = PlannerConfig(
            max_iterations=4, rng_seed=3, batch=BatchConfig(1, 49),
            neighbor=NeighborConfig(k_e=2.5),
            charge=ChargeConfig(q_min=0.3, q_max=2.5, schedule="exponential"),
        )
        plain = PlannerConfig(
            max_iterations=4, rng_seed=3, batch=BatchConfig(25, 25),
            neighbor=NeighborConfig(k_e=0.0),
        )
        a = plan_batch_informed_trees(problem, given)
        assert a.success
        assert a.counters["samples"] == 25 * a.counters["batches"]
        assert_same_run(a, plan_batch_informed_trees(problem, plain))

    def test_bit_empty_world(self):
        run = plan_batch_informed_trees(
            make_problem(EMPTY), PlannerConfig(max_iterations=1, rng_seed=0)
        )
        assert run.success
        assert run.c_final == pytest.approx(0.9, abs=1e-6)


class TestTreeStatesOwnTheirData:
    @pytest.mark.parametrize("world", ["w2", "w4"])
    @pytest.mark.parametrize("planner", ["apt", "bit"])
    def test_path_states_are_not_views(self, world, planner):
        # a state that is a view keeps the whole array it was cut from alive
        run = PLANNERS[planner](
            GOLDEN_PROBLEMS[world],
            PlannerConfig(max_iterations=GOLDEN_BUDGETS[planner], rng_seed=2),
        )
        assert run.success
        assert all(state.base is None for state in run.path)
