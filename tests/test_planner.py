import math
import time

import numpy as np
import pytest

from aptstar.cli import main
from aptstar.geometry import HyperRectangle, ProblemInstance, WorldModel, distance
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
            {"max_iterations": 5, "rewire_factor": 0.0},
            {"max_iterations": 5, "rewire_factor": -1.2},
            {"max_iterations": 5, "max_edge_length": -0.5},
            {"max_iterations": 5, "max_edge_length": 0.0},
            {"max_iterations": 5, "motion_resolution": 0.0},
            {"max_iterations": 5, "motion_resolution": -0.01},
            {"max_iterations": 5, "eta": 0.5},
            {"max_iterations": 5, "eta": math.nan},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)

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

    def test_cli_exits_2_on_zero_rewire_factor(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        main(["worldgen", "--family", "empty", "--dim", "2", "--out", str(world)])
        config = tmp_path / "cfg.json"
        config.write_text('{"rewire_factor": 0}')
        code = main(["plan", "--world", str(world), "--planner", "apt",
                     "--max-iters", "2", "--config", str(config)])
        assert code == 2
        assert "rewire_factor must be positive" in capsys.readouterr().err

    def test_cli_exits_2_on_negative_edge_length(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        main(["worldgen", "--family", "dw", "--dim", "2", "--out", str(world)])
        config = tmp_path / "cfg.json"
        config.write_text('{"max_edge_length": -0.5}')
        code = main(["plan", "--world", str(world), "--planner", "rrt_connect",
                     "--max-iters", "300", "--config", str(config)])
        assert code == 2
        assert "max_edge_length must be positive" in capsys.readouterr().err


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


class TestAblationIdentity:
    def test_apt_with_modules_disabled_equals_bit(self):
        cfg = PlannerConfig(max_iterations=5, rng_seed=11)
        prob = make_problem(DW_OFFSET)
        a = plan_apt(prob, cfg, adaptive=False)
        b = plan_batch_informed_trees(prob, cfg)
        assert a.events == b.events
        assert a.counters == b.counters
        assert a.success == b.success
        if a.path is not None:
            assert all(np.array_equal(p, q) for p, q in zip(a.path, b.path))

    def test_bit_empty_world(self):
        run = plan_batch_informed_trees(
            make_problem(EMPTY), PlannerConfig(max_iterations=1, rng_seed=0)
        )
        assert run.success
        assert run.c_final == pytest.approx(0.9, abs=1e-6)


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
# (world, planner, seed) -> (events, counters) of seeded iteration-budget runs,
# as exact float literals: a change to one bit of any event cost fails the
# test. A change that alters seeded runs on purpose re-records these and says
# why.
GOLDEN_RUNS = {
    ("w2", "apt", 2): (
        [
            (0.0, 1.1031565415252782),
            (0.0, 1.0909891353719936),
            (0.0, 1.0642887528556262),
            (0.0, 1.0327036216033396),
            (1.0, 1.0326801754360608),
            (1.0, 1.0317451947465335),
            (1.0, 1.0260722384761716),
            (1.0, 1.014148550398363),
            (2.0, 1.0058685994960759),
            (2.0, 1.0057340630158476),
            (2.0, 1.0019284693550188),
            (2.0, 1.0002535424509273),
            (2.0, 1.0002343928326232),
        ],
        {
            "samples": 496,
            "collision_checks": 1349,
            "neighbor_queries": 249,
            "shrink_rounds": 1441,
            "batches": 3,
        },
    ),
    ("w2", "apt", 8): (
        [
            (0.0, 1.1326373606415197),
            (0.0, 1.1311144042181889),
            (0.0, 1.0243462694740237),
            (0.0, 1.0236110555024367),
            (1.0, 1.015387399978637),
            (2.0, 1.0118564434968338),
            (2.0, 1.0057395823521154),
        ],
        {
            "samples": 496,
            "collision_checks": 1242,
            "neighbor_queries": 277,
            "shrink_rounds": 1434,
            "batches": 3,
        },
    ),
    ("w2", "bit", 2): (
        [
            (0.0, 1.133186274473243),
            (0.0, 1.1156910224287455),
            (0.0, 1.0789126739120767),
            (0.0, 1.0327036216033396),
            (2.0, 1.021326764039037),
        ],
        {
            "samples": 300,
            "collision_checks": 442,
            "neighbor_queries": 159,
            "shrink_rounds": 159,
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
            (1.0, 1.0344968152091574),
            (1.0, 1.0313420055908782),
            (2.0, 1.024009651049002),
            (2.0, 1.012075065966849),
        ],
        {
            "samples": 300,
            "collision_checks": 512,
            "neighbor_queries": 150,
            "shrink_rounds": 150,
            "batches": 3,
        },
    ),
    ("w2", "informed_rrt_star", 2): (
        [
            (18.0, 1.1225117872415913),
            (19.0, 1.0950876390831583),
            (20.0, 1.0880893126213655),
            (22.0, 1.0768430718186561),
            (23.0, 1.036368654465267),
            (40.0, 1.0271803294492834),
            (70.0, 1.0132378815937317),
            (99.0, 1.0129406451892002),
            (133.0, 1.0129235082022852),
            (397.0, 1.0120631767487835),
        ],
        {"samples": 400, "collision_checks": 858, "neighbor_queries": 363},
    ),
    ("w2", "informed_rrt_star", 8): (
        [
            (18.0, 1.07890846135086),
            (38.0, 1.0519174902902404),
            (48.0, 1.038350871083973),
            (49.0, 1.0285513693299417),
            (56.0, 1.01954573555068),
            (132.0, 1.008269438028773),
            (168.0, 1.008201474966913),
            (184.0, 1.006211652366359),
            (201.0, 1.0060824877998744),
            (248.0, 1.0031941421523862),
        ],
        {"samples": 400, "collision_checks": 775, "neighbor_queries": 360},
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
            (1.0, 1.1524643380022028),
            (1.0, 1.1349140526014294),
            (2.0, 1.054011966701243),
        ],
        {
            "samples": 488,
            "collision_checks": 411,
            "neighbor_queries": 36,
            "shrink_rounds": 532,
            "batches": 3,
        },
    ),
    ("w4", "apt", 8): (
        [
            (0.0, 1.350924382417202),
            (0.0, 1.3503807769644993),
            (0.0, 1.3315531165970833),
            (0.0, 1.3243542904426442),
            (1.0, 1.271506466176918),
            (1.0, 1.1751358440814814),
            (1.0, 1.1468765404460184),
        ],
        {
            "samples": 411,
            "collision_checks": 434,
            "neighbor_queries": 60,
            "shrink_rounds": 946,
            "batches": 3,
        },
    ),
    ("w4", "bit", 2): (
        [
            (0.0, 1.211613383510325),
            (0.0, 1.1888480221983797),
            (1.0, 1.185049969912892),
            (2.0, 1.1513434285744508),
            (2.0, 1.1350550843703842),
        ],
        {
            "samples": 300,
            "collision_checks": 240,
            "neighbor_queries": 43,
            "shrink_rounds": 43,
            "batches": 3,
        },
    ),
    ("w4", "bit", 8): (
        [
            (0.0, 1.350924382417202),
            (0.0, 1.3503807769644993),
            (0.0, 1.3315531165970833),
            (0.0, 1.3243542904426442),
            (1.0, 1.1468765404460184),
            (2.0, 1.112423244465925),
            (2.0, 1.0517269558560836),
        ],
        {
            "samples": 300,
            "collision_checks": 162,
            "neighbor_queries": 21,
            "shrink_rounds": 21,
            "batches": 3,
        },
    ),
    ("w4", "informed_rrt_star", 2): (
        [
            (87.0, 2.1105140637801107),
            (136.0, 1.472397762934804),
            (157.0, 1.367348335316127),
            (168.0, 1.3325769241798358),
            (180.0, 1.318986323334335),
            (181.0, 1.2507055812656387),
            (197.0, 1.164436653605368),
            (204.0, 1.1540200597052261),
            (223.0, 1.1482421331414165),
            (247.0, 1.1383862878764515),
            (261.0, 1.1330248110392307),
            (302.0, 1.0878195192442406),
            (331.0, 1.0748557538210814),
        ],
        {"samples": 400, "collision_checks": 1713, "neighbor_queries": 346},
    ),
    ("w4", "informed_rrt_star", 8): (
        [
            (26.0, 1.6611129902212092),
            (38.0, 1.4596006792699572),
            (40.0, 1.2627990722620388),
            (49.0, 1.0685863551358188),
            (242.0, 1.0662307046497357),
            (317.0, 1.0636893340968598),
        ],
        {"samples": 400, "collision_checks": 2204, "neighbor_queries": 308},
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
            (1.0, 0.9869252236764887),
            (1.0, 0.9862460953801352),
            (1.0, 0.9860556980158816),
            (2.0, 0.9860328988255295),
            (2.0, 0.9859107172656498),
            (2.0, 0.985822996119537),
            (2.0, 0.9858140407025267),
            (2.0, 0.9858087677079561),
            (2.0, 0.9857935604124425),
        ],
        {
            "samples": 496,
            "collision_checks": 1951,
            "neighbor_queries": 291,
            "shrink_rounds": 1602,
            "batches": 3,
        },
    ),
    ("w2g2", "apt", 2): (
        [
            (0.0, 0.998531897884403),
            (0.0, 0.985885962022595),
            (2.0, 0.9858022427962124),
        ],
        {
            "samples": 496,
            "collision_checks": 2094,
            "neighbor_queries": 301,
            "shrink_rounds": 1298,
            "batches": 3,
        },
    ),
    ("w2g2", "bit", 1): (
        [
            (0.0, 1.044642305945947),
            (0.0, 0.9986977379402028),
            (0.0, 0.99116768709282),
            (1.0, 0.9910426527427356),
            (2.0, 0.9904281499305969),
            (2.0, 0.9862094488654957),
            (2.0, 0.9861622497064115),
            (2.0, 0.9860903086582977),
            (2.0, 0.9860224639926133),
        ],
        {
            "samples": 300,
            "collision_checks": 398,
            "neighbor_queries": 159,
            "shrink_rounds": 159,
            "batches": 3,
        },
    ),
    ("w2g2", "bit", 2): (
        [
            (0.0, 0.998531897884403),
            (0.0, 0.9888479815897743),
            (2.0, 0.9882459058181792),
            (2.0, 0.9876355436421268),
            (2.0, 0.9875821568554577),
            (2.0, 0.9863098237846586),
            (2.0, 0.9862889236431653),
            (2.0, 0.9862827460623909),
            (2.0, 0.9860473123123283),
            (2.0, 0.985962897326782),
        ],
        {
            "samples": 300,
            "collision_checks": 475,
            "neighbor_queries": 162,
            "shrink_rounds": 162,
            "batches": 3,
        },
    ),
    ("w2g2", "informed_rrt_star", 1): (
        [
            (14.0, 1.1025794256689871),
            (14.0, 1.0637200662879438),
            (18.0, 1.0516641738035326),
            (23.0, 1.0087066830121183),
            (26.0, 1.007170683583269),
            (28.0, 0.9974085631852048),
            (32.0, 0.9938982759861665),
            (36.0, 0.9925121690031985),
            (39.0, 0.9905587531885875),
            (41.0, 0.9900839252519575),
            (42.0, 0.9873774964502552),
            (43.0, 0.9872095166598714),
            (43.0, 0.9868729325701436),
            (48.0, 0.9868034342161119),
            (49.0, 0.9866956250026682),
            (57.0, 0.9866299934016922),
            (57.0, 0.9861759775094597),
            (59.0, 0.9861708513147656),
            (82.0, 0.9859681585780262),
            (159.0, 0.985930792437751),
            (159.0, 0.9858843550366427),
            (305.0, 0.9858256537802406),
            (310.0, 0.9857982196366221),
        ],
        {"samples": 400, "collision_checks": 1701, "neighbor_queries": 371},
    ),
    ("w2g2", "informed_rrt_star", 2): (
        [
            (15.0, 1.008798141533561),
            (19.0, 1.0077443798733206),
            (22.0, 0.9940093832158624),
            (27.0, 0.9919346586219685),
            (40.0, 0.9892535181528459),
            (40.0, 0.9888762789272152),
            (42.0, 0.9876038822978986),
            (48.0, 0.9875983334746787),
            (55.0, 0.9867891362322145),
            (72.0, 0.9864542399745992),
            (82.0, 0.9864518209369596),
            (87.0, 0.9861840632219759),
            (90.0, 0.9860904753288355),
            (101.0, 0.9859195129936633),
            (152.0, 0.985917848668455),
            (193.0, 0.9857931678255505),
            (193.0, 0.9857735585850156),
            (310.0, 0.9857715906963871),
        ],
        {"samples": 400, "collision_checks": 1424, "neighbor_queries": 377},
    ),
    ("w4x", "apt", 1): (
        [
            (0.0, 1.4680889629675489),
            (0.0, 1.3588634958058532),
            (0.0, 1.3230547676297133),
            (1.0, 1.2945035828041844),
            (2.0, 1.2924075395757206),
            (2.0, 1.2843829559809978),
            (2.0, 1.2634186604066413),
            (2.0, 1.2607869991157101),
        ],
        {
            "samples": 493,
            "collision_checks": 781,
            "neighbor_queries": 158,
            "shrink_rounds": 2107,
            "batches": 3,
        },
    ),
    ("w4x", "apt", 2): (
        [
            (0.0, 1.5234208494191057),
            (0.0, 1.3778072914738493),
            (0.0, 1.3286567943739431),
            (1.0, 1.318358370523192),
            (1.0, 1.3077169265745463),
            (2.0, 1.2974968865802323),
            (2.0, 1.2948012426643953),
        ],
        {
            "samples": 495,
            "collision_checks": 994,
            "neighbor_queries": 202,
            "shrink_rounds": 2978,
            "batches": 3,
        },
    ),
    ("w4x", "bit", 1): (
        [
            (0.0, 1.4680889629675489),
            (0.0, 1.3588634958058532),
            (0.0, 1.3430804725445182),
            (1.0, 1.3274639381693953),
            (2.0, 1.3101861348408415),
        ],
        {
            "samples": 300,
            "collision_checks": 386,
            "neighbor_queries": 107,
            "shrink_rounds": 107,
            "batches": 3,
        },
    ),
    ("w4x", "bit", 2): (
        [
            (0.0, 1.5234208494191057),
            (0.0, 1.3778072914738493),
            (1.0, 1.353860632225829),
            (1.0, 1.3518693619253166),
            (2.0, 1.317861052622825),
            (2.0, 1.3005491493059869),
            (2.0, 1.2919730157075897),
        ],
        {
            "samples": 300,
            "collision_checks": 335,
            "neighbor_queries": 81,
            "shrink_rounds": 81,
            "batches": 3,
        },
    ),
    ("w8", "informed_rrt_star", 1): (
        [
            (18.0, 2.53009882583685),
            (85.0, 2.496358421172471),
            (99.0, 2.277684225502016),
            (127.0, 2.0446485280672153),
            (150.0, 1.8267306032001267),
            (247.0, 1.727974382077496),
            (392.0, 1.5599953469891772),
        ],
        {"samples": 400, "collision_checks": 15613, "neighbor_queries": 358},
    ),
    ("w8", "informed_rrt_star", 2): (
        [
            (24.0, 2.910889469900807),
            (26.0, 2.7245798902431644),
            (48.0, 2.5169860936187085),
            (62.0, 2.5147448615303576),
            (94.0, 1.7134413697847322),
            (100.0, 1.6168043831120062),
            (134.0, 1.5410723083227367),
            (153.0, 1.5030013957307862),
        ],
        {"samples": 400, "collision_checks": 12567, "neighbor_queries": 350},
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
            (104.0, 2.887717374074722),
            (232.0, 2.682765314986509),
            (316.0, 2.4279358442887107),
        ],
        {"samples": 400, "collision_checks": 3968, "neighbor_queries": 367},
    ),
    ("w8s", "informed_rrt_star", 2): (
        [
            (76.0, 6.759504377123303),
            (84.0, 5.3429691366980645),
            (134.0, 2.3395676793734808),
            (221.0, 1.8889408858507164),
            (262.0, 1.7306001575347514),
        ],
        {"samples": 400, "collision_checks": 5616, "neighbor_queries": 339},
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
            (100.0, 2.2655425333935875),
            (107.0, 2.1293572028379826),
            (125.0, 1.775584150109131),
            (132.0, 1.0461831265066641),
            (238.0, 1.0045372209356132),
            (253.0, 0.9597791251610172),
            (378.0, 0.9432895585036994),
        ],
        {"samples": 400, "collision_checks": 719, "neighbor_queries": 187},
    ),
    ("r4", "informed_rrt_star", 2): (
        [
            (152.0, 1.8291022014725848),
            (155.0, 1.7208990266207382),
            (314.0, 1.6759812867609958),
            (328.0, 1.4692708500585563),
            (332.0, 1.41317964814009),
        ],
        {"samples": 400, "collision_checks": 797, "neighbor_queries": 200},
    ),
}


class TestGoldenEventLogs:
    @pytest.mark.parametrize("world, planner, seed", sorted(GOLDEN_RUNS))
    def test_seeded_run_matches_recorded_log(self, world, planner, seed):
        run = PLANNERS[planner](
            GOLDEN_PROBLEMS[world],
            PlannerConfig(max_iterations=GOLDEN_BUDGETS[planner], rng_seed=seed),
        )
        events, counters = GOLDEN_RUNS[world, planner, seed]
        assert run.events == events
        assert run.counters == counters


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
