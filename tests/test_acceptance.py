"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each test prints a single [PASS]/[FAIL] line directly to the terminal
(bypassing capture) and then asserts, so the verdicts are visible in any
pytest run. The heavier planner criteria (7 and 9) run real benchmark
grids and take a few minutes combined.
"""
import math
import time

import numpy as np
import pytest

from aptstar.adaptive import (
    BatchConfig,
    BatchState,
    ChargeConfig,
    adapt_batch_size,
    bernoulli_number,
    tanh_taylor_charge,
    vertex_charge,
)
from aptstar.bench import BenchmarkSuite, run_benchmark, summarize
from aptstar.geometry import (
    HyperRectangle,
    ProblemInstance,
    WorldModel,
    lebesgue_measure,
)
from aptstar.neighbors import (
    NeighborConfig,
    elliptical_nn_query,
    rnn_radius,
)
from aptstar.planner import (
    PlannerConfig,
    plan_apt,
    plan_batch_informed_trees,
    plan_informed_rrt_star,
    plan_rrt_connect,
)
from aptstar.worlds import WorldSpec

from oracles import (
    bernoulli_at,
    brute_elliptical_nn,
    mc_two_focus_volume,
    visibility_shortest_path,
)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\n[{verdict}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def make_world(*obstacles):
    return WorldModel(
        HyperRectangle([0.0, 0.0], [1.0, 1.0]),
        tuple(HyperRectangle(lo, hi) for lo, hi in obstacles),
    )


def make_problem(world):
    return ProblemInstance(world, [0.05, 0.5], ([0.95, 0.5],))


# dividing wall with one 0.1-wide gap at y in (0.2, 0.3): the straight
# segment between the canonical endpoints is blocked, so the shortest
# path must route through the gap and the oracle cost is nontrivial
DW_GAP = make_world(([0.45, 0.0], [0.55, 0.2]), ([0.45, 0.3], [0.55, 1.0]))
DW_GAP_OBS = [((0.45, 0.0), (0.55, 0.2)), ((0.45, 0.3), (0.55, 1.0))]
EMPTY = make_world()


def lower_middle_median(values):
    vals = sorted(values)
    return vals[(len(vals) - 1) // 2]


def test_criterion_01_measure_vs_monte_carlo(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for n in (2, 3):
        for _ in range(5):
            c_min = float(rng.uniform(0.5, 1.5))
            c = float(rng.uniform(1.1, 3.0)) * c_min
            exact = lebesgue_measure(c, c_min, n)
            mc = mc_two_focus_volume(c, c_min, n, 10**6, rng)
            worst = max(worst, abs(mc - exact) / exact)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 30.0
    report(
        capsys, 1,
        ok,
        f"informed-set measure vs Monte-Carlo, worst rel err "
        f"{worst:.4%} (<=2%), {elapsed:.1f}s (<30s)",
    )


def test_criterion_02_charge_series_fidelity(capsys):
    xs = np.linspace(-1.4, 1.4, 1000)
    err100 = max(
        abs(tanh_taylor_charge(float(x), 0.1, 1.9, 100) - (1.0 - 0.9 * math.tanh(x)))
        for x in xs
    )
    xs10 = np.linspace(-1.0, 1.0, 1000)
    err10 = max(
        abs(tanh_taylor_charge(float(x), 0.1, 1.9, 10) - (1.0 - 0.9 * math.tanh(x)))
        for x in xs10
    )
    bern_ok = all(
        abs(bernoulli_number(k) - float(bernoulli_at(k)))
        <= 1e-12 * abs(float(bernoulli_at(k)))
        for k in (2, 4, 6, 8, 10, 12)
    )
    ok = err100 <= 1e-6 and err10 <= 1e-3 and bern_ok
    report(
        capsys, 2,
        ok,
        f"series charge max err {err100:.2e} (alpha=100, <=1e-6), "
        f"{err10:.2e} (alpha=10, <=1e-3), Bernoulli B2..B12 to 12 digits: {bern_ok}",
    )


def test_criterion_03_ball_degeneration(capsys):
    cfg = NeighborConfig()
    rng = np.random.default_rng(77)
    mismatches = 0
    for n in (2, 4):
        r = rnn_radius(30, n, math.inf, 1.0)
        for _ in range(5000):
            pts = rng.uniform(0.0, 1.0, (20, n))
            flags = rng.random(20) < 0.7
            x = rng.uniform(0.2, 0.8, n)
            got = set(elliptical_nn_query(x, pts, flags, r, cfg, 0.0)[0])
            want = {
                i
                for i in range(20)
                if flags[i] and float(np.linalg.norm(pts[i] - x)) < r
            }
            if got != want:
                mismatches += 1
    ok = mismatches == 0
    report(
        capsys, 3,
        ok,
        f"zero-charge search equals isotropic radius search on 10^4 "
        f"2D/4D fixtures, mismatches {mismatches}",
    )


def test_criterion_04_brute_force_equivalence(capsys):
    cfg = NeighborConfig()
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(100):
        count = int(rng.integers(3, 51))
        pts = rng.uniform(0.0, 1.0, (count, 2))
        flags = rng.random(count) < 0.7
        x = rng.uniform(0.2, 0.8, 2)
        charge = float(rng.uniform(0.1, 1.9))
        batch = int(rng.integers(5, 60))
        r = rnn_radius(batch, 2, math.inf, 1.0)
        got = elliptical_nn_query(x, pts, flags, r, cfg, charge)[0]
        want = brute_elliptical_nn(
            tuple(x),
            [(tuple(p), bool(v)) for p, v in zip(pts, flags)],
            batch, 2, cfg, charge,
        )
        if sorted(got) != sorted(want):
            mismatches += 1
    ok = mismatches == 0
    report(
        capsys, 4,
        ok,
        f"elliptical search exactly equals plain-Python re-implementation "
        f"on 100 random 2D fixtures, mismatches {mismatches}",
    )


def test_criterion_05_schedule_pipeline_monotonicity(capsys):
    rng = np.random.default_rng(2024)
    violations = 0
    zeta_rewrites = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        cfg = BatchConfig()
        state = BatchState()
        c_min = float(rng.uniform(0.5, 1.5))
        length = int(rng.integers(2, 9))
        costs = np.sort(rng.uniform(c_min * 1.0001, c_min * 4.0, length))[::-1]
        last = None
        frozen = None
        for c in costs:
            b = adapt_batch_size(float(c), c_min, n, cfg, state)
            if not (cfg.m_min <= b <= cfg.m_max):
                violations += 1
            if last is not None and b > last:
                violations += 1
            if frozen is None:
                frozen = state.zeta_initial
            elif state.zeta_initial != frozen:
                zeta_rewrites += 1
            last = b
    ok = violations == 0 and zeta_rewrites == 0
    report(
        capsys, 5,
        ok,
        f"batch size non-increasing and in range over 10^3 improving "
        f"sequences ({violations} violations), initial measure written "
        f"once ({zeta_rewrites} rewrites)",
    )


def test_criterion_06_endpoint_contracts(capsys):
    batch_cfg = BatchConfig(m_min=1, m_max=199)
    charge_cfg = ChargeConfig()
    q_mid = vertex_charge(100, charge_cfg, batch_cfg)
    q_dense = vertex_charge(199, charge_cfg, batch_cfg)
    q_sparse = vertex_charge(1, charge_cfg, batch_cfg)
    b_top = math.floor(batch_cfg.m_min + 1.0 * (batch_cfg.m_max - batch_cfg.m_min))
    b_bot = math.floor(batch_cfg.m_min + 0.0 * (batch_cfg.m_max - batch_cfg.m_min))
    ok = (
        abs(q_mid - 1.0) < 1e-12
        and 0.10 <= q_dense <= 0.11
        and 1.89 <= q_sparse <= 1.90
        and b_top == 199
        and b_bot == 1
    )
    report(
        capsys, 6,
        ok,
        f"q(midpoint)={q_mid:.3f} (=1), q(m_max)={q_dense:.4f} "
        f"(in [0.10,0.11]), q(m_min)={q_sparse:.4f} (in [1.89,1.90]), "
        f"batch endpoints {b_bot}/{b_top} (=1/199)",
    )


@pytest.mark.slow
def test_criterion_07_planner_desk_scale(capsys):
    start = time.perf_counter()
    empty_run = plan_apt(
        make_problem(EMPTY), PlannerConfig(max_iterations=2, rng_seed=0)
    )
    empty_ok = empty_run.success and abs(empty_run.c_final - 0.9) <= 1e-6

    oracle = visibility_shortest_path(DW_GAP_OBS, (0.05, 0.5), (0.95, 0.5))
    gap_run = plan_apt(
        make_problem(DW_GAP), PlannerConfig(max_iterations=10, rng_seed=1)
    )
    gap_ok = gap_run.success and gap_run.c_final <= oracle * 1.01

    successes = 0
    for seed in range(100):
        run = plan_apt(
            make_problem(DW_GAP), PlannerConfig(max_time=1.0, rng_seed=seed)
        )
        successes += int(run.success)
    elapsed = time.perf_counter() - start
    ok = empty_ok and gap_ok and successes == 100 and elapsed < 300.0
    report(
        capsys, 7,
        ok,
        f"empty world cost {empty_run.c_final:.7f} (0.9 +- 1e-6), gap world "
        f"{gap_run.c_final:.4f} vs oracle {oracle:.4f} (within 1%), "
        f"{successes}/100 success at 1s budget, total {elapsed:.0f}s (<300s)",
    )


def test_criterion_08_anytime_and_determinism(capsys):
    planners = {
        "apt": (plan_apt, 6),
        "bit": (plan_batch_informed_trees, 6),
        "rrt_connect": (plan_rrt_connect, 500),
        "informed_rrt_star": (plan_informed_rrt_star, 800),
    }
    monotone_violations = 0
    replay_mismatches = 0
    for name, (fn, iters) in planners.items():
        for seed in range(5):
            cfg = PlannerConfig(max_iterations=iters, rng_seed=seed)
            r1 = fn(make_problem(DW_GAP), cfg)
            r2 = fn(make_problem(DW_GAP), cfg)
            costs = [c for _, c in r1.events]
            if not all(b < a for a, b in zip(costs, costs[1:])):
                monotone_violations += 1
            if r1.events != r2.events:
                replay_mismatches += 1
    ok = monotone_violations == 0 and replay_mismatches == 0
    report(
        capsys, 8,
        ok,
        f"strictly decreasing cost events ({monotone_violations} violations) "
        f"and bit-identical seeded replays ({replay_mismatches} mismatches) "
        f"across 4 planners x 5 seeds",
    )


@pytest.mark.slow
def test_criterion_09_ablation_trend(capsys):
    cfg = PlannerConfig(max_time=0.2)
    suites = {
        "dw-r4": dict(family="dividing_wall", dimension=4),
        "rr-r4": dict(
            family="random_rectangles", dimension=4,
            obstacle_count=60, width_range=(0.25, 0.45),
        ),
    }
    details = []
    ok = True
    for name, kw in suites.items():
        worlds = tuple(WorldSpec(seed=s, **kw) for s in range(10))
        suite = BenchmarkSuite(
            suite_id=name,
            worlds=worlds,
            planners=(("apt", cfg), ("bit", cfg)),
            trials=50,
        )
        records = run_benchmark(suite)
        stats = {}
        for pid in ("apt", "bit"):
            recs = [r for r in records if r["planner"] == pid]
            t_init = [r["t_init"] if r["success"] else math.inf for r in recs]
            c_final = [r["c_final"] if r["success"] else math.inf for r in recs]
            stats[pid] = {
                "t": lower_middle_median(t_init),
                "c": lower_middle_median(c_final),
                "s": sum(r["success"] for r in recs) / len(recs),
            }
        apt, bit = stats["apt"], stats["bit"]
        t_ok = apt["t"] <= bit["t"]
        c_ok = apt["c"] <= bit["c"] * 1.02
        s_ok = apt["s"] >= bit["s"]
        ok = ok and t_ok and c_ok and s_ok
        improvement = (
            (bit["t"] - apt["t"]) / bit["t"] * 100.0
            if math.isfinite(bit["t"]) and bit["t"] > 0
            else float("nan")
        )
        details.append(
            f"{name}: t_init {apt['t'] * 1e3:.2f}ms vs {bit['t'] * 1e3:.2f}ms, "
            f"measured improvement {improvement:+.1f}% (reference range "
            f"10.77-34.15%) [{'ok' if t_ok else 'VIOLATED'}]; c_final "
            f"{apt['c']:.4f} vs {bit['c']:.4f} (within +2%: "
            f"{'ok' if c_ok else 'VIOLATED'}); success {apt['s']:.2f} vs "
            f"{bit['s']:.2f} ({'ok' if s_ok else 'VIOLATED'})"
        )
    report(capsys, 9, ok, "adaptive planner vs fixed-batch isotropic ablation "
           "on 4D suites (10 worlds x 50 paired seeds) -- " + "; ".join(details))


def test_criterion_10_summary_order_statistics(capsys):
    def record(planner, seed, success, t_init, c_init, c_final):
        return {
            "suite": "t", "planner": planner, "world": "w", "seed": seed,
            "success": success,
            "t_init": t_init, "c_init": c_init,
            "t_final": t_init, "c_final": c_final,
            "counters": {}, "events": [],
        }

    mixed = [
        record("p", 0, True, 0.2, 1.5, 1.0),
        record("p", 1, True, 0.4, 2.5, 2.0),
        record("p", 2, True, 0.1, 3.5, 3.0),
        record("p", 3, False, math.inf, math.inf, math.inf),
    ]
    row = summarize(mixed)[0]
    mixed_ok = (
        row.t_init == (0.1, 0.2, math.inf)
        and row.c_final == (1.0, 2.0, math.inf)
        and row.success_rate == pytest.approx(0.75)
        and row.trials == 4
    )
    failures = [record("q", i, False, math.inf, math.inf, math.inf) for i in range(5)]
    frow = summarize(failures)[0]
    fail_ok = (
        frow.success_rate == 0.0
        and frow.t_init == (math.inf, math.inf, math.inf)
        and frow.c_init == (math.inf, math.inf, math.inf)
        and frow.c_final == (math.inf, math.inf, math.inf)
    )
    ok = mixed_ok and fail_ok
    report(
        capsys, 10,
        ok,
        f"hand-computed order statistics reproduced (mixed cell: {mixed_ok}, "
        f"all-failure row with success 0.00 and all-infinite stats: {fail_ok})",
    )
