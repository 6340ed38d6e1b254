import io
import json
import math

import pytest

from aptstar.bench import (
    BenchmarkSuite,
    read_results,
    run_benchmark,
    summarize,
)
from aptstar.planner import PlannerConfig, PlannerRun
from aptstar.worlds import WorldSpec


def empty_suite(trials=3, planners=None):
    cfg = PlannerConfig(max_iterations=1)
    return BenchmarkSuite(
        suite_id="t",
        worlds=(WorldSpec("empty", 2),),
        planners=tuple((p, cfg) for p in (planners or ["apt"])),
        trials=trials,
    )


def record(planner="apt", world="w", seed=0, success=True, c_init=2.0, c_final=1.0,
           t_init=0.1, t_final=0.5, events=None):
    if events is None:
        events = [[t_init, c_init], [t_final, c_final]] if success else []
    return {
        "suite": "t",
        "planner": planner,
        "world": world,
        "seed": seed,
        "success": success,
        "t_init": t_init if success else math.inf,
        "c_init": c_init if success else math.inf,
        "t_final": t_final if success else math.inf,
        "c_final": c_final if success else math.inf,
        "counters": {},
        "events": events,
    }


class TestRunBenchmark:
    def test_trivial_suite(self):
        records = run_benchmark(empty_suite())
        assert len(records) == 3
        assert all(r["success"] for r in records)
        assert [r["seed"] for r in records] == [0, 1, 2]

    def test_rerun_identical(self):
        out1, out2 = io.StringIO(), io.StringIO()
        run_benchmark(empty_suite(), out=out1)
        run_benchmark(empty_suite(), out=out2)
        assert out1.getvalue() == out2.getvalue()

    def test_header_and_readback(self, tmp_path):
        path = tmp_path / "r.results.jsonl"
        with open(path, "w") as fh:
            run_benchmark(empty_suite(), out=fh, jobs=1)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["format"] == "aptstar-bench-results"
        assert first["jobs"] == 1
        records = read_results(path)
        assert len(records) == 3

    def test_paired_seeds_across_planners(self):
        records = run_benchmark(empty_suite(trials=2, planners=["apt", "bit"]))
        by_planner = {}
        for r in records:
            by_planner.setdefault(r["planner"], []).append(r["seed"])
        assert by_planner["apt"] == by_planner["bit"]

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            empty_suite(planners=["warp_drive"])

    def test_parallel_jobs_match_serial(self):
        serial = run_benchmark(empty_suite())
        parallel = run_benchmark(empty_suite(), jobs=2)
        assert serial == parallel

    def test_crashing_run_recorded_as_failure(self, monkeypatch):
        import aptstar.bench as bench

        def boom(problem, config):
            raise RuntimeError("planner exploded")

        monkeypatch.setitem(bench.PLANNERS, "apt", boom)
        records = run_benchmark(empty_suite(trials=2))
        assert len(records) == 2
        assert all(not r["success"] for r in records)
        assert all(r["error"] == "RuntimeError: planner exploded" for r in records)
        row = summarize(records)[0]
        assert row.errors == 2
        assert row.success_rate == 0.0

    def test_unsolved_run_is_not_an_error(self, monkeypatch):
        import aptstar.bench as bench

        def unsolved(problem, config):
            return PlannerRun(planner="apt")

        monkeypatch.setitem(bench.PLANNERS, "apt", unsolved)
        records = run_benchmark(empty_suite(trials=2))
        assert all("error" not in r and not r["success"] for r in records)
        row = summarize(records)[0]
        assert row.errors == 0
        assert row.success_rate == 0.0


class TestSummarize:
    def test_hand_computed_order_stats(self):
        records = [
            record(seed=0, c_final=1.0, c_init=1.5),
            record(seed=1, c_final=2.0, c_init=2.5),
            record(seed=2, success=False),
        ]
        row = summarize(records)[0]
        assert row.c_final == (1.0, 2.0, math.inf)
        assert row.success_rate == pytest.approx(2.0 / 3.0)
        assert row.trials == 3

    def test_all_failures(self):
        records = [record(seed=i, success=False) for i in range(4)]
        row = summarize(records)[0]
        assert row.success_rate == 0.0
        assert row.c_final == (math.inf, math.inf, math.inf)
        assert row.t_init == (math.inf, math.inf, math.inf)

    def test_single_run(self):
        row = summarize([record(c_final=1.3)])[0]
        assert row.c_final == (1.3, 1.3, 1.3)

    def test_permutation_invariance(self):
        records = [record(seed=i, c_final=1.0 + i * 0.1) for i in range(7)]
        fwd = summarize(records)
        rev = summarize(list(reversed(records)))
        assert fwd == rev

    def test_lower_middle_median(self):
        records = [record(seed=i, c_final=c) for i, c in enumerate([1.0, 2.0, 3.0, 4.0])]
        row = summarize(records)[0]
        assert row.c_final[1] == 2.0

    def test_success_rate_times_trials_integer(self):
        records = [record(seed=i, success=i % 3 != 0) for i in range(9)]
        row = summarize(records)[0]
        assert row.success_rate * row.trials == pytest.approx(
            round(row.success_rate * row.trials)
        )

    def test_cfinal_never_exceeds_cinit(self):
        records = run_benchmark(empty_suite())
        for r in records:
            if r["success"]:
                assert r["c_final"] <= r["c_init"]

    def test_no_records_no_rows(self):
        assert summarize([]) == []
