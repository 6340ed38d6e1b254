"""Benchmark harness: planner x world x seed grids and their summaries.

Results are written as an append-only JSONL stream: one self-describing
header line, then one record per run. Failed runs carry infinite time and
cost and contribute those infinities to the order statistics; a run that
raised also carries the exception as ``error``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Iterable, Sequence

from .planner import PLANNERS, PlannerConfig, PlannerRun
from .worlds import WorldSpec, make_problem

RESULTS_FORMAT = "aptstar-bench-results"
RESULTS_VERSION = 1


@dataclass(frozen=True)
class BenchmarkSuite:
    suite_id: str
    worlds: tuple[WorldSpec, ...]
    planners: tuple[tuple[str, PlannerConfig], ...]
    trials: int = 100
    seed_base: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        for pid, _ in self.planners:
            if pid not in PLANNERS:
                raise ValueError(f"unknown planner id {pid!r}")


@dataclass(frozen=True)
class SummaryRow:
    planner: str
    world: str
    t_init: tuple[float, float, float]
    c_init: tuple[float, float, float]
    c_final: tuple[float, float, float]
    success_rate: float
    trials: int
    errors: int  # failed runs that raised, as opposed to finding no solution


def run_record(
    suite_id: str, planner_id: str, world_id: str, seed: int, run: PlannerRun
) -> dict:
    return {
        "suite": suite_id,
        "planner": planner_id,
        "world": world_id,
        "seed": seed,
        "success": run.success,
        "t_init": run.t_init,
        "c_init": run.c_init,
        "t_final": run.t_final,
        "c_final": run.c_final,
        "counters": run.counters,
        "events": [[t, c] for t, c in run.events],
    }


def _run_one(task: tuple[str, WorldSpec, str, PlannerConfig, int]) -> dict:
    suite_id, spec, planner_id, config, seed = task
    try:
        problem = make_problem(spec)
        run = PLANNERS[planner_id](problem, config)
    except Exception as exc:
        failed = PlannerRun(planner=planner_id)
        record = run_record(suite_id, planner_id, spec.world_id, seed, failed)
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    return run_record(suite_id, planner_id, spec.world_id, seed, run)


def run_benchmark(suite: BenchmarkSuite, out=None, jobs: int = 1) -> list[dict]:
    """Execute every (planner, world, trial) cell, streaming records to out.

    Trial t of any cell uses seed seed_base + t, identical across planners
    for paired comparison. A run that raises is recorded as a failure with
    its exception type and message under ``error``, and the suite continues.
    Records are appended to the (file-like) out incrementally so a crash
    loses at most the in-flight runs. With jobs > 1 trials execute in a
    process pool; the concurrency level is recorded in the header because it
    perturbs wall-clock comparability.
    """
    records: list[dict] = []

    def emit(obj: dict) -> None:
        records.append(obj)
        if out is not None:
            out.write(json.dumps(obj) + "\n")
            out.flush()

    if out is not None:
        out.write(
            json.dumps(
                {
                    "format": RESULTS_FORMAT,
                    "version": RESULTS_VERSION,
                    "suite": suite.suite_id,
                    "jobs": jobs,
                }
            )
            + "\n"
        )
        out.flush()

    tasks = [
        (suite.suite_id, spec, planner_id, _with_seed(cfg, suite.seed_base + trial),
         suite.seed_base + trial)
        for spec in suite.worlds
        for planner_id, cfg in suite.planners
        for trial in range(suite.trials)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for rec in pool.map(_run_one, tasks):
                emit(rec)
    else:
        for task in tasks:
            emit(_run_one(task))
    return records


def _with_seed(config: PlannerConfig, seed: int) -> PlannerConfig:
    from dataclasses import replace

    return replace(config, rng_seed=seed)


def read_results(path) -> list[dict]:
    records = []
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format") != RESULTS_FORMAT:
            raise ValueError("not a results file")
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _order_stats(values: Sequence[float]) -> tuple[float, float, float]:
    """(min, med, max) with the lower-middle median convention."""
    vals = sorted(values)
    if not vals:
        raise ValueError("empty cell")
    return (vals[0], vals[(len(vals) - 1) // 2], vals[-1])


def summarize(records: Iterable[dict]) -> list[SummaryRow]:
    """Per (planner, world) order statistics with the infinity convention.

    ``errors`` counts the runs that raised, apart from the runs that ended
    without a solution.
    """
    cells: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        cells.setdefault((rec["planner"], rec["world"]), []).append(rec)
    rows = []
    for (planner, world), recs in sorted(cells.items()):
        t_init = [r["t_init"] if r["success"] else math.inf for r in recs]
        c_init = [r["c_init"] if r["success"] else math.inf for r in recs]
        c_final = [r["c_final"] if r["success"] else math.inf for r in recs]
        successes = sum(1 for r in recs if r["success"])
        errors = sum(1 for r in recs if r.get("error"))
        rows.append(
            SummaryRow(
                planner=planner,
                world=world,
                t_init=_order_stats(t_init),
                c_init=_order_stats(c_init),
                c_final=_order_stats(c_final),
                success_rate=successes / len(recs),
                trials=len(recs),
                errors=errors,
            )
        )
    return rows
