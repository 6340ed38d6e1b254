"""One benchmark run: set-up, warm-up, measured passes, checks and report."""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy
import scipy

from aptstar.planner import PLANNERS, PlannerRun

from . import layers
from .checks import Checker, query_digest, workload_digest
from .probe import Speedometer, scale
from .workloads import (
    SEEDS_PER_WORLD,
    SETUP_REPEATS,
    WORKLOADS,
    Query,
    make_queries,
    rebuild,
    scan_worlds,
)

# (name, unit); every workload reports all of them with tracing off
END_TO_END = (
    ("wall_s", "s"),
    ("first_solution_s.p50", "s"),
    ("cost_ratio.mean", "1"),
    ("success_rate", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Outcome:
    """One planner call: its run, or the exception it raised, and its timing."""

    query: Query
    run: PlannerRun | None
    error: Exception | None
    seconds: float  # wall seconds
    probes: tuple[float, float]  # reference probe durations before and after the call

    @property
    def solved(self) -> bool:
        return self.run is not None and self.run.success

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * scale(*self.probes)

    @property
    def scaled_first_solution(self) -> float:
        # the first event comes early in the call, so only the probe before it counts
        return self.run.t_init * scale(self.probes[0])


def run_pass(planner_fn, workload, queries, speed, tracer=None) -> list[Outcome]:
    """Plan every query once, probing the machine's speed between queries."""
    configs = [q.config(workload) for q in queries]
    outcomes = []
    clock = time.perf_counter
    for query, config in zip(queries, configs):
        span = tracer.begin(layers.ROOT_SPAN) if tracer is not None else None
        t0 = clock()
        try:
            run, error = planner_fn(query.world.problem, config), None
        except Exception as exc:  # an error of this query; the run goes on
            run, error = None, exc
        finally:
            seconds = clock() - t0
            if tracer is not None:
                tracer.finish(span)
        outcomes.append(Outcome(query, run, error, seconds, speed.probes()))
    return outcomes


def pass_seconds(outcomes: list[Outcome]) -> tuple[float, float]:
    """Wall and scaled seconds the pass spent in the planner."""
    return (
        math.fsum(o.seconds for o in outcomes),
        math.fsum(o.scaled_seconds for o in outcomes),
    )


class Ledger:
    """Checks every planner output, counts errors and keeps each query's digest."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.errors: list[tuple[str, list[str]]] = []
        self.digests: dict[tuple[str, str], str] = {}
        self.mismatched: list[str] = []

    def record(self, planner: str, outcomes: list[Outcome]) -> str:
        """Check the outcomes of one pass; returns the pass's digest."""
        digests = []
        for out in outcomes:
            self.attempted += 1
            query = out.query
            name = f"{planner} {query.label}"
            if out.error is not None:
                digest = f"raised {type(out.error).__name__}: {out.error}"
                problems = [digest]
                print(f"error: {name}:", file=sys.stderr)
                traceback.print_exception(out.error, file=sys.stderr)
            else:
                digest = query_digest(query, out.run)
                problems = self.checker.check(query, out.run)
            if problems:
                self.errors.append((name, problems))
            if self.digests.setdefault((planner, query.label), digest) != digest:
                self.mismatched.append(name)
            digests.append(digest)
        return workload_digest(digests)

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.mismatched)


def git_commit(root) -> str | None:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "commit": git_commit(root),
        "jobs": 1,
    }


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def family(query) -> str:
    return query.world.label.rsplit("-", 1)[0]


class Bench:
    def __init__(self, root, args, oracles):
        self.root = root
        self.args = args
        self.oracles = oracles
        self.workload = WORKLOADS[args.workload]
        self.planner_fn = PLANNERS[self.workload.planner]
        self.tracer = layers.new_tracer() if args.trace else None
        self.ledger = Ledger(Checker(oracles))
        self.speed = Speedometer()
        self.pass_digests: list[str] = []

    def run(self) -> int:
        self.started = time.perf_counter()
        print("env: " + json.dumps(environment(self.root)))
        self.set_up()
        w = self.workload
        print(
            f"workload {w.name}: planner {w.planner}, {len(self.worlds)} worlds x "
            f"{SEEDS_PER_WORLD} planner seeds = {len(self.queries)} queries, budget "
            f"{w.budget} {w.budget_unit}, benchmark seed {self.args.seed}, jobs=1"
        )
        print(f"  worlds: {' '.join(world.label for world in self.worlds)}")
        print(f"  why: {w.why}")
        # warm-up pass: every world once, with its first planner seed
        warm = run_pass(self.planner_fn, w, [q for q in self.queries if q.first], self.speed)
        self.ledger.record(w.planner, warm)
        metrics = self.traced() if self.args.trace else self.timed()
        return self.finish(metrics)

    def set_up(self) -> None:
        """Build the world set SETUP_REPEATS times; the scan is the first build."""
        self.worlds, first = scan_worlds(self.oracles, self.speed)
        self.setup_times = [first]
        self.feasible = []
        for _ in range(SETUP_REPEATS - 1):
            if self.tracer is None:
                self.setup_times.append(rebuild(self.worlds, self.speed))
                continue
            self.tracer.clear()
            t0 = time.perf_counter()
            with self.tracer.installed():
                self.setup_times.append(rebuild(self.worlds, self.speed))
            wall = time.perf_counter() - t0
            calls, total, _ = self.tracer.totals().get("worlds.feasible", (0, 0.0, 0.0))
            # (calls, seconds scaled like the set-up, share of the set-up)
            self.feasible.append((calls, total * self.setup_times[-1] / wall, total / wall))
        self.queries = make_queries(self.worlds, self.args.seed)

    def measured_pass(self, tracer=None) -> list[Outcome]:
        return run_pass(self.planner_fn, self.workload, self.queries, self.speed, tracer)

    def timed(self) -> dict:
        """Passes over every query until ``--seconds`` is spent; end-to-end metrics.

        Times are scaled to the probe's reference speed (see ``probe.py``).
        ``wall_s`` is the median over passes of the pass's planner time;
        ``first_solution_s.p50`` the median over every planner call of its
        first event's timestamp.
        """
        passes = []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            outcomes = self.measured_pass()
            last = time.perf_counter() - t0
            passes.append(outcomes)
            self.pass_digests.append(self.ledger.record(self.workload.planner, outcomes))
            if time.perf_counter() - started + last > self.args.seconds:
                break
        walls = [pass_seconds(p) for p in passes]
        first = [o.scaled_first_solution for p in passes for o in p if o.solved]
        cost_ratios = [o.run.c_final / o.query.world.problem.c_min for o in passes[0] if o.solved]
        attempted = sum(len(p) for p in passes)
        metrics = {
            "wall_s": statistics.median(scaled for _, scaled in walls),
            "first_solution_s.p50": statistics.median(first),
            "cost_ratio.mean": statistics.fmean(cost_ratios),
            "success_rate": len(first) / attempted,
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        p90 = statistics.quantiles(first, n=10)[-1]
        notes = {
            "wall_s": f"median of {len(walls)} passes of {len(passes[0])} queries; scaled "
                      + ", ".join(f"{x:.4g}" for _, x in walls) + "; wall "
                      + ", ".join(f"{x:.4g}" for x, _ in walls),
            "first_solution_s.p50": f"n={len(first)}, p90 {p90:.4g} s",
            "cost_ratio.mean": f"c_final / c_min, {len(cost_ratios)} solved queries",
            "success_rate": f"{len(first)} of {attempted} planner calls solved",
            "setup_s": f"make_problem for every world, median of {len(self.setup_times)}",
            "peak_rss_mb": "peak resident memory of this process",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<21} {fmt(metrics[name]):>10} {unit:<4} {notes[name]}")
        return metrics

    def traced(self) -> dict:
        """One untraced and one traced pass; per-layer metrics and overhead.

        Times are scaled to the probe's reference speed, as in ``timed``.
        """
        tracer = self.tracer
        plain = self.measured_pass()
        self.pass_digests.append(self.ledger.record(self.workload.planner, plain))
        tracer.clear()
        with tracer.installed():
            outcomes = self.measured_pass(tracer)
        wall, on = pass_seconds(outcomes)
        metrics = layers.planning_metrics(
            tracer, [o.run for o in outcomes if o.run is not None], on / wall
        )
        shares = layers.shares(tracer)
        tracer.save(self._spans_path())
        self.pass_digests.append(self.ledger.record(self.workload.planner, outcomes))

        if "worlds.feasible" in tracer.absent:
            metrics["worlds.feasible.calls"] = metrics["worlds.feasible.s"] = None
        else:
            metrics["worlds.feasible.calls"] = statistics.median_low(c for c, _, _ in self.feasible)
            metrics["worlds.feasible.s"] = statistics.median(s for _, s, _ in self.feasible)
        off = pass_seconds(plain)[1]
        metrics["trace.overhead_s"] = on - off

        print(f"  traced pass {on:.4g} s, untraced pass {off:.4g} s (scaled)")
        for name, unit, _ in layers.PER_LAYER:
            print(f"  {name:<34} {fmt(metrics[name]):>12} {unit}")
        print("  share of planner time (a layer includes the layers it calls): "
              + ", ".join(f"{name} {share:.1%}" for name, share in shares.items()))
        self.predictions(metrics, shares)
        if self.workload.name == "apt":
            self.paired(plain)
        return metrics

    def _spans_path(self):
        out = self.root / ".perfbench-out"
        out.mkdir(exist_ok=True)
        return out / f"spans-{self.workload.name}.npz"

    def predictions(self, metrics: dict, shares: dict) -> None:
        """Print whether the traced split is the one the workload was chosen for."""
        name = self.workload.name
        if name == "apt" and shares:
            top = max(shares, key=shares.get)
            print(f"  prediction (apt): neighbors.query has the largest share: "
                  f"{'holds' if top == 'neighbors.query' else f'does not hold, {top} does'}")
        if name == "bit":
            holds = (metrics["geometry.frame.calls"] == 0
                     and metrics["neighbors.shrink_rounds_per_query"] == 1)
            print(f"  prediction (bit): no frames and one shrink round per query: "
                  f"{'holds' if holds else 'does not hold'}")
        if name == "irrt":
            holds = metrics["neighbors.query.calls"] == 0
            print(f"  prediction (irrt): no neighbor queries: "
                  f"{'holds' if holds else 'does not hold'}")
        if metrics["worlds.feasible.s"] is not None:
            share = statistics.median(share for _, _, share in self.feasible)
            print(f"  prediction: is_feasible is most of set-up: {share:.1%} of the traced "
                  f"set-up, {'holds' if share > 0.5 else 'does not hold'}")

    def paired(self, apt_outcomes: list[Outcome]) -> None:
        """Collision checks of apt beside bit on identical queries (bit shares apt's budget)."""
        bit = WORKLOADS["bit"]
        bit_outcomes = run_pass(PLANNERS[bit.planner], bit, self.queries, self.speed)
        self.ledger.record(bit.planner, bit_outcomes)
        totals: dict[str, list[int]] = {}
        for apt_out, bit_out in zip(apt_outcomes, bit_outcomes):
            row = totals.setdefault(family(apt_out.query), [0, 0])
            for i, out in enumerate((apt_out, bit_out)):
                row[i] += out.run.counters["collision_checks"] if out.run else 0
        totals["all"] = [sum(r[0] for r in totals.values()), sum(r[1] for r in totals.values())]
        print("  paired planner.collision_checks, apt vs bit on identical queries: "
              + "; ".join(f"{k} {a} vs {b} ({a / b:.2f}x)" for k, (a, b) in totals.items()))

    def finish(self, metrics: dict) -> int:
        ledger = self.ledger
        print(f"  error_rate: {ledger.failed / ledger.attempted:.6g} "
              f"({ledger.failed} of {ledger.attempted} planner calls raised or failed a check)")
        for name, problems in ledger.errors[:20]:
            print(f"error: {name}: {'; '.join(problems)}", file=sys.stderr)
        if ledger.mismatched:
            print(f"error: event costs or counters differ between passes: "
                  f"{', '.join(ledger.mismatched[:10])}", file=sys.stderr)
        same = len(set(self.pass_digests)) == 1
        print(f"digest {self.workload.name}: {self.pass_digests[0]} "
              f"({len(self.pass_digests)} passes, {'identical' if same else 'DIFFERENT'})")
        print(f"  run took {time.perf_counter() - self.started:.1f} s")

        units = dict(layers.UNITS) if self.args.trace else dict(END_TO_END)
        declared = self.declared_units()
        if declared is not None and declared != units:
            print("error: the metrics of this run differ from those BENCHMARK.json declares",
                  file=sys.stderr)
            return 2
        correct = ledger.failed == 0 and same
        print(json.dumps({
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0 if correct else 1

    def declared_units(self) -> dict[str, str] | None:
        path = self.root / "BENCHMARK.json"
        if not path.is_file():
            return None
        spec = json.loads(path.read_text())
        key = "per_layer" if self.args.trace else "end_to_end"
        return {m["name"]: m["unit"] for m in spec[key]}
