"""Command-line interface: worldgen, plan, bench, summarize.

Exit codes: 0 success, 1 infeasible or failed plan, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .adaptive import BatchConfig, ChargeConfig
from .bench import BenchmarkSuite, read_results, run_benchmark, run_record, summarize
from .geometry import ProblemInstance, load_world, save_world
from .neighbors import NeighborConfig
from .planner import PLANNERS, PlannerConfig
from .worlds import WorldSpec, canonical_start_goal, make_world


def _unflatten(data: dict) -> dict:
    """Allow dotted keys like charge.schedule alongside nested dicts."""
    out: dict = {}
    for key, value in data.items():
        parts = key.split(".")
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        if isinstance(value, dict):
            node.setdefault(parts[-1], {}).update(value)
        else:
            node[parts[-1]] = value
    return out


def planner_config_from_dict(data: dict) -> PlannerConfig:
    data = _unflatten(dict(data))
    kwargs = {}
    if "neighbor" in data:
        kwargs["neighbor"] = NeighborConfig(**data.pop("neighbor"))
    if "batch" in data:
        kwargs["batch"] = BatchConfig(**data.pop("batch"))
    if "charge" in data:
        kwargs["charge"] = ChargeConfig(**data.pop("charge"))
    kwargs.update(data)
    return PlannerConfig(**kwargs)


def world_spec_from_dict(data: dict) -> WorldSpec:
    data = dict(data)
    if "width_range" in data:
        data["width_range"] = tuple(data["width_range"])
    return WorldSpec(**data)


def load_suite(path) -> BenchmarkSuite:
    with open(path) as fh:
        data = json.load(fh)
    worlds = tuple(world_spec_from_dict(w) for w in data["worlds"])
    planners = tuple(
        (p["id"], planner_config_from_dict(p.get("config", {})))
        for p in data["planners"]
    )
    return BenchmarkSuite(
        suite_id=data.get("suite", Path(path).stem),
        worlds=worlds,
        planners=planners,
        trials=data.get("trials", 100),
        seed_base=data.get("seed_base", 0),
    )


def _cmd_worldgen(args) -> int:
    family = {"dw": "dividing_wall", "rr": "random_rectangles"}.get(
        args.family, args.family
    )
    spec = WorldSpec(
        family=family,
        dimension=args.dim,
        seed=args.seed,
        gap_count=args.gap_count,
        gap_width=args.gap_width,
        wall_thickness=args.wall_thickness,
        obstacle_count=args.obstacle_count,
        width_range=(args.width_min, args.width_max),
    )
    world = make_world(spec)
    if args.out:
        save_world(world, args.out)
    else:
        from .geometry import world_to_dict

        json.dump(world_to_dict(world), sys.stdout, indent=2)
        print()
    return 0


def _parse_state(text: str):
    return [float(v) for v in text.split(",")]


def _cmd_plan(args) -> int:
    world = load_world(args.world)
    n = world.dimension
    start, goal = canonical_start_goal(n)
    if args.start:
        start = _parse_state(args.start)
    if args.goal:
        goal = _parse_state(args.goal)
    cfg_data = {}
    if args.config:
        with open(args.config) as fh:
            cfg_data = json.load(fh)
    if args.max_time is not None:
        cfg_data["max_time"] = args.max_time
    if args.max_iters is not None:
        cfg_data["max_iterations"] = args.max_iters
    cfg_data["rng_seed"] = args.seed
    config = planner_config_from_dict(cfg_data)
    problem = ProblemInstance(world, start, (goal,))
    run = PLANNERS[args.planner](problem, config)
    record = run_record("cli", args.planner, str(args.world), args.seed, run)
    if run.path is not None:
        record["path"] = [list(map(float, p)) for p in run.path]
    text = json.dumps(record, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0 if run.success else 1


def _cmd_bench(args) -> int:
    suite = load_suite(args.suite)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{suite.suite_id}.results.jsonl"
    with open(out_path, "w") as fh:
        run_benchmark(suite, out=fh, jobs=args.jobs)
    print(f"wrote {out_path}")
    return 0


def _fmt(v: float) -> str:
    return "inf" if math.isinf(v) else f"{v:.4f}"


def _cmd_summarize(args) -> int:
    in_path = Path(args.inp)
    files = [in_path] if in_path.is_file() else sorted(in_path.glob("*.results.jsonl"))
    if not files:
        print("no results files found", file=sys.stderr)
        return 2
    records = [r for f in files for r in read_results(f)]
    rows = summarize(records)
    header = (
        f"{'planner':<18} {'world':<28} "
        f"{'t_init min/med/max':<26} {'c_init min/med/max':<26} "
        f"{'c_final min/med/max':<26} {'success':>7} {'errors':>6}"
    )
    print(header)
    for row in rows:
        print(
            f"{row.planner:<18} {row.world:<28} "
            f"{'/'.join(_fmt(v) for v in row.t_init):<26} "
            f"{'/'.join(_fmt(v) for v in row.c_init):<26} "
            f"{'/'.join(_fmt(v) for v in row.c_final):<26} "
            f"{row.success_rate:>7.2f} {row.errors:>6d}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aptstar")
    sub = parser.add_subparsers(dest="command", required=True)

    wg = sub.add_parser("worldgen", help="generate a benchmark world file")
    wg.add_argument("--family", required=True, choices=["dw", "rr", "empty"])
    wg.add_argument("--dim", type=int, required=True)
    wg.add_argument("--seed", type=int, default=0)
    wg.add_argument("--gap-count", type=int, default=2)
    wg.add_argument("--gap-width", type=float, default=0.1)
    wg.add_argument("--wall-thickness", type=float, default=0.1)
    wg.add_argument("--obstacle-count", type=int, default=10)
    wg.add_argument("--width-min", type=float, default=0.1)
    wg.add_argument("--width-max", type=float, default=0.4)
    wg.add_argument("--out")
    wg.set_defaults(func=_cmd_worldgen)

    pl = sub.add_parser("plan", help="solve one problem with one planner")
    pl.add_argument("--world", required=True)
    pl.add_argument("--planner", required=True, choices=sorted(PLANNERS))
    pl.add_argument("--config")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--max-time", type=float)
    pl.add_argument("--max-iters", type=int)
    pl.add_argument("--start", help="comma-separated coordinates")
    pl.add_argument("--goal", help="comma-separated coordinates")
    pl.add_argument("--out")
    pl.set_defaults(func=_cmd_plan)

    be = sub.add_parser("bench", help="run a benchmark suite")
    be.add_argument("--suite", required=True)
    be.add_argument("--out", required=True)
    be.add_argument("--jobs", type=int, default=1)
    be.set_defaults(func=_cmd_bench)

    su = sub.add_parser("summarize", help="aggregate results files")
    su.add_argument("--in", dest="inp", required=True)
    su.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
