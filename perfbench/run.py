"""Planner benchmark: runs one workload and prints its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload apt --seed 1 --seconds 25 --trace 0

Workloads are ``apt``, ``bit`` and ``irrt`` (see ``workloads.py``). Each is
one process, one planner call at a time, no pool (jobs = 1). With
``--trace 0`` the run prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it runs one untraced and one traced pass and prints
the per-layer metrics (see ``layers.py``) with the tracing overhead. Every
output is checked against the independent oracles in ``tests/oracles.py``,
and a determinism digest of every query's event costs and work counters
must agree across passes. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_program():
    """Put the checkout's ``aptstar`` on the path and load its test oracles."""
    package = ROOT / "src" / "aptstar" / "__init__.py"
    oracle_file = ROOT / "tests" / "oracles.py"
    missing = [str(p.relative_to(ROOT)) for p in (package, oracle_file) if not p.is_file()]
    if missing:
        raise SystemExit(
            f"error: {', '.join(missing)} not found under {ROOT}; "
            "run the benchmark from the root of a full checkout"
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = importlib.util.spec_from_file_location("perfbench_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("apt", "bit", "irrt"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    oracles = load_program()
    from perfbench.bench import Bench

    return Bench(ROOT, args, oracles).run()


if __name__ == "__main__":
    sys.exit(main())
