"""What importing and running the package loads.

The planners run on numpy alone. ``aptstar.planner`` resolves the name
``cKDTree`` only on demand (for ``perfbench/layers.py``'s
``planner.kd_build`` wrap), so importing the package, the CLI, or planning
with any registered planner must load no ``scipy`` module.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import spatial

import aptstar.planner

SRC = Path(__file__).resolve().parent.parent / "src"

PLAN_EVERY_PLANNER = """
import sys
import aptstar, aptstar.cli
from aptstar.planner import PLANNERS, PlannerConfig
from aptstar.worlds import WorldSpec, make_problem

problem = make_problem(WorldSpec("dividing_wall", 4, seed=0))
budgets = {"apt": 2, "bit": 2, "informed_rrt_star": 200, "rrt_connect": 200}
assert sorted(budgets) == sorted(PLANNERS)
for name, planner in sorted(PLANNERS.items()):
    planner(problem, PlannerConfig(max_iterations=budgets[name], rng_seed=1))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_importing_and_planning_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", PLAN_EVERY_PLANNER],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_ckdtree_resolves_on_demand():
    assert aptstar.planner.cKDTree is spatial.cKDTree


def test_other_missing_names_raise_attribute_error():
    assert getattr(aptstar.planner, "no_such_name", None) is None
    with pytest.raises(AttributeError, match="'aptstar.planner' has no attribute 'no_such_name'"):
        aptstar.planner.no_such_name  # noqa: B018
