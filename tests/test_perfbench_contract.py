"""The benchmark harness's contract with the program, one query per workload.

``perfbench/run.py`` wraps names that the program's modules import (see
``perfbench/layers.py``), reads ``PlannerRun`` fields, and prints its JSON
result as the last line of standard output. A renamed name, a changed field
or a stray print breaks that result. Each workload here plans one benchmark
query the way a traced pass does; a short untraced ``bit`` run and a full
traced ``apt`` run go through ``run.py`` end to end.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import oracles  # noqa: E402
from perfbench import layers  # noqa: E402
from perfbench.bench import run_pass  # noqa: E402
from perfbench.checks import Checker, query_digest  # noqa: E402
from perfbench.probe import Speedometer  # noqa: E402
from perfbench.workloads import WORKLOADS, make_queries, scan_worlds  # noqa: E402

from aptstar.planner import PLANNERS  # noqa: E402


@pytest.fixture(scope="module")
def setup():
    speed = Speedometer()
    worlds, _ = scan_worlds(oracles, speed)
    return make_queries(worlds, 21), speed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_query_keeps_the_contract(name, setup, capsys):
    queries, speed = setup
    workload = WORKLOADS[name]
    query = queries[0]
    tracer = layers.new_tracer()
    capsys.readouterr()
    with tracer.installed():
        (outcome,) = run_pass(PLANNERS[workload.planner], workload, [query], speed, tracer)
    assert capsys.readouterr().out == ""
    assert outcome.error is None
    assert tracer.absent == set()
    metrics = layers.planning_metrics(tracer, [outcome.run], 1.0)
    assert [key for key, value in metrics.items() if value is None] == []
    assert Checker(oracles).check(query, outcome.run) == []
    assert len(query_digest(query, outcome.run)) == 64


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def benchmark_result(*args: str) -> dict:
    """Run perfbench/run.py and parse the last line of its output as strict
    JSON: json.dumps writes NaN and Infinity, which no JSON reader accepts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.slow
def test_benchmark_run_ends_with_its_json_result():
    result = benchmark_result("--workload", "bit", "--seed", "21", "--seconds", "1", "--trace", "0")
    assert [k for k, m in result["metrics"].items() if m["value"] is None] == []
    # a traced run plans every query with every layer wrapped, so a wrapped
    # name whose call shape changes on some query shows as a null metric here
    result = benchmark_result("--workload", "apt", "--seed", "21", "--trace", "1")
    metrics = result["metrics"]
    assert set(layers.UNITS) <= set(metrics)
    assert [
        k for k, m in metrics.items()
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
    ] == []
