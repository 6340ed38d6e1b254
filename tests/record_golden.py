"""Print the ``GOLDEN_RUNS`` literal of ``tests/test_planner.py`` from the
current code.

A change that alters seeded runs on purpose re-records the golden event logs
with this script and puts its output in place of the ``GOLDEN_RUNS = {...}``
block::

    python tests/record_golden.py > golden.txt

Each key of the current ``GOLDEN_RUNS`` is run again, in the same order,
with its problem and budget from ``GOLDEN_PROBLEMS`` and ``GOLDEN_BUDGETS``.
Floats are printed with ``repr``, which round-trips exactly.
``FIRST_SOLUTION_EVENTS`` is not printed: it pins the events up to each
run's first solution, which a change to the informed sampler leaves as they
are, so a change to it has to be made, and explained, by hand.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from aptstar.planner import PLANNERS, PlannerConfig  # noqa: E402
from test_planner import GOLDEN_BUDGETS, GOLDEN_PROBLEMS, GOLDEN_RUNS  # noqa: E402

# black's line length: a counters dict that fits on one line is printed on one
LINE = 88


def py(value) -> str:
    """A literal in the file's style: strings in double quotes."""
    return json.dumps(value) if isinstance(value, str) else repr(value)


def literal(runs) -> str:
    lines = ["GOLDEN_RUNS = {"]
    for key, (events, counters) in runs.items():
        lines.append(f"    ({', '.join(map(py, key))}): (")
        if events:
            lines.append("        [")
            lines += [f"            ({t!r}, {c!r})," for t, c in events]
            lines.append("        ],")
        else:
            lines.append("        [],")
        items = [f"{py(k)}: {py(v)}" for k, v in counters.items()]
        one_line = f"        {{{', '.join(items)}}},"
        if len(one_line) <= LINE:
            lines.append(one_line)
        else:
            lines.append("        {")
            lines += [f"            {item}," for item in items]
            lines.append("        },")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines)


def record() -> dict:
    runs = {}
    for world, planner, seed in GOLDEN_RUNS:
        run = PLANNERS[planner](
            GOLDEN_PROBLEMS[world],
            PlannerConfig(max_iterations=GOLDEN_BUDGETS[planner], rng_seed=seed),
        )
        runs[world, planner, seed] = (run.events, run.counters)
    return runs


if __name__ == "__main__":
    print(literal(record()))
