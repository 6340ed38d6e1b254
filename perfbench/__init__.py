"""Planner benchmark: workloads, output checks and an outside-in layer tracer."""
