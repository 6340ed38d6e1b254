"""A reference probe that scales measured times to one fixed machine speed.

On a shared host the speed available to one process can change by a large
factor from one second to the next, as other tenants come and go; a pass of
the same queries then reads 20% apart a few minutes later. So every timed
interval is bracketed by a fixed probe computation (Python float arithmetic
and small numpy reductions, the mix the planner runs), and scaled by
``REFERENCE_S`` over the mean of the two probe times. The result is the
interval's duration on a machine on which the probe takes ``REFERENCE_S``.
The probe is the benchmark's own code, so a change to the program moves the
scaled times as much as it moves the raw ones.
"""
from __future__ import annotations

import time

import numpy as np

# probe duration that scaled seconds refer to; about the probe's duration on
# a 2-core x86-64 VM (Python 3.11, numpy 2.4) when no other tenant is busy
REFERENCE_S = 4e-4

_POINTS = np.random.default_rng(0).random((64, 4))


def probe() -> float:
    """Seconds that one fixed unit of reference work takes right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += (i * 0.5) ** 0.5
    for i in range(32):
        d = _POINTS - _POINTS[i]
        np.sqrt(np.einsum("ij,ij->i", d, d))
    return time.perf_counter() - t0


class Speedometer:
    """Probes between timed intervals; each probe serves the interval on either side."""

    def __init__(self):
        self._last = probe()

    def probes(self) -> tuple[float, float]:
        """Durations of the probes right before and right after the interval that just ended."""
        before, self._last = self._last, probe()
        return before, self._last


def scale(before: float, after: float | None = None) -> float:
    """Factor that scales an interval between two probes to the reference speed.

    With only ``before``, the factor for an interval that starts right after
    that probe and is short next to the time between probes.
    """
    return REFERENCE_S / (before if after is None else (before + after) / 2.0)
