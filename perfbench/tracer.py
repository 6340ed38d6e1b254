"""In-memory span tracer that times a program's layers from outside.

A wrapped name is replaced, in the module that looks it up, by a function
that records a span (name, start, end, parent span) around the original call
and returns the original result unchanged. Spans stay in flat arrays until
the run ends. A span's self time is its duration minus the time its direct
children took. A name that no longer exists is reported absent, with a
warning, instead of failing the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

_perf_counter = time.perf_counter
# what reading a refactored function's arguments or result can raise
_READ_ERRORS = (TypeError, KeyError, IndexError, AttributeError, ValueError)


@dataclass(frozen=True)
class Wrap:
    """One name to time: ``module.attr`` recorded as spans called ``span``.

    ``observe(tracer, args, kwargs, result, token)`` runs after each call to
    record values derived from it; ``prepare(args, kwargs)`` runs before the
    call and returns the ``token`` that ``observe`` receives.
    """

    module: str
    attr: str
    span: str
    observe: Callable | None = None
    prepare: Callable | None = None


class Tracer:
    def __init__(self, wraps: tuple[Wrap, ...]):
        self.wraps = wraps
        self.absent: set[str] = set()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        """Drop every span and observation recorded so far."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.values: dict[str, list[float]] = {}
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(_perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        t = _perf_counter()
        self.end[idx] = t
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def observe(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(float(value))

    # -- installation ----------------------------------------------------

    def _wrapper(self, spec: Wrap, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original, updated=())
        def traced(*args, **kwargs):
            token = None
            if spec.prepare is not None:
                try:
                    token = spec.prepare(args, kwargs)
                except _READ_ERRORS as exc:
                    tracer._lose(spec, f"cannot read its arguments ({exc!r})")
            idx = tracer.begin(spec.span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if spec.observe is not None:
                try:
                    spec.observe(tracer, args, kwargs, result, token)
                except _READ_ERRORS as exc:
                    tracer._lose(spec, f"cannot read its arguments or result ({exc!r})")
            return result

        return traced

    def _lose(self, spec: Wrap, why: str) -> None:
        key = f"{spec.span}:observe"
        if key not in self.absent:
            self.absent.add(key)
            print(f"warning: {spec.module}.{spec.attr}: {why}", file=sys.stderr)

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped name for the duration of the block."""
        patches = []
        for spec in self.wraps:
            try:
                module = importlib.import_module(spec.module)
            except ImportError:
                module = None
            original = getattr(module, spec.attr, None)
            if original is None:
                if spec.span not in self.absent:
                    self.absent.add(spec.span)
                    print(
                        f"warning: {spec.module}.{spec.attr} not found; "
                        f"its '{spec.span}' metrics are reported absent",
                        file=sys.stderr,
                    )
                continue
            setattr(module, spec.attr, self._wrapper(spec, original))
            patches.append((module, spec.attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur - np.frombuffer(self.child)
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
        return out

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names, name ids, parents, times)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
