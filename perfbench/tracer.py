"""Outside-in span tracing for the benchmark's traced runs.

The benchmark never edits the program: it replaces module attributes that
the pipeline looks up at call time (``repro.core.partitioner.
optimize_parallelepiped`` and friends) with timing wrappers, records one
span per call, and puts the originals back when the run ends, so an
untraced run never executes a wrapper.

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
written out as JSON lines once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass

#: ``(module, attribute, span name)`` — each wrap point is the name the
#: calling module resolves at call time, so replacing it there is enough.
WRAP_POINTS = (
    ("repro.lang", "parse_program", "lang.parse"),
    ("repro.lang", "lower_nest", "lang.lower"),
    ("repro.core.partitioner", "partition_references", "core.classify"),
    ("repro.core.partitioner", "optimize_rectangular", "core.optimize.rectangular"),
    ("repro.core.partitioner", "optimize_parallelepiped", "core.optimize.parallelepiped"),
    ("repro.core.optimize", "cumulative_footprint_size", "core.cumulative"),
    ("repro.core.partitioner", "estimate_traffic", "core.cost.estimate"),
    ("repro.sim", "simulate_nest", "sim"),
    ("repro.sim.executor", "assign_tiles_to_processors", "sim.trace.assign"),
    ("repro.sim.executor", "reference_streams", "sim.trace.streams"),
    ("repro.sim.executor", "collect_footprints", "sim.trace.footprints"),
    ("repro.sim.executor", "execute_fast", "sim.execute"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped calls; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)  # reserve the slot; filled on exit
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = Span(name, start, end, parent)

        return traced

    # -- install / remove -----------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("wrappers already installed")
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- analysis -------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``duration`` and ``self`` time.

        Self time is a span's duration minus the part of it that its
        child spans cover (their interval union, so overlapping children
        are not subtracted twice).
        """
        spans = self.spans
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s is not None and s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(spans):
            if s is None:
                continue
            covered = _union_length(
                [(c.start, c.end) for c in children.get(i, ())], s.start, s.end
            )
            agg = out.setdefault(s.name, {"calls": 0, "duration": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["duration"] += s.duration
            agg["self"] += s.duration - covered
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        t0 = min((s.start for s in self.spans if s is not None), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start_s": s.start - t0,
                    "end_s": s.end - t0,
                    "parent": s.parent,
                }) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
