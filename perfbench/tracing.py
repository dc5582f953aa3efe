"""In-memory spans and counters recorded by the benchmark around calls into
singflow's public functions.

Spans live in a list until the run ends and are then written out as JSON
lines.  A span named after a per-layer metric (``barriers.verify_ms.1e4``)
feeds that metric: its value is the median span duration, in the unit the
name carries (``_ms`` or ``_us``).  Counters (``solver.steps``) are plain
sums.  The untraced run uses `NullTracer`, whose calls do nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

_SCALES = (("_ms", 1e3), ("_us", 1e6), ("_s", 1.0))


class Tracer:
    """Spans (id, parent id, name, start, end) and named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller (for micro-timings,
        where a context manager would cost a visible share of the call)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, name, start, end])

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def put(self, name: str, value: float) -> None:
        self.counts[name] = value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def metrics(self) -> Dict[str, float]:
        """Median duration of every span name that carries a unit suffix,
        scaled to that unit, plus every counter."""
        by_name: Dict[str, List[float]] = defaultdict(list)
        for _, _, name, start, end in self.spans:
            by_name[name].append(end - start)
        out: Dict[str, float] = {}
        for name, values in by_name.items():
            scale = _unit_scale(name)
            if scale is not None:
                out[name] = statistics.median(values) * scale
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class NullTracer:
    """Tracer stand-in for the untraced run: records nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def record(self, name: str, start: float, end: float) -> None:
        pass

    def add(self, name: str, value: float = 1.0) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


def _unit_scale(name: str) -> Optional[float]:
    head = name.split(".")[1] if "." in name else name
    for suffix, scale in _SCALES:
        if head.endswith(suffix):
            return scale
    return None
