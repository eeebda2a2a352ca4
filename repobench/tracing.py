"""Span recording and summary statistics for the benchmark.

Spans are recorded by the benchmark itself, around its calls into the
program's public functions; the program's own ``repro.obs`` telemetry
stays off.  A span has a name, the layer it times, start and end
(``time.perf_counter`` seconds), the span that caused it, and an
operation id shared by every span of one benchmark operation.  Spans
are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from pathlib import Path


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed operations) sort
    last, so a failure counts as missing any latency limit."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()
#: span ids, unique across every tracer of a run
_IDS = itertools.count(1)


class _Span:
    __slots__ = ("tracer", "name", "layer", "op", "sid", "parent",
                 "start", "end")

    def __init__(self, tracer: "Tracer", name: str, layer: str, op):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.op = op

    def __enter__(self):
        stack = self.tracer._stack()
        parent = stack[-1] if stack else None
        self.parent = parent.sid if parent is not None else None
        if self.op is None and parent is not None:
            self.op = parent.op
        self.sid = next(_IDS)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append(self)
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self._ops = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_op(self) -> int:
        """A fresh operation id for the spans of one operation."""
        return next(self._ops)

    def span(self, name: str, layer: str, op=None):
        """Context manager timing one call into *layer*."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, layer, op)

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called *name*."""
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Per layer, the summed self time of its spans: each span's
        duration minus the part of it that its child spans cover."""
        children: dict[int, list[_Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - covered
        return out

    def write(self, path: Path, spans=None) -> None:
        """Write *spans* (default: this tracer's) as one JSON document
        (run end only)."""
        rows = [{"name": s.name, "layer": s.layer, "sid": s.sid,
                 "parent": s.parent, "op": s.op, "start": s.start,
                 "end": s.end}
                for s in sorted(self.spans if spans is None else spans,
                                key=lambda s: s.start)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}, sort_keys=True))
