"""Thread-safe registry of counters, gauges, histograms, timelines.

The registry is deliberately tiny: four dictionaries behind one lock.
Counters accumulate, gauges hold the last value, histograms count
observations in fixed log-spaced buckets (quantiles within 1% relative
error, exact count/sum/min/max) and timelines keep a bounded
``(t, value)`` series for periodic resource gauges (RSS, CPU%, …).
Everything is standard library only so the registry is importable from
the bottom of the stack.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = ["MetricsRegistry", "HistogramSummary", "Timeline",
           "format_snapshot"]

# Histogram buckets are log-spaced: bucket k holds (GAMMA**(k-1),
# GAMMA**k], and its midpoint 2*GAMMA**k/(GAMMA+1) is within
# _RELATIVE_ERROR of every value in it (the DDSketch construction).
_RELATIVE_ERROR = 0.01
_GAMMA = (1 + _RELATIVE_ERROR) / (1 - _RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)

# Keep at most this many (t, value) points per timeline; beyond it the
# series decimates (every other point) so a long-running resource
# monitor keeps a thinning-but-full-span history in bounded memory.
_TIMELINE_POINT_CAP = 4096


class HistogramSummary:
    """Exact count/sum/min/max plus log-bucket counts for quantiles.

    ``add`` is O(1) and memory is bounded by the dynamic range (about
    115 buckets per decade), not by the number of observations.
    Non-positive values (fake clocks observe 0.0) and non-finite ones
    share one zero bucket.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "zeros", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.zeros = 0
        self.buckets: dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if 0.0 < value < math.inf:
            key = math.ceil(math.log(value) / _LOG_GAMMA)
            self.buckets[key] = self.buckets.get(key, 0) + 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """The observation of rank ``round(q * (count - 1))``: exact at
        the first and last rank, within 1% relative error between."""
        if not self.count:
            return float("nan")
        rank = min(self.count - 1, max(0, round(q * (self.count - 1))))
        if rank == 0:
            return self.minimum
        if rank == self.count - 1:
            return self.maximum
        seen = self.zeros
        estimate = 0.0
        if rank >= seen:
            for key in range(min(self.buckets), max(self.buckets) + 1):
                seen += self.buckets.get(key, 0)
                if seen > rank:
                    estimate = 2.0 * _GAMMA ** key / (_GAMMA + 1.0)
                    break
        return min(self.maximum, max(self.minimum, estimate))

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else float("nan"),
            "max": self.maximum if self.count else float("nan"),
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Timeline:
    """A bounded ``(t, value)`` series plus exact count/min/max/last.

    Periodic resource gauges (RSS, CPU%, thread count) are timelines:
    the shape over time matters, not just the latest value.  Points
    decimate (every other point) past the cap so a monitor running for
    hours keeps a full-span, thinning series in bounded memory.
    """

    __slots__ = ("count", "minimum", "maximum", "last", "points")

    def __init__(self) -> None:
        self.count = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.last = float("nan")
        self.points: list[tuple[float, float]] = []

    def add(self, t: float, value: float) -> None:
        self.count += 1
        self.last = value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.points.append((t, value))
        if len(self.points) > _TIMELINE_POINT_CAP:
            del self.points[::2]

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "min": self.minimum if self.count else float("nan"),
            "max": self.maximum if self.count else float("nan"),
            "last": self.last,
            "points": [[t, v] for t, v in self.points],
        }


class MetricsRegistry:
    """Named counters/gauges/histograms behind a single lock.

    ``increment`` is the hot call; it does one lock acquire and one
    dict update — safe to hammer from a thread pool.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}
        self._timelines: dict[str, Timeline] = {}

    # -- write ---------------------------------------------------------
    def increment(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = HistogramSummary()
            hist.add(value)

    def record_point(self, name: str, t: float, value: float) -> None:
        """Append one ``(t, value)`` point to the named timeline."""
        with self._lock:
            tl = self._timelines.get(name)
            if tl is None:
                tl = self._timelines[name] = Timeline()
            tl.add(t, value)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._timelines.clear()

    # -- read ----------------------------------------------------------
    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge_value(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, float("nan"))

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
                "timelines": {
                    k: t.to_dict() for k, t in self._timelines.items()
                },
            }

    def timeline_points(self, name: str) -> list[tuple[float, float]]:
        """Copy of the named timeline's retained ``(t, value)`` points."""
        with self._lock:
            tl = self._timelines.get(name)
            return list(tl.points) if tl is not None else []

    def __len__(self) -> int:
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms) + len(self._timelines))

    def summary(self) -> str:
        """Plain-text table of all metrics, sorted by name."""
        return format_snapshot(self.snapshot())


def format_snapshot(snap: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as a plain-text
    table — also used by ``repro obs`` on snapshots read back from
    trace files, where no live registry exists to rebuild."""
    lines = []
    if snap.get("counters"):
        lines.append("counters:")
        width = max(len(k) for k in snap["counters"])
        for name in sorted(snap["counters"]):
            value = snap["counters"][name]
            shown = int(value) if value == int(value) else value
            lines.append(f"  {name:<{width}}  {shown}")
    if snap.get("gauges"):
        lines.append("gauges:")
        width = max(len(k) for k in snap["gauges"])
        for name in sorted(snap["gauges"]):
            lines.append(f"  {name:<{width}}  {snap['gauges'][name]:g}")
    if snap.get("histograms"):
        lines.append("histograms:")
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            lines.append(
                f"  {name}  n={h['count']} sum={h['sum']:.6g} "
                f"mean={h['mean']:.6g} min={h['min']:.6g} "
                f"p50={h['p50']:.6g} p95={h['p95']:.6g} "
                f"p99={h['p99']:.6g} max={h['max']:.6g}")
    if snap.get("timelines"):
        lines.append("timelines:")
        for name in sorted(snap["timelines"]):
            t = snap["timelines"][name]
            lines.append(
                f"  {name}  n={t['count']} last={t['last']:.6g} "
                f"min={t['min']:.6g} max={t['max']:.6g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"
