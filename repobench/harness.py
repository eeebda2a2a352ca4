"""What every workload shares: the run context, the result, set-up
timing and correctness bookkeeping."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

from tracing import Tracer, percentile


@dataclass
class Context:
    """One benchmark run: its seed, length, mode and scratch space."""

    seed: int
    seconds: float
    trace: bool
    root: Path          # the checkout the benchmark runs from
    work: Path          # per-run scratch directory inside the checkout
    import_s: float     # one-off cost of importing the program
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    #: spans of the per-layer pass (traced runs only)
    probe_tracer: Tracer | None = None


@dataclass
class Result:
    """Counts, check failures and metrics of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed correctness check; returns *ok*."""
        if not ok and len(self.problems) < 20:
            self.problems.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def timed_setup(reps: int, body: Callable[[int], object],
                teardown: Callable[[object], None] | None = None):
    """Run the set-up *body* ``reps`` times from scratch.

    Returns ``(median_seconds, last_result)``.  Each repetition builds
    its inputs afresh, so every repetition costs what a cold set-up
    costs; *teardown* releases each earlier result outside the timing.
    """
    times, result = [], None
    for rep in range(reps):
        if rep and teardown is not None:
            teardown(result)
        t0 = time.perf_counter()
        result = body(rep)
        times.append(time.perf_counter() - t0)
    return median(times), result


def report_loop(res: Result, latencies: list[float], seconds: float) -> None:
    """The end-to-end metrics of a timed loop: operations completed per
    second of *seconds* and the median operation latency.  Failed
    operations are ``inf`` in *latencies*: they count as missing any
    latency limit and are not completed."""
    completed = sum(dt != float("inf") for dt in latencies)
    res.metric("ops_per_s", completed / seconds if completed else 0.0,
               "ops/s")
    res.metric("op_p50_ms", percentile(latencies, 50) * 1e3, "ms")
