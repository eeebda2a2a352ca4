"""The standard traced workload the sentinel measures.

``repro perf record`` / ``check`` and ``benchmarks/perf_harness.py``
all execute the same end-to-end slice of the library so recorded runs
are comparable across sessions: generate a (scaled) RAJAPerf campaign,
ingest it through the fault-tolerant pipeline, aggregate statistics,
run a call-path query, and render the tree.  Every phase sits under an
explicit ``perf.workload.*`` span, and the pipeline's own
instrumentation (``ingest.*``, ``query.*``) nests beneath — so a
slowdown injected into any layer surfaces as a named call-tree node in
the sentinel's verdict.

Profile generation is reused, not repeated: when the work directory
already holds profiles they are ingested as-is.  That keeps record /
check cycles fast and — deliberately — lets
:func:`repro.workloads.inject_slowdown` wrap a profile file between
runs to stage a reproducible regression.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Any, Sequence

from .. import gcpause
from ..obs import Span, get_telemetry
from ..obs import span as obs_span

__all__ = ["run_campaign_workload", "workload_roots", "DEFAULT_SCALE"]

DEFAULT_SCALE = 0.1


def run_campaign_workload(work_dir: "str | Path",
                          scale: float = DEFAULT_SCALE) -> dict[str, Any]:
    """Run one traced pass of the standard workload.

    Profiles live under ``<work_dir>/profiles`` (generated on first
    use, reused afterwards).  Tracing must already be enabled for the
    spans to be recorded; the function itself works either way.
    Returns a summary dict (profile/node/row counts per phase).
    """
    from ..core import stats
    from ..query import QueryMatcher
    from ..workloads import load_campaign, write_raja_campaign
    from ..workloads.campaign import RAJA_CAMPAIGN

    work_dir = Path(work_dir)
    profile_dir = work_dir / "profiles"
    info: dict[str, Any] = {"work_dir": str(work_dir), "scale": scale}

    with obs_span("perf.workload") as root:
        with obs_span("perf.workload.generate"):
            existing = sorted(profile_dir.glob("*.json"))
            if existing:
                info["profiles"] = len(existing)
                info["generated"] = False
            else:
                paths = write_raja_campaign(
                    profile_dir, campaign=RAJA_CAMPAIGN[:1], scale=scale)
                info["profiles"] = len(paths)
                info["generated"] = True

        with obs_span("perf.workload.ingest"):
            tk, report = load_campaign(profile_dir)
            info["ingested"] = len(tk.profile)
            info["quarantined"] = report.n_quarantined

        with obs_span("perf.workload.stats"):
            metric = tk.default_metric
            stats.mean(tk, [metric])
            stats.percentiles(tk, [metric])
            info["nodes"] = len(tk.statsframe.index.values)

        with obs_span("perf.workload.query"):
            matched = tk.query(
                QueryMatcher().match(".").rel("*"))
            info["query_nodes"] = sum(1 for _ in matched.graph)

        with obs_span("perf.workload.render"):
            info["tree_chars"] = len(tk.tree(metric_column=metric))

        root.set("scale", scale)
        root.set("profiles", info["profiles"])
        root.set("nodes", info["nodes"])
    return info


def workload_roots(work_dir: "str | Path", repeats: int = 1,
                   scale: float = DEFAULT_SCALE,
                   warmup: bool = True) -> "list[Span]":
    """Run the workload *repeats* times and return the new root spans.

    Enables the global telemetry for the duration (restoring the prior
    enabled state afterwards) and slices off only the spans produced
    here, so callers embedded in larger traced programs do not pick up
    unrelated roots.  This is what ``repro perf record`` stores.

    With ``warmup`` (the default) one untimed pass runs first: it pays
    the one-off costs — imports, profile generation, allocator warm-up
    — that would otherwise make the first recorded run of a process
    look slower than every later one and poison the baseline.

    Like :mod:`timeit`, each timed pass runs with the cyclic garbage
    collector off, after a full collection: a collection pass costs
    time in proportion to the whole heap of the host process, not to
    the workload, and wherever one lands it reads as a slowdown of the
    node it interrupted.  Reference counting still frees everything
    that is not in a cycle, and the collector is restored after the
    pass.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    t = get_telemetry()
    was_enabled = t.enabled
    if warmup:
        t.disable()
        try:
            run_campaign_workload(work_dir, scale=scale)
        finally:
            if was_enabled:
                t.enable()
    t.enable()
    before = len(t.finished_spans())
    try:
        for _ in range(repeats):
            _run_without_gc(work_dir, scale)
    finally:
        if not was_enabled:
            t.disable()
    return t.finished_spans()[before:]


def _run_without_gc(work_dir: "str | Path", scale: float) -> None:
    """One workload pass after a full collection, with the cyclic
    collector paused (see :func:`workload_roots`)."""
    gc.collect()
    with gcpause.paused():
        run_campaign_workload(work_dir, scale=scale)
