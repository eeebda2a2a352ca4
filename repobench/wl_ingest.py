"""``ingest`` workload: campaign directory → thicket → store → thicket.

Set-up writes 640 RAJAPerf profiles (one 48-node tree) from the seed.
One operation is one cycle: ``load_campaign`` serially, again with
``ResiliencePolicy(jobs=2)``, ``Thicket.save`` of the serial thicket
and ``Thicket.load(verify=True)`` of the store.  Readers, schema
validation, graph union, composition, the supervised executor and the
store codec do the work.
"""

from __future__ import annotations

import shutil
import time
from statistics import median

from harness import Result, report_loop, timed_setup
from inputs import profile_base_seed, write_campaign
from probes import PARALLEL, probe_layers

from repro.core.thicket import Thicket
from repro.workloads import RAJA_CAMPAIGN, load_campaign

PROFILES, NODES = 640, 48
SETUP_REPS = 3


def _check_thicket(res: Result, label: str, tk, report=None) -> bool:
    ok = res.check(tk is not None and len(tk.profile) == PROFILES
                   and len(tk.graph) == NODES
                   and len(tk.dataframe) == PROFILES * NODES,
                   f"{label}: expected {PROFILES} profiles, {NODES} nodes, "
                   f"{PROFILES * NODES} rows, got {tk!r}")
    if report is not None:
        ok &= res.check(report.n_quarantined == 0,
                        f"{label}: {report.n_quarantined} quarantined")
    return ok


def _cycle(ctx, res: Result, campaign, store):
    """One timed cycle, checked afterwards; returns its seconds (inf if
    a check failed), the serial, parallel and loaded thickets."""
    tr = ctx.tracer
    # each step is one call that runs a whole pipeline (readers, schema,
    # graph, core, ...); single-layer times come from the probe pass
    with tr.span("ingest.cycle", "bench", tr.new_op()):
        t0 = time.perf_counter()
        with tr.span("workloads.load_campaign.serial", "pipeline"):
            tk_s, rep_s = load_campaign(campaign, on_error="collect")
        with tr.span("workloads.load_campaign.parallel", "pipeline"):
            tk_p, rep_p = load_campaign(campaign, on_error="collect",
                                        policy=PARALLEL)
        with tr.span("core.Thicket.save", "pipeline"):
            tk_s.save(store)
        with tr.span("core.Thicket.load", "pipeline"):
            tk_l = Thicket.load(store, verify=True)
        dt = time.perf_counter() - t0
    ok = _check_thicket(res, "serial", tk_s, rep_s)
    ok &= _check_thicket(res, "parallel", tk_p, rep_p)
    ok &= res.check(store.stat().st_size > 0, "empty store written")
    ok &= _check_thicket(res, "loaded", tk_l)
    return (dt if ok else float("inf")), tk_s, tk_p, tk_l


def run(ctx) -> Result:
    res = Result()
    base_seed = profile_base_seed(ctx.seed, "ingest")

    def setup(rep: int):
        campaign = ctx.work / f"campaign-{rep}"
        write_campaign(campaign, RAJA_CAMPAIGN[:1], 4, base_seed)
        return campaign

    setup_s, campaign = timed_setup(SETUP_REPS, setup, shutil.rmtree)
    paths = sorted(campaign.glob("*.json"))
    res.check(len(paths) == PROFILES, f"{len(paths)} profiles written")
    # warm the code paths (and the worker start-up) on a small slice
    t0 = time.perf_counter()
    warm = ctx.work / "warm"
    warm.mkdir()
    for p in paths[:16]:
        shutil.copy(p, warm / p.name)
    load_campaign(warm, on_error="strict")
    load_campaign(warm, on_error="strict", policy=PARALLEL)
    res.metric("setup_s", ctx.import_s + setup_s
               + time.perf_counter() - t0, "s")

    store = ctx.work / "store" / "campaign.json"
    lat = {True: [], False: []}     # traced? -> cycle seconds
    deadline = time.perf_counter() + ctx.seconds
    n = 0
    while n < 2 or time.perf_counter() < deadline:
        # a traced run alternates traced and untraced cycles, so the
        # tracing overhead is measured inside one run
        ctx.tracer.enabled = ctx.trace and n % 2 == 0
        dt, tk_s, tk_p, tk_l = _cycle(ctx, res, campaign, store)
        lat[ctx.tracer.enabled].append(dt)
        res.attempted += 1
        res.failed += dt == float("inf")
        n += 1
    ctx.tracer.enabled = False
    # the last cycle's parallel thicket encodes to the saved serial
    # store, and save -> load -> save is byte-identical (two encodes
    # cost a third of a cycle, so only the last cycle gets them)
    saved = store.read_text()
    res.failed += not res.check(tk_p.to_json() == saved,
                                "parallel thicket differs from serial")
    res.failed += not res.check(tk_l.to_json() == saved,
                                "save -> load -> save is not byte-identical")

    if not ctx.trace:
        report_loop(res, lat[False],
                    sum(dt for dt in lat[False] if dt != float("inf")))
        return res
    res.metric("trace.overhead_ratio",
               median(lat[True]) / median(lat[False]) - 1.0, "ratio")
    ctx.probe_tracer = probe_layers(ctx, res, campaign, tk_s)
    return res
