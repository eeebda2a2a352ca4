"""``analyze`` workload: interactive analysis of a composed campaign.

Set-up composes the full Fig. 13 RAJAPerf campaign from the seed:
2,240 profiles over the 312-node union of the Sequential, OpenMP and
CUDA trees, 136,320 sparse rows.  The timed part is a closed loop of
seeded operations on that thicket: statistics over metric columns,
metadata filters, groupby followed by a per-group mean, string-dialect
queries, tree renders and structural validation.  Frame, stats, query,
viz and validate do the work; readers, codec and executor do none.
"""

from __future__ import annotations

import itertools
import time
from statistics import median

import numpy as np

from harness import Result, report_loop, timed_setup
from inputs import (
    campaign_payloads,
    deck,
    profile_base_seed,
    query_pool,
    reference_match,
    stream_rng,
)
from probes import probe_layers, write_payloads

from repro.core import stats
from repro.ingest import load_ensemble
from repro.query import parse_string_dialect
from repro.workloads import RAJA_CAMPAIGN

PROFILES, NODES, ROWS = 2240, 312, 136_320
SETUP_REPS = 2
#: operation kind -> cards in a deck of 50 operations
MIX = {"stats.mean": 5, "stats.median": 5, "stats.std": 5,
       "stats.variance": 5, "stats.percentiles": 4, "filter": 5,
       "groupby": 4, "query": 10, "tree": 5, "validate": 2}
#: metadata keys with a handful of values each
META_KEYS = ("variant", "compiler", "problem_size",
             "compiler optimizations", "cluster", "omp num threads")
SAMPLE_NODES = 8


def _reference_stat(kind: str, values: np.ndarray) -> list[float]:
    """The statistic over one node's raw rows, straight from numpy."""
    a = values[np.isfinite(values)]
    if not len(a):
        return [float("nan")] * (3 if kind == "percentiles" else 1)
    if kind == "mean":
        return [float(np.mean(a))]
    if kind == "median":
        return [float(np.median(a))]
    if kind == "std":
        return [float(np.std(a, ddof=1)) if len(a) > 1 else 0.0]
    if kind == "variance":
        return [float(np.var(a, ddof=1)) if len(a) > 1 else 0.0]
    return [float(np.percentile(a, q)) for q in (25, 50, 75)]


def _same(a: float, b: float) -> bool:
    return (a != a and b != b) or bool(np.isclose(a, b, rtol=1e-9, atol=0))


class Analysis:
    """The loaded thicket, the seeded pools and the references."""

    def __init__(self, tk, seed: int):
        self.tk = tk
        rng = stream_rng(seed, "analyze.pools")
        self.columns = list(tk.performance_cols)
        self.meta = {}
        for key in META_KEYS:
            col = tk.metadata.column(key)
            values = sorted({v.item() if hasattr(v, "item") else v
                             for v in col}, key=repr)
            self.meta[key] = (values, col)
        self.queries = query_pool(tk.graph, rng)
        self.roots = [r.frame.name for r in tk.graph.roots]
        nodes = list(tk.statsframe.index.values)
        picks = rng.sample(range(len(nodes)), SAMPLE_NODES)
        self.sample = {id(nodes[i]): (i, []) for i in picks}
        for row, (node, _) in enumerate(tk.dataframe.index.values):
            hit = self.sample.get(id(node))
            if hit is not None:
                hit[1].append(row)

    def ops(self, seed: int):
        """Endless seeded operation sequence: ``(kind, args)``."""
        rng = stream_rng(seed, "analyze.ops")

        def rotation(items):
            # every argument in turn from a seeded start: a run's calls
            # of one kind cover the arguments evenly, so seeds differ in
            # which arguments run, not in how much work they make
            start = rng.randrange(len(items))
            return itertools.islice(itertools.cycle(items), start, None)

        # the query pool's ranks cycle through its template/result-size
        # groups, so walking it in rank order covers them in proportion
        queries = rotation(self.queries)
        columns = {kind: rotation(self.columns) for kind in MIX}
        filters = rotation([(key, v) for key in META_KEYS
                            for v in self.meta[key][0]])
        groupbys = rotation(META_KEYS)
        for kind in deck(rng, MIX):
            if kind.startswith("stats.") or kind == "tree":
                yield kind, (next(columns[kind]),)
            elif kind == "filter":
                yield kind, next(filters)
            elif kind == "groupby":
                yield kind, (next(groupbys), next(columns[kind]))
            elif kind == "query":
                yield kind, next(queries)
            else:
                yield kind, ()

    # -- one operation: run it (timed), then check it (untimed) ---------
    def run_op(self, tr, kind: str, args) -> tuple[float, object]:
        tk = self.tk
        op = tr.new_op()
        with tr.span(f"op.{kind}", "bench", op):
            t0 = time.perf_counter()
            if kind.startswith("stats."):
                fn = kind.split(".")[1]
                with tr.span(f"core.stats.{fn}", "core"):
                    out = getattr(stats, fn)(tk, [args[0]])
            elif kind == "filter":
                key, value = args
                with tr.span("core.filter_metadata", "core"):
                    out = tk.filter_metadata(
                        lambda m, k=key, v=value: m[k] == v)
            elif kind == "groupby":
                key, col = args
                with tr.span("core.groupby", "core"):
                    groups = tk.groupby(key)
                for sub in groups.values():
                    with tr.span("core.stats.mean.group", "core"):
                        stats.mean(sub, [col])
                out = groups
            elif kind == "query":
                with tr.span("query.parse_string_dialect", "query"):
                    matcher = parse_string_dialect(args[0])
                with tr.span("query.apply", "query"):
                    out = tk.query(matcher)
            elif kind == "tree":
                with tr.span("viz.tree", "viz"):
                    out = tk.tree(metric_column=args[0])
            else:
                with tr.span("core.validate", "core"):
                    out = tk.validate()
            dt = time.perf_counter() - t0
        return dt, out

    def check(self, res: Result, kind: str, args, out) -> bool:
        tk = self.tk
        if kind.startswith("stats."):
            fn = kind.split(".")[1]
            col = tk.dataframe.column(args[0])
            ok = True
            for pos, rows in self.sample.values():
                want = _reference_stat(
                    fn, np.asarray(col[rows], dtype=float))
                got = [float(tk.statsframe.column(key)[pos]) for key in out]
                ok &= res.check(
                    len(got) == len(want)
                    and all(map(_same, got, want)),
                    f"{kind}({args[0]!r}) at statsframe row {pos}: "
                    f"{got} != reference {want}")
            return ok
        if kind == "filter":
            key, value = args
            want = sum(1 for v in self.meta[key][1] if v == value)
            return res.check(len(out.profile) == want,
                             f"filter {key}={value!r}: "
                             f"{len(out.profile)} profiles, metadata "
                             f"says {want}")
        if kind == "groupby":
            key, col = args
            values, meta_col = self.meta[key]
            counts = {v: sum(1 for x in meta_col if x == v) for v in values}
            got = {k: len(sub.profile) for k, sub in out.items()}
            return res.check(
                got == counts and all(
                    f"{col}_mean" in sub.statsframe for sub in out.values()),
                f"groupby {key!r}: group sizes {got} != {counts}")
        if kind == "query":
            expr, template, targs = args
            want = sorted(n.frame.name for n in
                          reference_match(tk.graph, template, targs))
            got = sorted(n.frame.name for n in out.graph.traverse())
            return res.check(got == want,
                             f"query {expr}: {len(got)} nodes, reference "
                             f"{len(want)}")
        if kind == "tree":
            return res.check(all(r in out for r in self.roots),
                             "tree render lacks a root")
        return res.check(out.ok, f"validate: {out.summary()}")


def run(ctx) -> Result:
    res = Result()
    base_seed = profile_base_seed(ctx.seed, "analyze")

    def setup(rep: int):
        payloads = campaign_payloads(RAJA_CAMPAIGN, 4, base_seed)
        return payloads, load_ensemble(payloads, on_error="strict").thicket

    setup_s, (payloads, tk) = timed_setup(SETUP_REPS, setup)
    res.check(len(tk.profile) == PROFILES and len(tk.graph) == NODES
              and len(tk.dataframe) == ROWS,
              f"composed {tk!r}, expected {PROFILES} profiles, {NODES} "
              f"nodes, {ROWS} rows")
    t0 = time.perf_counter()
    an = Analysis(tk, ctx.seed)
    for kind in MIX:            # warm every code path once
        args = next(a for k, a in an.ops(ctx.seed + 1) if k == kind)
        an.run_op(ctx.tracer, kind, args)
    res.metric("setup_s", ctx.import_s + setup_s
               + time.perf_counter() - t0, "s")

    lat = {True: {}, False: {}}   # traced? -> kind -> latencies
    ops = an.ops(ctx.seed)
    deadline = time.perf_counter() + ctx.seconds
    n = 0
    while time.perf_counter() < deadline:
        kind, args = next(ops)
        traced = ctx.trace and n % 2 == 0
        ctx.tracer.enabled = traced
        try:
            dt, out = an.run_op(ctx.tracer, kind, args)
        except Exception as exc:  # pragma: failed operation, counted
            dt, out = float("inf"), None
            res.check(False, f"{kind}{args}: {type(exc).__name__}: {exc}")
        ctx.tracer.enabled = False
        res.attempted += 1
        if out is None or not an.check(res, kind, args, out):
            res.failed += 1
            dt = float("inf")
        lat[traced].setdefault(kind, []).append(dt)
        n += 1

    every = [d for ds in lat[False].values() for d in ds]
    if not ctx.trace:
        report_loop(res, every, sum(d for d in every if d != float("inf")))
        return res
    # alternate operations are traced; compare per-kind medians, as the
    # two halves hold the kinds in slightly different proportions
    both = [k for k in lat[True] if k in lat[False]]
    res.metric("trace.overhead_ratio",
               sum(median(lat[True][k]) for k in both)
               / sum(median(lat[False][k]) for k in both) - 1.0, "ratio")
    campaign = write_payloads(ctx.work / "campaign", payloads)
    del payloads
    ctx.probe_tracer = probe_layers(ctx, res, campaign, tk)
    return res
