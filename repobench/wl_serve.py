"""``serve`` workload: a closed loop of HTTP clients against
``python -m repro serve``.

Set-up composes the 640-profile dataset from the seed, saves it as the
only store of a fresh directory, starts the server on a free port and
loads the dataset into its cache.  Two client threads, each with one
``ReproClient`` (hedging off), then send a seeded mix: string-dialect
queries drawn with skew from a pool larger than the server's 128-entry
result cache, the default statistics request (``mean`` over every
metric column, recomputed on every request), ingests of 8 profiles
under new names (each clears the result cache), liveness and dataset
listings.  Every response is checked against the in-process
answer on the same dataset.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path

from harness import Result, report_loop, timed_setup
from inputs import (
    campaign_payloads,
    deck,
    profile_base_seed,
    query_pool,
    reference_match,
    stream_rng,
    zipf_index,
)
from probes import POLICY, Server, probe_layers, write_payloads
from tracing import percentile

from repro.client import ReproClient
from repro.core.thicket import Thicket
from repro.errors import ClientError
from repro.ingest import load_ensemble
from repro.serve import AnalysisService
from repro.workloads import RAJA_CAMPAIGN

PROFILES, NODES = 640, 48
CLIENTS = 2                  # at most nproc threads and connections
#: The server runs on one CPU and the load generator on the others, so
#: they never share a core.  On a shared 2-core host, over eight runs
#: alternating pinned and unpinned, the quartile distance over the
#: median was 0.11 (latency) and 0.03 (throughput) pinned, against 0.20
#: and 0.15 unpinned.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = CPUS[0] if len(CPUS) > 1 else None
CLIENT_CPUS = set(CPUS[1:]) if len(CPUS) > 1 else set(CPUS)
SETUP_REPS = 2
INGEST_POOL, INGEST_SIZE = 32, 8
#: request kind -> cards in a deck of 20 requests
MIX = {"query": 9, "stats": 5, "ingest": 2, "healthz": 2, "datasets": 2}
TRACE_SLICES = 4             # alternately untraced and traced


class Expected:
    """Pools of requests and the in-process answer to each."""

    def __init__(self, seed: int, local: AnalysisService, tk, ingest_pool):
        rng = stream_rng(seed, "serve.pools")
        self.ingest_pool = ingest_pool
        self.queries = query_pool(tk.graph, rng)
        rows: dict[int, int] = {}
        for node, _ in tk.dataframe.index.values:
            rows[id(node)] = rows.get(id(node), 0) + 1
        self.query_body = {}
        for expr, template, args in self.queries:
            nodes = reference_match(tk.graph, template, args)
            self.query_body[expr] = {
                "dataset": "base", "matched_nodes": len(nodes),
                "node_names": sorted({n.frame.name for n in nodes}),
                "profiles": len(tk.profile),
                "rows": sum(rows.get(id(n), 0) for n in nodes)}
        # the request ROADMAP measures: ``mean`` over every metric column
        status, body, _ = local.dispatch("POST", "/v1/stats",
                                         {"dataset": "base"}, "bench")
        if status != 200 or len(body.get("nodes", ())) != len(tk.graph):
            raise RuntimeError(f"in-process stats: {status}, "
                               f"{len(body.get('nodes', ()))} node entries "
                               f"for {len(tk.graph)} nodes")
        self.stats_body = json.loads(json.dumps(body, sort_keys=True))


class Client(threading.Thread):
    """One closed-loop client: next request only after the reply."""

    def __init__(self, tag: str, ctx, url: str, exp: Expected,
                 deadline: float, res: Result, lock: threading.Lock):
        super().__init__(name=f"bench-client-{tag}", daemon=True)
        self.tag, self.ctx, self.exp = tag, ctx, exp
        self.deadline, self.res, self.lock = deadline, res, lock
        self.rng = stream_rng(ctx.seed, f"serve.mix.{tag}")
        self.client = ReproClient(url, policy=POLICY,
                                  client_id=f"bench-{tag}")
        self.lat: dict[str, list[float]] = {k: [] for k in MIX}
        self.ingested: list[str] = []

    def _request(self, kind: str):
        c, rng, exp = self.client, self.rng, self.exp
        if kind == "query":
            expr = exp.queries[zipf_index(rng, len(exp.queries))][0]
            return (lambda: c.query("base", expr)), exp.query_body[expr]
        if kind == "stats":
            return (lambda: c.stats("base")), exp.stats_body
        if kind == "ingest":
            name = f"ingest-{self.tag}-{len(self.ingested):05d}"
            profiles = rng.sample(exp.ingest_pool, INGEST_SIZE)
            return (lambda: c.ingest(name, profiles)), name
        if kind == "healthz":
            return c.health, {"status": "ok"}
        return c.datasets, None

    def _ok(self, kind: str, want, got) -> bool:
        if kind == "ingest":
            return (got.get("dataset") == want
                    and got.get("profiles") == INGEST_SIZE
                    and got.get("nodes") == NODES)
        if kind == "datasets":
            return ("base" in got and got == sorted(got)
                    and set(self.ingested) <= set(got))
        return got == want

    def run(self) -> None:
        tr = self.ctx.tracer
        kinds = deck(self.rng, MIX)
        try:
            while time.perf_counter() < self.deadline:
                kind = next(kinds)
                call, want = self._request(kind)
                retries = self.client.retries
                with tr.span(f"client.{kind}", "client", tr.new_op()):
                    t0 = time.perf_counter()
                    try:
                        got, err = call(), None
                    except ClientError as exc:
                        got, err = None, exc
                    dt = time.perf_counter() - t0
                # a retried request hid a shed, timeout, 5xx or dropped
                # connection behind its final answer: it failed
                retries = self.client.retries - retries
                if err is None and retries:
                    err = f"succeeded after {retries} retries"
                ok = err is None and self._ok(kind, want, got)
                if ok and kind == "ingest":
                    self.ingested.append(want)
                with self.lock:
                    self.res.attempted += 1
                    if not ok:
                        self.res.failed += 1
                        self.res.check(False, f"{kind}: {err or got!r}"[:300])
                self.lat[kind].append(dt if ok else float("inf"))
        except Exception as exc:  # pragma: thread boundary, reported
            with self.lock:
                self.res.failed += 1
                self.res.check(False, f"{self.name} stopped: "
                               f"{type(exc).__name__}: {exc}")
        finally:
            self.client.close()


def _closed_loop(ctx, url: str, exp: Expected, seconds: float,
                 res: Result, tag: str) -> tuple[dict, float, list[str]]:
    """*seconds* of ``CLIENTS`` closed-loop clients; returns latencies
    by request kind, wall seconds and the datasets ingested."""
    lock = threading.Lock()
    t0 = time.perf_counter()
    clients = [Client(f"{tag}{i}", ctx, url, exp, t0 + seconds, res, lock)
               for i in range(CLIENTS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(seconds + 120.0)
        res.check(not c.is_alive(), f"{c.name} did not finish")
    wall = time.perf_counter() - t0
    lat = {k: [d for c in clients for d in c.lat[k]] for k in MIX}
    ingested = [n for c in clients for n in c.ingested]
    return lat, wall, ingested


def _check_ingested(res: Result, url: str, store: Path,
                    ingested: list[str]) -> None:
    """Every ingested dataset is listed and holds its profiles."""
    with ReproClient(url, policy=POLICY, client_id="bench-check") as c:
        listed = set(c.datasets())
    missing = sorted(set(ingested) - listed)
    res.check(not missing, f"ingested datasets not listed: {missing[:5]}")
    for name in ingested:
        tk = Thicket.load(store / f"{name}.json")
        res.check(len(tk.profile) == INGEST_SIZE,
                  f"{name}: {len(tk.profile)} profiles stored")


def _start(ctx, tag: str, base: Path):
    """Fresh store holding only the base dataset, then a warm server."""
    store = ctx.work / tag / "store"
    store.mkdir(parents=True)
    shutil.copy(base, store / "base.json")
    server = Server(ctx.root, store, ctx.work / tag / "serve.log",
                    cpu=SERVER_CPU)
    try:
        with ReproClient(server.url, policy=POLICY,
                         client_id="bench-warm") as c:
            c.health()
            c.stats("base")                     # loads the dataset
            c.query("base", 'MATCH (".", p) WHERE p."name" =~ ".*"')
    except ClientError:
        server.stop()
        raise
    return server, store


def _stop(res: Result, server: Server) -> None:
    rc = server.stop()
    res.check(rc == 0, f"server exited {rc} on SIGTERM")


def run(ctx) -> Result:
    res = Result()
    base_seed = profile_base_seed(ctx.seed, "serve")
    servers: list[Server] = []
    os.sched_setaffinity(0, CLIENT_CPUS)

    def setup(rep: int):
        tag = f"setup-{rep}"
        (ctx.work / tag).mkdir()
        payloads = campaign_payloads(RAJA_CAMPAIGN[:1], 4, base_seed)
        tk = load_ensemble(payloads, on_error="strict").thicket
        base = ctx.work / tag / "base.json"
        tk.save(base)
        server, store = _start(ctx, tag, base)
        servers.append(server)
        return payloads, tk, base, store

    try:
        setup_s, (payloads, tk, base, store) = timed_setup(
            SETUP_REPS, setup, lambda _: _stop(res, servers.pop()))
        t0 = time.perf_counter()
        res.check(len(tk.profile) == PROFILES and len(tk.graph) == NODES,
                  f"dataset {tk!r}")
        local_dir = ctx.work / "local"
        local_dir.mkdir()
        shutil.copy(base, local_dir / "base.json")
        local = AnalysisService(local_dir)
        try:
            ingest_pool = campaign_payloads(
                RAJA_CAMPAIGN[:1], 4,
                profile_base_seed(ctx.seed, "serve.ingest"),
                limit=INGEST_POOL)
            exp = Expected(ctx.seed, local, tk, ingest_pool)
        finally:
            local.shutdown()
        res.metric("setup_s", ctx.import_s + setup_s
                   + time.perf_counter() - t0, "s")

        url = servers[0].url
        if not ctx.trace:
            lat, wall, ingested = _closed_loop(ctx, url, exp, ctx.seconds,
                                               res, "")
            _check_ingested(res, url, store, ingested)
            _stop(res, servers.pop())
            report_loop(res, [d for ds in lat.values() for d in ds], wall)
            return res

        # a traced run alternates untraced and traced slices on the same
        # server, for the tracing overhead; alternating keeps the growth
        # of the store (every ingest adds a dataset) out of the ratio
        lat = {False: [], True: []}
        ingested = []
        for i in range(TRACE_SLICES):
            ctx.tracer.enabled = i % 2 == 1
            part, _, names = _closed_loop(ctx, url, exp,
                                          ctx.seconds / TRACE_SLICES, res,
                                          f"s{i}-")
            lat[ctx.tracer.enabled] += [d for ds in part.values() for d in ds]
            ingested += names
        ctx.tracer.enabled = False
        _check_ingested(res, url, store, ingested)
        _stop(res, servers.pop())
        os.sched_setaffinity(0, CPUS)      # the probe pass uses every CPU
        res.metric("trace.overhead_ratio", percentile(lat[True], 50)
                   / percentile(lat[False], 50) - 1.0, "ratio")
        campaign = write_payloads(ctx.work / "campaign", payloads)
        ctx.probe_tracer = probe_layers(ctx, res, campaign, tk)
        return res
    finally:
        while servers:
            servers.pop().stop()
        os.sched_setaffinity(0, CPUS)
