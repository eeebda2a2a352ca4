"""The per-layer pass of a traced run: each layer's public calls timed
on their own, on the workload's own profiles and thicket.

Every workload's traced run ends with this pass, so every workload
reports every per-layer metric.  The ingest, store, codec and service
calls run on a campaign directory of at most ``PROBE_PROFILES`` of the
workload's profiles (``ingest`` and ``serve``: their 640 profiles of
one 48-node tree; ``analyze``: 640 of its 2,240, spread over the three
trees); the analysis calls run on the workload's own thicket.  The
pass records its spans on its own tracer; ``selftime.<layer>_ms`` is
the self time of each layer's spans in this pass.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from harness import Result
from inputs import query_pool, reference_match, stream_rng
from tracing import Tracer

from repro.client import ClientPolicy, ReproClient
from repro.core import stats
from repro.core.io import thicket_from_json, thicket_to_json
from repro.core.thicket import Thicket
from repro.graph.union import union_many
from repro.ingest.schema import validate_cali_payload
from repro.ioutil import atomic_write_text
from repro.query import parse_string_dialect
from repro.readers.caliper import read_cali_dict, read_cali_json
from repro.resilience import ResiliencePolicy, SupervisedExecutor
from repro.serve import AnalysisService
from repro.workloads import load_campaign

#: layers with a ``selftime.<layer>_ms`` metric; whole pipelines
#: (``load_campaign``, ``Thicket.save``/``load``) are labelled
#: ``pipeline`` and have none
LAYERS = ("readers", "ingest", "graph", "core", "frame", "query", "viz",
          "resilience", "ioutil", "serve", "client")
STATS = ("mean", "median", "std", "variance", "percentiles")
#: metadata keys with a handful of values each
META_KEYS = ("variant", "compiler", "problem_size",
             "compiler optimizations", "cluster", "omp num threads")
PARALLEL = ResiliencePolicy(jobs=2)
POLICY = ClientPolicy(hedge=False)
REPEATS = 3              # calls per analysis probe, median reported
PROBE_PROFILES = 640     # most profiles the ingest-side calls read
INGEST_SIZE = 8          # profiles per ingest request
BANNER = re.compile(r"listening on http://([^:\s]+):(\d+)")


class Server:
    """One ``python -m repro serve`` subprocess over a store directory."""

    def __init__(self, root: Path, store: Path, log: Path,
                 cpu: int | None = None):
        """*cpu*: the only CPU the server (all its threads) may run on."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        cmd = [sys.executable, "-m", "repro", "serve", "--store",
               str(store), "--port", "0"]
        pin = None if cpu is None else (
            lambda: os.sched_setaffinity(0, {cpu}))
        self.log = log
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                         stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL,
                                         stderr=fh, preexec_fn=pin)
        self.url = self._wait_for_banner(60.0)

    def _wait_for_banner(self, timeout: float) -> str:
        give_up = time.monotonic() + timeout
        while time.monotonic() < give_up:
            m = BANNER.search(self.log.read_text(errors="replace"))
            if m:
                return f"http://{m.group(1)}:{m.group(2)}"
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("server did not start:\n"
                           + self.log.read_text(errors="replace")[-2000:])

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code (killed if it hangs)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        return self.proc.wait()


def _shape(tk) -> tuple[int, int, int]:
    return len(tk.profile), len(tk.graph), len(tk.dataframe)


class _Probe:
    def __init__(self, ctx, res: Result, campaign: Path, tk):
        self.ctx, self.res, self.campaign, self.tk = ctx, res, campaign, tk
        self.base = None         # the campaign composed, once loaded
        self.tr = Tracer(enabled=True)
        self.rng = stream_rng(ctx.seed, "probe")
        self.work = ctx.work / "probe"
        self.work.mkdir()

    def once(self, metric: str, name: str, layer: str, call):
        """Time one call; report its seconds."""
        with self.tr.span(name, layer) as s:
            out = call()
        self.res.metric(metric, s.seconds, "s")
        return out

    def repeated(self, metric: str, name: str, layer: str, call):
        """Median of ``REPEATS`` calls, in ms; returns the last output."""
        for _ in range(REPEATS):
            with self.tr.span(name, layer):
                out = call()
        self.res.metric(metric, median(self.tr.durations(name)) * 1e3, "ms")
        return out

    def check_shape(self, label: str, got, report=None) -> None:
        want = _shape(self.base)
        self.res.check(got is not None and _shape(got) == want,
                       f"probe {label}: (profiles, nodes, rows) "
                       f"{_shape(got) if got is not None else None} != "
                       f"{want}")
        if report is not None:
            self.res.check(report.n_quarantined == 0,
                           f"probe {label}: {report.n_quarantined} "
                           f"quarantined")

    # -- campaign directory -> thicket -> store -> thicket ---------------
    def pipelines(self, store: Path) -> None:
        res = self.res
        n_files = len(list(self.campaign.glob("*.json")))
        for mode, kwargs, stages in (
                ("serial", {}, ("read", "validate", "build", "compose")),
                ("parallel", {"policy": PARALLEL}, ("execute", "compose"))):
            tk, report = self.once(
                f"ingest.{mode}_s", f"workloads.load_campaign.{mode}",
                "pipeline", lambda kw=kwargs: load_campaign(
                    self.campaign, on_error="collect", **kw))
            if self.base is None:
                self.base = tk
                res.check(len(tk.profile) == n_files,
                          f"probe load_campaign: {len(tk.profile)} profiles "
                          f"from {n_files} files")
            self.check_shape(f"load_campaign {mode}", tk, report)
            for stage in stages:
                seconds = report.stage_seconds.get(stage)
                if res.check(seconds is not None,
                             f"{mode} IngestReport lacks stage {stage!r}: "
                             f"{sorted(report.stage_seconds)}"):
                    res.metric(f"ingest.report.{mode}.{stage}_s", seconds,
                               "s")
        self.once("store.save_s", "core.Thicket.save", "pipeline",
                  lambda: self.base.save(store))
        back = self.once("store.load_s", "core.Thicket.load", "pipeline",
                         lambda: Thicket.load(store, verify=True))
        self.check_shape("Thicket.load", back)

    # -- single-layer calls of the ingest path ---------------------------
    def ingest_layers(self) -> None:
        res = self.res
        paths = sorted(self.campaign.glob("*.json"))
        payloads = [json.loads(p.read_text()) for p in paths]

        def validate_all():
            for i, payload in enumerate(payloads):
                validate_cali_payload(payload, source=i)

        self.once("ingest.schema.validate_s",
                  "ingest.schema.validate_cali_payload", "ingest",
                  validate_all)
        gfs = self.once("readers.build_s", "readers.read_cali_dict",
                        "readers", lambda: [
                            read_cali_dict(payload, source=i)
                            for i, payload in enumerate(payloads)])
        union, _ = self.once("graph.union_s", "graph.union_many", "graph",
                             lambda: union_many([gf.graph for gf in gfs]))
        res.check(len(union) == len(self.base.graph),
                  f"probe union has {len(union)} nodes, the thicket "
                  f"{len(self.base.graph)}")
        tk = self.once("core.compose_s", "core.from_caliperreader", "core",
                       lambda: Thicket.from_caliperreader(gfs))
        self.check_shape("from_caliperreader", tk)

        keys = [str(p) for p in paths]
        executor = SupervisedExecutor(PARALLEL)
        with self.tr.span("resilience.SupervisedExecutor.map",
                          "resilience") as s:
            outcomes = executor.map(read_cali_json, keys, keys=keys)
        useful = sum(o.ok for o in outcomes)
        res.check(useful == len(paths),
                  f"probe executor: {len(paths) - useful} task(s) failed")
        busy = sum(o.seconds for o in outcomes)
        res.metric("resilience.map_s", s.seconds, "s")
        res.metric("resilience.busy_s", busy, "s")
        res.metric("resilience.idle_ratio",
                   1.0 - busy / (PARALLEL.jobs * s.seconds), "ratio")
        res.metric("resilience.attempts_per_task",
                   useful / sum(o.attempts for o in outcomes), "ratio")

    # -- store codec -------------------------------------------------------
    def codec(self, store: Path) -> None:
        text = self.once("core.io.encode_s", "core.io.thicket_to_json",
                         "core", lambda: thicket_to_json(self.base))
        self.once("ioutil.write_s", "ioutil.atomic_write_text", "ioutil",
                  lambda: atomic_write_text(store, text))
        back = self.once("core.io.decode_s", "core.io.thicket_from_json",
                         "core", lambda: thicket_from_json(text))
        self.res.metric("core.io.store_bytes", len(text.encode("utf-8")),
                        "count")
        self.res.check(thicket_to_json(back) == text,
                       "probe codec round trip is not byte-identical")

    # -- analysis calls ----------------------------------------------------
    def analysis(self, queries: list) -> None:
        tk, res, rng = self.tk, self.res, self.rng
        col = rng.choice(list(tk.performance_cols))
        for fn in STATS:
            self.repeated(f"core.stats.{fn}_ms", f"core.stats.{fn}", "core",
                          lambda fn=fn: getattr(stats, fn)(tk, [col]))
        keys = [k for k in META_KEYS if k in tk.metadata]
        key = rng.choice(keys)
        column = tk.metadata.column(key)
        value = rng.choice(sorted({v.item() if hasattr(v, "item") else v
                                   for v in column}, key=repr))
        out = self.repeated("core.filter_ms", "core.filter_metadata", "core",
                            lambda: tk.filter_metadata(
                                lambda m: m[key] == value))
        want = sum(1 for v in column if v == value)
        res.check(len(out.profile) == want,
                  f"probe filter {key}={value!r}: {len(out.profile)} "
                  f"profiles, metadata says {want}")
        groups = self.repeated("core.groupby_ms", "core.groupby", "core",
                               lambda: tk.groupby(key))
        res.check(sum(len(g.profile) for g in groups.values())
                  == len(tk.profile), f"probe groupby {key!r} loses profiles")
        for expr, template, args in queries[:REPEATS]:
            with self.tr.span("query.parse_string_dialect", "query"):
                matcher = parse_string_dialect(expr)
            with self.tr.span("query.apply", "query"):
                got = tk.query(matcher)
            want = sorted(n.frame.name for n in
                          reference_match(tk.graph, template, args))
            res.check(sorted(n.frame.name for n in got.graph.traverse())
                      == want, f"probe query {expr}: node set differs from "
                      f"the reference")
        for metric, span in (("query.parse_ms", "query.parse_string_dialect"),
                             ("query.apply_ms", "query.apply")):
            res.metric(metric, median(self.tr.durations(span)) * 1e3, "ms")
        render = self.repeated("viz.tree_ms", "viz.tree", "viz",
                               lambda: tk.tree(metric_column=col))
        res.check(all(r.frame.name in render for r in tk.graph.roots),
                  "probe tree render lacks a root")
        report = self.repeated("core.validate_ms", "core.validate", "core",
                               tk.validate)
        res.check(report.ok, f"probe validate: {report.summary()}")
        self.repeated("frame.groupby_agg_ms", "frame.groupby_agg", "frame",
                      lambda: tk.dataframe.groupby(level="node").agg(
                          {col: "mean"}))

    # -- the service, in process and over a socket -------------------------
    def service(self, store_dir: Path, queries: list, payloads: list):
        res = self.res
        requests = {
            "stats": [("POST", "/v1/stats", {"dataset": "base"})] * REPEATS,
            "query": [("POST", "/v1/query", {"dataset": "base", "query": e})
                      for e, _, _ in queries[:2 * REPEATS]],
            "ingest": [("POST", "/v1/ingest", {
                "dataset": f"probe-{i}",
                "profiles": payloads[i * INGEST_SIZE:(i + 1) * INGEST_SIZE]})
                for i in range(REPEATS)],
            "healthz": [("GET", "/healthz", None)] * 30,
        }
        local = AnalysisService(store_dir)
        dispatch = {}
        try:
            for kind, calls in requests.items():
                name = f"serve.dispatch.{kind}"
                for method, path, payload in calls:
                    local.evict_results()      # time the uncached path
                    with self.tr.span(name, "serve"):
                        status, body, _ = local.dispatch(method, path,
                                                         payload, "bench")
                    res.check(status == 200, f"probe {path}: {body}"[:300])
                dispatch[kind] = median(self.tr.durations(name)) * 1e3
                res.metric(f"{name}_ms", dispatch[kind], "ms")
        finally:
            local.shutdown()

        server = Server(self.ctx.root, store_dir, self.work / "serve.log")
        try:
            with ReproClient(server.url, policy=POLICY,
                             client_id="bench-probe") as c:
                calls = {
                    "stats": [lambda: c.stats("base")] * REPEATS,
                    "query": [lambda e=e: c.query("base", e)
                              for e, _, _ in queries[2 * REPEATS:
                                                     4 * REPEATS]],
                    "ingest": [lambda i=i: c.ingest(
                        f"probe-live-{i}",
                        payloads[i * INGEST_SIZE:(i + 1) * INGEST_SIZE])
                        for i in range(REPEATS)],
                    "healthz": [c.health] * 30,
                }
                for kind, fns in calls.items():
                    name = f"client.{kind}"
                    for fn in fns:
                        with self.tr.span(name, "client"):
                            fn()
                    res.metric(f"{name}_ms",
                               median(self.tr.durations(name)) * 1e3, "ms")
                res.check(c.retries == 0,
                          f"probe client retried {c.retries} request(s)")
        finally:
            rc = server.stop()
        res.check(rc == 0, f"probe server exited {rc} on SIGTERM")
        res.metric("serve.hop_ms", median(self.tr.durations(
            "client.healthz")) * 1e3 - dispatch["healthz"], "ms")


def probe_layers(ctx, res: Result, campaign: Path, tk) -> Tracer:
    """Run the per-layer pass; *campaign* is a directory holding at most
    ``PROBE_PROFILES`` of the workload's profiles as files, *tk* the
    workload's thicket.  Returns the pass's tracer."""
    p = _Probe(ctx, res, campaign, tk)
    store_dir = p.work / "store"
    store_dir.mkdir()
    payloads = [json.loads(path.read_text()) for path in
                sorted(campaign.glob("*.json"))[:REPEATS * INGEST_SIZE]]
    p.pipelines(p.work / "saved.json")
    p.ingest_layers()
    p.codec(store_dir / "base.json")
    p.analysis(query_pool(tk.graph, stream_rng(ctx.seed, "probe.queries")))
    p.service(store_dir, query_pool(p.base.graph,
                                    stream_rng(ctx.seed, "probe.serve")),
              payloads)
    by_layer = p.tr.self_seconds_by_layer()
    for layer in LAYERS:
        res.metric(f"selftime.{layer}_ms", by_layer[layer] * 1e3, "ms")
    return p.tr


def write_payloads(out_dir: Path, payloads: list[dict]) -> Path:
    """Write ``PROBE_PROFILES`` of the payload dicts, spread evenly over
    them, as a campaign directory of cali-JSON files."""
    out_dir.mkdir(parents=True)
    n = min(len(payloads), PROBE_PROFILES)
    picked = [payloads[i * len(payloads) // n] for i in range(n)]
    for i, payload in enumerate(picked):
        (out_dir / f"rajaperf_{i:04d}.json").write_text(
            json.dumps(payload, sort_keys=True))
    return out_dir
