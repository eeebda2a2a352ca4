"""Command-line interface: quick EDA over a directory of profiles.

The paper's interactive workflows live in notebooks; this CLI covers
the "quick look before opening a notebook" path::

    python -m repro summarize  profiles/
    python -m repro metadata   profiles/ --columns compiler,problem_size
    python -m repro tree       profiles/ --metric "time (exc)" --stat mean
    python -m repro stats      profiles/ --metrics "time (exc)" \
                               --functions mean,std
    python -m repro query      profiles/ --query \
        'MATCH (".", p)->("*")->(".", q) WHERE q."name" =~ ".*block_128"'
    python -m repro model      profiles/ --parameter mpi.world.size \
                               --metric "Avg time/rank"
    python -m repro scaling    profiles/ --node timeStepLoop \
                               --metric "time per cycle (inc)"
    python -m repro ingest     profiles/ --on-error collect
    python -m repro ingest     profiles/ --checkpoint ckpt/ --save tk.json
    python -m repro ingest     profiles/ --jobs 4 --task-timeout 5 \
                               --on-error collect
    python -m repro validate   tk.json
    python -m repro --trace trace.json ingest profiles/
    python -m repro obs        trace.json --tree
    python -m repro lint       src/repro --json

Every subcommand takes ``--on-error {strict,skip,collect}`` (default
``strict``): ``skip``/``collect`` quarantine corrupt profiles instead
of aborting, printing a human-readable quarantine summary on stderr.
They also take ``--jobs N`` (supervised worker pool for profile
read+parse), ``--task-timeout SEC`` (kill + quarantine any profile
task exceeding SEC), and ``--deadline SEC`` (overall wall budget);
the defaults preserve the serial in-process path.

Self-instrumentation (``repro.obs``) is surfaced through three global
flags, accepted both before and after the subcommand name:

``--trace PATH``
    Record spans for the whole command and write a trace file on exit
    (Chrome ``trace_event`` JSON by default, JSONL when *PATH* ends in
    ``.jsonl``).  Load it in Perfetto, summarize it with
    ``repro obs PATH``, or analyze it with ``repro.obs.to_thicket``.
``--metrics``
    Enable telemetry and print the span summary table plus the metrics
    registry to stderr when the command finishes.
``--log-level LEVEL``
    Configure the ``repro.*`` structured-logging hierarchy
    (debug/info/warning/error); the ingest pipeline logs retries and
    quarantined profiles through it.

A fourth global flag, ``--profile HZ``, attaches the background
sampling profiler (:class:`repro.obs.SamplingProfiler`) to any
subcommand and writes a collapsed-stack flamegraph file on exit
(``--profile-out`` picks the path; a ``.json`` suffix switches to the
speedscope format).

The performance watchdog lives under ``repro perf``::

    python -m repro perf record  --store perf/
    python -m repro perf check   --store perf/
    python -m repro perf compare --store perf/ --candidate run-000003
    python -m repro perf history --store perf/ --json

The supervised analysis service lives under ``repro serve``::

    python -m repro serve --store stores/ --port 8080
    python -m repro serve --store stores/ --rate 50 --max-inflight 16 \
                          --soft-limit-mb 512 --hard-limit-mb 1024

It exposes the thicket stores in a directory over an HTTP JSON API
(``/healthz``, ``/readyz``, ``/v1/query``, ``/v1/stats``,
``/v1/ingest``, ``/v1/metrics``) with admission control, per-request
deadlines, and memory-pressure degradation; SIGTERM drains gracefully.

Exit codes: 0 success; 1 command-level failure (e.g. no query match);
2 ingestion failed (strict error, or nothing loadable); 3 partial
ingestion (the command succeeded but profiles were quarantined);
4 corrupt or unreadable durable store (failed checksum, truncated
file, or broken structural invariants under ``repro validate``);
5 static-analysis findings (``repro lint`` found unsuppressed rule
violations); 6 performance regression (``repro perf check``/
``compare`` found call-tree nodes slower than the stored baseline);
7 serve failure (``repro serve`` could not bind its port or the
service aborted outside a clean signal-driven drain).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

__all__ = ["main", "build_parser",
           "EXIT_OK", "EXIT_INGEST_FAILURE", "EXIT_PARTIAL_INGEST",
           "EXIT_CORRUPT_STORE", "EXIT_LINT_FINDINGS",
           "EXIT_PERF_REGRESSION", "EXIT_SERVE_FAILURE"]

EXIT_OK = 0
EXIT_INGEST_FAILURE = 2
EXIT_PARTIAL_INGEST = 3
EXIT_CORRUPT_STORE = 4
EXIT_LINT_FINDINGS = 5
EXIT_PERF_REGRESSION = 6
EXIT_SERVE_FAILURE = 7


def _profile_paths(profile_dir: str) -> list[Path]:
    paths = sorted(Path(profile_dir).glob("*.json"))
    if not paths:
        raise SystemExit(f"no *.json profiles found in {profile_dir}")
    return paths


def _policy_from_args(args):
    """Build the :class:`~repro.resilience.ResiliencePolicy` requested
    by ``--jobs/--task-timeout/--deadline`` (None when all defaulted,
    preserving the historical serial code path exactly)."""
    jobs = getattr(args, "jobs", 1)
    task_timeout = getattr(args, "task_timeout", None)
    deadline = getattr(args, "deadline", None)
    if jobs == 1 and task_timeout is None and deadline is None:
        return None
    from .resilience import ResiliencePolicy

    return ResiliencePolicy(jobs=jobs, task_timeout=task_timeout,
                            deadline=deadline)


def _load_thicket(args):
    """Load the ensemble under the requested error policy.

    Stores the :class:`~repro.ingest.IngestReport` on *args* so
    :func:`main` can turn quarantined profiles into exit code 3, and
    prints the quarantine summary to stderr.
    """
    from .ingest import load_ensemble

    tk, report = load_ensemble(_profile_paths(args.profiles),
                               on_error=args.on_error,
                               policy=_policy_from_args(args))
    args._ingest_report = report
    if not report.ok:
        print(report.summary(), file=sys.stderr)
    if tk is None:
        print(f"no usable profiles in {args.profiles}", file=sys.stderr)
        raise SystemExit(EXIT_INGEST_FAILURE)
    return tk


def _cmd_summarize(args) -> int:
    tk = _load_thicket(args)
    print(tk)
    print(f"\nprofiles : {len(tk.profile)}")
    print(f"nodes    : {len(tk.graph)}")
    print(f"rows     : {len(tk.dataframe)}")
    print(f"metrics  : {', '.join(str(c) for c in tk.performance_cols)}")
    meta_cols = ", ".join(str(c) for c in tk.metadata.columns)
    print(f"metadata : {meta_cols}")
    return 0


def _cmd_metadata(args) -> int:
    tk = _load_thicket(args)
    meta = tk.metadata
    if args.columns:
        wanted = [c.strip() for c in args.columns.split(",")]
        missing = [c for c in wanted if c not in meta]
        if missing:
            raise SystemExit(f"unknown metadata columns: {missing}")
        meta = meta.select(wanted)
    print(meta.to_string(max_rows=args.max_rows))
    return 0


def _cmd_tree(args) -> int:
    from .core import stats as stats_mod

    tk = _load_thicket(args)
    metric = args.metric or tk.default_metric
    if metric is None:
        raise SystemExit("no metric given and no default available")
    if args.stat:
        fn = getattr(stats_mod, args.stat, None)
        if fn is None:
            raise SystemExit(f"unknown statistic {args.stat!r}")
        created = fn(tk, [metric])
        metric = created[0]
    print(tk.tree(metric_column=metric, precision=args.precision,
                  color=args.color))
    return 0


def _cmd_stats(args) -> int:
    from .core import stats as stats_mod

    tk = _load_thicket(args)
    metrics = [m.strip() for m in args.metrics.split(",")]
    functions = [f.strip() for f in args.functions.split(",")]
    for fn_name in functions:
        fn = getattr(stats_mod, fn_name, None)
        if fn is None:
            raise SystemExit(f"unknown statistic {fn_name!r}")
        fn(tk, metrics)
    print(tk.statsframe.to_string(max_rows=args.max_rows))
    return 0


def _cmd_query(args) -> int:
    from .query.dialect import parse_string_dialect

    tk = _load_thicket(args)
    matcher = parse_string_dialect(args.query)
    out = tk.query(matcher)
    if not len(out.graph):
        print("no matches")
        return 1
    print(out.tree(metric_column=args.metric or out.default_metric,
                   precision=args.precision))
    return 0


def _cmd_model(args) -> int:
    from .model import ExtrapInterface

    tk = _load_thicket(args)
    models = ExtrapInterface().model_thicket(tk, args.parameter, args.metric)
    order = {n: i for i, n in enumerate(tk.graph.traverse())}
    for node in sorted(models, key=lambda n: order[n]):
        model = models[node]
        print(f"{node.frame.name:30s} {model}   "
              f"(R2={model.r_squared:.3f}, SMAPE={model.smape:.1f}%)")
    return 0


def _cmd_scaling(args) -> int:
    from .core.scaling import karp_flatt

    tk = _load_thicket(args)
    table = karp_flatt(tk, args.node, args.metric,
                       resource_column=args.resource)
    print(table.to_string())
    return 0


def _cmd_ingest(args) -> int:
    """Health-check a campaign directory: ingest and print the report."""
    import json as json_mod

    from .ingest import load_ensemble

    tk, report = load_ensemble(_profile_paths(args.profiles),
                               on_error=args.on_error,
                               checkpoint=args.checkpoint,
                               policy=_policy_from_args(args))
    args._ingest_report = report
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        if tk is not None:
            print(f"composed: {tk}")
    if tk is None:
        return EXIT_INGEST_FAILURE
    if tk is not None and args.save:
        tk.save(args.save)
        if not args.json:
            print(f"saved: {args.save}")
    return 0


def _cmd_validate(args) -> int:
    """Verify a saved thicket store: checksum + structural invariants."""
    import json as json_mod

    from .core.io import load_thicket

    tk = load_thicket(args.store)  # checksum verified; raises on corruption
    report = tk.validate(repair=args.repair)
    if args.repair and report.repaired:
        tk.save(args.store)
    if args.json:
        doc = report.to_dict()
        doc["store"] = str(args.store)
        print(json_mod.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"{args.store}: checksum ok")
        print(report.summary())
    if not report.ok:
        return EXIT_CORRUPT_STORE
    return 0


def _cmd_serve(args) -> int:
    """Run the supervised analysis service until SIGTERM/SIGINT."""
    from .obs import get_telemetry
    from .serve import (
        AdmissionController,
        AnalysisService,
        PressureGovernor,
        ReproServer,
        WorkerPool,
    )

    # a long-lived daemon must bound its trace buffer
    get_telemetry().set_span_cap(10_000)
    soft, hard = args.soft_limit_mb, args.hard_limit_mb
    if (soft is None) != (hard is None):
        raise SystemExit("serve: --soft-limit-mb and --hard-limit-mb "
                         "must be given together")
    governor = None
    if soft is not None:
        governor = PressureGovernor(soft * 1024 * 1024,
                                    hard * 1024 * 1024)
    admission = AdmissionController(
        max_inflight=args.max_inflight, rate=args.rate, burst=args.burst,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown)
    pool = WorkerPool(args.workers, args.queue_limit,
                      task_timeout=args.request_timeout)
    service = AnalysisService(args.store, admission=admission, pool=pool,
                              governor=governor,
                              request_timeout=args.request_timeout)
    try:
        server = ReproServer(service, args.host, args.port,
                             drain_deadline=args.drain_deadline)
    except OSError as e:
        print(f"serve: cannot bind {args.host}:{args.port}: {e}",
              file=sys.stderr)
        service.shutdown()
        return EXIT_SERVE_FAILURE
    print(f"repro-serve listening on http://{args.host}:{server.port} "
          f"(store={args.store}, workers={args.workers}, "
          f"datasets={len(service.datasets())})",
          file=sys.stderr, flush=True)
    return server.run_until_signal()


def _cmd_remote(args) -> int:
    """Talk to a ``repro serve`` endpoint through the resilient client."""
    import json as json_mod

    from .client import ClientPolicy, ReproClient

    policy = ClientPolicy(
        attempt_timeout=args.attempt_timeout,
        call_timeout=args.timeout,
        max_attempts=args.max_attempts,
        retry_budget_rate=args.retry_budget_rate,
        retry_budget_capacity=args.retry_budget,
        hedge=not args.no_hedge,
        hedge_delay=args.hedge_delay,
    )
    with ReproClient(args.url, policy=policy,
                     client_id=args.client_id) as client:
        cmd = args.remote_command
        if cmd == "health":
            ready, ready_body = client.ready()
            body = {"health": client.health(), "ready": ready,
                    "readyz": ready_body}
        elif cmd == "query":
            body = client.query(args.dataset, args.query,
                                squash=not args.no_squash)
        elif cmd == "stats":
            metrics = args.metrics.split(",") if args.metrics else None
            columns = args.columns.split(",") if args.columns else None
            body = client.stats(args.dataset, metrics=metrics,
                                columns=columns)
        else:  # ingest
            profiles: list = []
            for name in args.files:
                doc = json_mod.loads(Path(name).read_text("utf-8"))
                if isinstance(doc, list):
                    profiles.extend(doc)
                else:
                    profiles.append(doc)
            body = client.ingest(args.dataset, profiles,
                                 overwrite=args.overwrite)
        print(json_mod.dumps(body, indent=2, sort_keys=True))
        diag = client.to_dict()
        print(f"remote {cmd}: ok (retries={diag['retries']}, "
              f"hedges={diag['hedges']}, "
              f"hedge_wins={diag['hedge_wins']}, "
              f"budget_spent={diag['budget']['spent']:g})",
              file=sys.stderr)
    return EXIT_OK


def _cmd_obs(args) -> int:
    """Summarize a trace file recorded with ``--trace``."""
    import json as json_mod

    from . import obs

    path = Path(args.tracefile)
    if not path.exists():
        raise SystemExit(f"no such trace file: {path}")
    roots, metrics = obs.load_trace(path)
    if not roots:
        print(f"{path}: no completed spans", file=sys.stderr)
        return 1
    if args.json:
        doc = {
            "roots": len(roots),
            "spans": sum(1 for r in roots for _ in r.walk()),
            "wall_seconds": round(sum(r.duration for r in roots), 6),
            "metrics": metrics,
        }
        print(json_mod.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(obs.summarize_spans(roots, limit=args.limit))
    if metrics:
        from .obs.metrics import format_snapshot

        print()
        print(format_snapshot(metrics))
    if args.tree:
        tk = obs.to_thicket(roots, metrics=metrics)
        print()
        print(tk.tree(metric_column=args.metric, precision=args.precision))
    return 0


def _cmd_lint(args) -> int:
    """Run the repo's static-analysis rules over source trees/files."""
    from .lint import (
        DEFAULT_CACHE_DIR,
        format_json,
        format_sarif,
        format_text,
        run_lint,
    )

    def rule_ids(text):
        return [r.strip() for r in text.split(",") if r.strip()] \
            if text else None

    project = args.project
    if project is None:
        # the whole-program pass needs a whole program: default on when
        # linting a directory (the `repro lint src/repro` gate), off
        # for single-file spot checks
        project = any(Path(p).is_dir() for p in args.paths)
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    if args.write_baseline and not args.baseline:
        raise SystemExit("lint: --write-baseline requires --baseline FILE")
    try:
        result = run_lint(args.paths, select=rule_ids(args.select),
                          ignore=rule_ids(args.ignore),
                          project=project, cache_dir=cache_dir,
                          baseline=args.baseline,
                          write_baseline=args.write_baseline)
    except ValueError as e:  # unknown rule id / corrupt baseline
        raise SystemExit(f"lint: {e}") from e
    if args.sarif:
        from .ioutil import atomic_write_text

        atomic_write_text(args.sarif, format_sarif(result) + "\n")
    if args.json:
        print(format_json(result))
    else:
        print(format_text(result))
    if args.write_baseline:
        print(f"baseline recorded to {args.baseline} "
              f"({len(result.findings)} finding(s))", file=sys.stderr)
        return EXIT_OK
    return EXIT_OK if result.ok else EXIT_LINT_FINDINGS


def _perf_policy_from_args(args):
    """The sentinel policy with any ``--metric/--alpha/...`` overrides."""
    from .perf import DEFAULT_POLICY

    return DEFAULT_POLICY.with_overrides(
        metric=getattr(args, "metric", None),
        alpha=getattr(args, "alpha", None),
        min_relative_change=getattr(args, "threshold", None),
        min_seconds=getattr(args, "min_seconds", None),
        min_samples=getattr(args, "min_samples", None))


def _perf_workload_roots(args):
    """Run the standard workload for record/check (shared arguments)."""
    from .perf import workload_roots

    work_dir = Path(args.work_dir) if args.work_dir \
        else Path(args.store) / "workload"
    return workload_roots(work_dir, repeats=args.repeats, scale=args.scale)


def _write_verdict(args, verdict) -> None:
    """Print the verdict (and write ``--out``, for CI artifacts)."""
    import json as json_mod

    doc = json_mod.dumps(verdict.to_dict(), indent=2, sort_keys=True)
    if getattr(args, "out", None):
        from .ioutil import atomic_write_text

        atomic_write_text(Path(args.out), doc + "\n")
        print(f"verdict written to {args.out}", file=sys.stderr)
    if args.json:
        print(doc)
    else:
        print(verdict.summary())


def _cmd_perf_record(args) -> int:
    """Run the standard workload once and append it to the history."""
    import json as json_mod

    from .perf import PerfStore

    store = PerfStore(args.store)
    roots = _perf_workload_roots(args)
    info = store.record(roots, label=args.label)
    if args.keep is not None:
        removed = store.prune(args.keep)
        if removed and not args.json:
            print(f"pruned {len(removed)} old run(s): "
                  f"{', '.join(removed)}", file=sys.stderr)
    if args.json:
        print(json_mod.dumps(info.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"recorded {info.run_id} "
              f"({info.meta.get('spans')} spans, commit "
              f"{str(info.meta.get('commit'))[:12]}) -> {store.root}")
    return EXIT_OK


def _cmd_perf_check(args) -> int:
    """Run the workload fresh and gate it against the stored baseline."""
    from .perf import PerfStore, check_store

    store = PerfStore(args.store)
    if len(store) == 0:
        print(f"perf store {store.root} is empty — record a baseline "
              f"first: repro perf record --store {store.root}",
              file=sys.stderr)
        return 1
    roots = _perf_workload_roots(args)
    verdict = check_store(store, roots, _perf_policy_from_args(args),
                          limit=args.limit)
    _write_verdict(args, verdict)
    if verdict.ok and args.record:
        info = store.record(roots, label=args.label)
        print(f"recorded passing candidate as {info.run_id}",
              file=sys.stderr)
    return EXIT_OK if verdict.ok else EXIT_PERF_REGRESSION


def _cmd_perf_compare(args) -> int:
    """Compare a stored run / trace file against the baseline history."""
    from .perf import PerfStore, check_store

    store = PerfStore(args.store)
    verdict = check_store(store, args.candidate,
                          _perf_policy_from_args(args), limit=args.limit)
    _write_verdict(args, verdict)
    return EXIT_OK if verdict.ok else EXIT_PERF_REGRESSION


def _cmd_perf_history(args) -> int:
    """List the recorded runs (checksums verified while listing)."""
    import json as json_mod

    from .perf import PerfStore

    store = PerfStore(args.store)
    if args.prune is not None:
        removed = store.prune(args.prune)
        if removed and not args.json:
            print(f"pruned {len(removed)} old run(s)", file=sys.stderr)
    infos = store.runs()
    if args.json:
        print(json_mod.dumps([i.to_dict() for i in infos],
                             indent=2, sort_keys=True))
        return EXIT_OK
    if not infos:
        print(f"perf store {store.root} has no recorded runs")
        return EXIT_OK
    for info in infos:
        m = info.meta
        print(f"{info.run_id}  ts={m.get('timestamp', 0):.0f}  "
              f"commit={str(m.get('commit'))[:12]}  "
              f"machine={m.get('machine')}  spans={m.get('spans')}  "
              f"label={m.get('label', '-')}")
    return EXIT_OK


def _add_obs_flags(parser, suppress: bool = False,
                   include_metrics: bool = True) -> None:
    """Observability flags; on subparsers the defaults are SUPPRESS so a
    value parsed at the root (``repro --trace x ingest ...``) is not
    clobbered when the flag is omitted after the subcommand.

    ``include_metrics=False`` is for subcommands whose own options
    already claim ``--metrics`` (e.g. ``stats``); there the telemetry
    flag is still accepted in the root position.
    """
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--trace", metavar="PATH", default=default,
                        help="record spans and write a trace file on exit "
                             "(Chrome trace_event JSON; *.jsonl for the "
                             "line-oriented format)")
    if include_metrics:
        parser.add_argument(
            "--metrics", dest="obs_metrics", action="store_true",
            default=argparse.SUPPRESS if suppress else False,
            help="print span/metric summaries to stderr on exit")
    parser.add_argument("--log-level", dest="log_level", default=default,
                        choices=["debug", "info", "warning", "error"],
                        help="configure the repro.* logger hierarchy")
    parser.add_argument("--profile", metavar="HZ", type=float,
                        dest="profile_hz", default=default,
                        help="attach the sampling profiler at HZ samples/s "
                             "and write a flamegraph file on exit")
    parser.add_argument("--profile-out", metavar="PATH", dest="profile_out",
                        default=default,
                        help="profiler output path (default "
                             "repro-profile.collapsed; use a .json suffix "
                             "for speedscope format)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exploratory analysis of call-tree profile ensembles "
                    "(Thicket reproduction)")
    _add_obs_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("profiles", help="directory of *.json cali profiles")
        p.add_argument("--on-error", choices=["strict", "skip", "collect"],
                       default="strict", dest="on_error",
                       help="per-profile error policy: strict aborts on the "
                            "first bad profile, skip/collect quarantine bad "
                            "profiles and compose the rest")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for profile read+parse "
                            "(default 1: serial in-process)")
        p.add_argument("--task-timeout", type=float, default=None,
                       metavar="SEC", dest="task_timeout",
                       help="kill any single profile task exceeding SEC "
                            "wall seconds; the profile is quarantined as "
                            "TaskTimeoutError")
        p.add_argument("--deadline", type=float, default=None,
                       metavar="SEC",
                       help="overall wall budget; profiles still pending "
                            "when it expires are quarantined as "
                            "DeadlineExceededError")
        _add_obs_flags(p, suppress=True,
                       include_metrics=(name != "stats"))
        p.set_defaults(fn=fn)
        return p

    add("summarize", _cmd_summarize, "ensemble overview")

    p = add("metadata", _cmd_metadata, "print the metadata table")
    p.add_argument("--columns", help="comma-separated column subset")
    p.add_argument("--max-rows", type=int, default=40)

    p = add("tree", _cmd_tree, "render the unified call tree")
    p.add_argument("--metric", help="metric column (default: profile default)")
    p.add_argument("--stat", help="aggregate first (mean, std, median, ...)")
    p.add_argument("--precision", type=int, default=3)
    p.add_argument("--color", action="store_true")

    p = add("stats", _cmd_stats, "compute aggregated statistics")
    p.add_argument("--metrics", required=True,
                   help="comma-separated metric columns")
    p.add_argument("--functions", default="mean,std",
                   help="comma-separated statistics")
    p.add_argument("--max-rows", type=int, default=40)

    p = add("query", _cmd_query, "run a string-dialect call-path query")
    p.add_argument("--query", required=True)
    p.add_argument("--metric")
    p.add_argument("--precision", type=int, default=3)

    p = add("model", _cmd_model, "fit Extra-P models for every node")
    p.add_argument("--parameter", required=True,
                   help="metadata column, e.g. mpi.world.size")
    p.add_argument("--metric", required=True)

    p = add("ingest", _cmd_ingest,
            "validate a campaign directory and print the ingest report")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="journal per-profile outcomes to DIR; a re-run "
                        "with the same DIR resumes after an interruption "
                        "instead of re-reading finished profiles")
    p.add_argument("--save", metavar="PATH", default=None,
                   help="save the composed thicket as an atomic "
                        "checksummed store")

    p = sub.add_parser("validate",
                       help="verify a saved thicket store (checksum + "
                            "structural invariants)")
    p.add_argument("store", help="thicket store written by --save / "
                                 "Thicket.save")
    p.add_argument("--repair", action="store_true",
                   help="fix the repairable subset in place and re-save")
    p.add_argument("--json", action="store_true",
                   help="machine-readable validation report")
    _add_obs_flags(p, suppress=True)
    p.set_defaults(fn=_cmd_validate)

    p = add("scaling", _cmd_scaling, "strong-scaling / Karp-Flatt table")
    p.add_argument("--node", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--resource", default="numhosts")

    p = sub.add_parser("lint",
                       help="run the repo's AST static-analysis rules "
                            "(hardening invariants, query literals, and "
                            "whole-program concurrency/exception flow)")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="Python files or directories to lint")
    p.add_argument("--select", metavar="RULES", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--ignore", metavar="RULES", default=None,
                   help="comma-separated rule ids to skip")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings report")
    p.add_argument("--sarif", metavar="PATH", default=None,
                   help="also write a SARIF 2.1.0 report to PATH "
                        "(GitHub code-scanning annotations)")
    p.add_argument("--project", dest="project", action="store_true",
                   default=None,
                   help="run the whole-program pass (call-graph "
                        "concurrency + exception-flow rules); default "
                        "on when linting a directory")
    p.add_argument("--no-project", dest="project", action="store_false",
                   help="skip the whole-program pass")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the incremental lint cache")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="incremental cache location (default "
                        ".repro-lint-cache/)")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="suppress exactly the findings recorded in FILE; "
                        "entries that no longer fire are reported RPR000")
    p.add_argument("--write-baseline", action="store_true",
                   help="record the current findings into --baseline "
                        "FILE and exit 0")
    _add_obs_flags(p, suppress=True)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("serve",
                       help="serve the thicket stores in a directory over "
                            "an HTTP JSON API with admission control and "
                            "graceful degradation")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="directory of <dataset>.json thicket stores "
                        "(created if missing)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="bind port (0 picks a free port; default 8080)")
    p.add_argument("--workers", type=int, default=4, metavar="N",
                   help="request worker threads (default 4)")
    p.add_argument("--queue-limit", type=int, default=16,
                   dest="queue_limit", metavar="N",
                   help="bounded work-queue depth; submissions beyond it "
                        "are shed with 429 (default 16)")
    p.add_argument("--max-inflight", type=int, default=32,
                   dest="max_inflight", metavar="N",
                   help="admission concurrency bound: running + queued "
                        "requests (default 32)")
    p.add_argument("--rate", type=float, default=0.0, metavar="RPS",
                   help="token-bucket requests/second cap "
                        "(0 disables; default 0)")
    p.add_argument("--burst", type=float, default=None, metavar="N",
                   help="token-bucket burst capacity (default: max(1, "
                        "rate))")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   dest="request_timeout", metavar="SEC",
                   help="per-request deadline; a hung query is abandoned "
                        "and its worker replaced (default 30)")
    p.add_argument("--drain-deadline", type=float, default=10.0,
                   dest="drain_deadline", metavar="SEC",
                   help="seconds the SIGTERM graceful drain waits for "
                        "in-flight requests (default 10)")
    p.add_argument("--soft-limit-mb", type=float, default=None,
                   dest="soft_limit_mb", metavar="MB",
                   help="RSS soft watermark: above it the service "
                        "degrades (approximate stats, no ingests)")
    p.add_argument("--hard-limit-mb", type=float, default=None,
                   dest="hard_limit_mb", metavar="MB",
                   help="RSS hard watermark: above it all analysis work "
                        "sheds with 503 until memory recovers")
    p.add_argument("--breaker-threshold", type=int, default=10,
                   dest="breaker_threshold", metavar="N",
                   help="consecutive failures tripping a client's "
                        "circuit breaker (0 disables; default 10)")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   dest="breaker_cooldown", metavar="SEC",
                   help="seconds a tripped client breaker stays open "
                        "(default 5)")
    _add_obs_flags(p, suppress=True)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("remote",
                       help="talk to a repro serve endpoint through the "
                            "resilient client (budgeted retries, deadline "
                            "propagation, hedged reads, idempotency keys)")
    remote_sub = p.add_subparsers(dest="remote_command", required=True)

    def _add_remote_common(rp, include_metrics: bool = True) -> None:
        rp.add_argument("--url", required=True, metavar="URL",
                        help="base URL of the server, e.g. "
                             "http://127.0.0.1:8080")
        rp.add_argument("--timeout", type=float, default=30.0,
                        metavar="SEC",
                        help="whole-call deadline, retries included; the "
                             "remaining budget is propagated to the server "
                             "as X-Repro-Deadline-Ms (default 30)")
        rp.add_argument("--attempt-timeout", type=float, default=10.0,
                        dest="attempt_timeout", metavar="SEC",
                        help="per-attempt socket budget (default 10)")
        rp.add_argument("--max-attempts", type=int, default=4,
                        dest="max_attempts", metavar="N",
                        help="total tries per call (default 4)")
        rp.add_argument("--retry-budget", type=float, default=10.0,
                        dest="retry_budget", metavar="N",
                        help="token-bucket retry capacity shared by the "
                             "whole invocation (default 10)")
        rp.add_argument("--retry-budget-rate", type=float, default=2.0,
                        dest="retry_budget_rate", metavar="RPS",
                        help="retry-token refill per second (0 freezes "
                             "the bucket at its capacity; default 2)")
        rp.add_argument("--no-hedge", action="store_true",
                        dest="no_hedge",
                        help="disable hedged backup requests for reads")
        rp.add_argument("--hedge-delay", type=float, default=None,
                        dest="hedge_delay", metavar="SEC",
                        help="fixed hedge delay (default: derive from the "
                             "observed p95 read latency)")
        rp.add_argument("--client-id", default=None, dest="client_id",
                        metavar="ID",
                        help="stable X-Client-Id for the server's "
                             "per-client admission breaker")
        _add_obs_flags(rp, suppress=True, include_metrics=include_metrics)
        rp.set_defaults(fn=_cmd_remote)

    rp = remote_sub.add_parser("health",
                               help="liveness + readiness of the server")
    _add_remote_common(rp)

    rp = remote_sub.add_parser("query",
                               help="run a string-dialect query remotely")
    rp.add_argument("--dataset", required=True, metavar="NAME",
                    help="served dataset to query")
    rp.add_argument("--query", required=True, metavar="EXPR",
                    help="string-dialect call-path query")
    rp.add_argument("--no-squash", action="store_true", dest="no_squash",
                    help="keep unmatched graph nodes in the result shape")
    _add_remote_common(rp)

    rp = remote_sub.add_parser("stats",
                               help="aggregate statistics for a dataset")
    rp.add_argument("--dataset", required=True, metavar="NAME",
                    help="served dataset to aggregate")
    rp.add_argument("--metrics", default=None, metavar="M1,M2",
                    help="comma-separated statistics (default: mean)")
    rp.add_argument("--columns", default=None, metavar="C1,C2",
                    help="comma-separated metric columns "
                         "(default: all exclusive metrics)")
    _add_remote_common(rp, include_metrics=False)

    rp = remote_sub.add_parser("ingest",
                               help="upload profile JSON files as a new "
                                    "dataset (idempotency-keyed: a retried "
                                    "upload cannot double-ingest)")
    rp.add_argument("--dataset", required=True, metavar="NAME",
                    help="dataset name to create on the server")
    rp.add_argument("files", nargs="+", metavar="FILE",
                    help="JSON files, each one profile payload (or a "
                         "list of them)")
    rp.add_argument("--overwrite", action="store_true",
                    help="replace the dataset if it already exists")
    _add_remote_common(rp)

    p = sub.add_parser("perf", help="performance watchdog: record baseline "
                                    "runs, check candidates for regressions")
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    def add_perf(name, fn, help_text):
        pp = perf_sub.add_parser(name, help=help_text)
        pp.add_argument("--store", default="perf-history", metavar="DIR",
                        help="perf history directory "
                             "(default: perf-history)")
        pp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        _add_obs_flags(pp, suppress=True)
        pp.set_defaults(fn=fn)
        return pp

    def add_perf_workload(pp, repeats=1):
        pp.add_argument("--work-dir", dest="work_dir", default=None,
                        metavar="DIR",
                        help="workload scratch directory (default: "
                             "<store>/workload; profiles are generated "
                             "once and reused)")
        pp.add_argument("--repeats", type=int, default=repeats,
                        metavar="N",
                        help=f"workload passes per run (default {repeats})")
        pp.add_argument("--scale", type=float, default=None, metavar="S",
                        help="campaign scale factor (default 0.1)")
        pp.add_argument("--label", default=None,
                        help="free-form label stored with the run")
        from .perf.harness import DEFAULT_SCALE
        pp.set_defaults(scale=DEFAULT_SCALE)

    def add_perf_policy(pp):
        pp.add_argument("--metric", default=None,
                        help="metric column to compare "
                             "(default: time (inc))")
        pp.add_argument("--alpha", type=float, default=None,
                        help="significance level for Welch's t-test")
        pp.add_argument("--threshold", type=float, default=None,
                        help="minimum relative change to flag "
                             "(fraction, default 0.5)")
        pp.add_argument("--min-seconds", type=float, default=None,
                        dest="min_seconds",
                        help="ignore changes of a node's mean smaller "
                             "than this many seconds (default 0.01)")
        pp.add_argument("--min-samples", type=int, default=None,
                        dest="min_samples",
                        help="runs required on each side before a node "
                             "is judged (default 1)")
        pp.add_argument("--limit", type=int, default=None, metavar="N",
                        help="use only the newest N baseline runs")
        pp.add_argument("--out", default=None, metavar="PATH",
                        help="also write the verdict JSON to PATH "
                             "(atomic; for CI artifacts)")

    pp = add_perf("record", _cmd_perf_record,
                  "run the standard workload and store it as a baseline run")
    add_perf_workload(pp)
    pp.add_argument("--keep", type=int, default=None, metavar="N",
                    help="after recording, prune history to the newest N "
                         "runs")

    pp = add_perf("check", _cmd_perf_check,
                  "run the workload fresh and exit 6 if it regressed "
                  "vs the stored baseline")
    # several candidate passes give every node a Welch's t p-value, so
    # a one-off stall in one pass is weighed, not alerted on outright
    add_perf_workload(pp, repeats=3)
    add_perf_policy(pp)
    pp.add_argument("--record", action="store_true",
                    help="append the candidate to the history when it "
                         "passes")

    pp = add_perf("compare", _cmd_perf_compare,
                  "compare a stored run id or trace file against the "
                  "baseline history")
    pp.add_argument("--candidate", required=True,
                    help="run id (run-NNNNNN) or a --trace file path")
    add_perf_policy(pp)

    pp = add_perf("history", _cmd_perf_history,
                  "list recorded runs (verifying checksums)")
    pp.add_argument("--prune", type=int, default=None, metavar="N",
                    help="first prune history to the newest N runs")

    p = sub.add_parser("obs", help="summarize a --trace file "
                                   "(span table, metrics, span tree)")
    p.add_argument("tracefile", help="trace file written by --trace "
                                     "(Chrome trace_event JSON or JSONL)")
    p.add_argument("--tree", action="store_true",
                   help="load the trace as a Thicket and render the "
                        "span tree")
    p.add_argument("--metric", default="time (inc)",
                   help="metric column for --tree (default: time (inc))")
    p.add_argument("--precision", type=int, default=3)
    p.add_argument("--limit", type=int, default=None,
                   help="show only the top N span names by total wall")
    p.add_argument("--json", action="store_true",
                   help="machine-readable trace summary")
    _add_obs_flags(p, suppress=True)
    p.set_defaults(fn=_cmd_obs)

    return parser


def _finish_telemetry(args) -> None:
    """Export the recorded trace / print metric summaries on exit."""
    from . import obs

    telemetry = obs.get_telemetry()
    obs.disable()
    trace_path = getattr(args, "trace", None)
    if trace_path:
        path = Path(trace_path)
        if path.suffix == ".jsonl":
            obs.write_jsonl(telemetry, path)
        else:
            obs.write_chrome_trace(telemetry, path)
        print(f"trace written to {path} "
              f"({len(telemetry.finished_spans())} root span(s)); "
              f"inspect with: repro obs {path}", file=sys.stderr)
    if getattr(args, "obs_metrics", False):
        print(obs.summarize_spans(telemetry), file=sys.stderr)
        print(telemetry.metrics.summary(), file=sys.stderr)


def _finish_profiler(args, profiler) -> None:
    """Stop the sampling profiler and write its flamegraph file."""
    profiler.stop()
    out = getattr(args, "profile_out", None) or "repro-profile.collapsed"
    path = Path(out)
    if path.suffix == ".json":
        profiler.write_speedscope(path)
        hint = "load at https://www.speedscope.app"
    else:
        profiler.write_collapsed(path)
        hint = "render with flamegraph.pl or speedscope"
    print(f"profile written to {path} ({profiler.total_samples} samples "
          f"@ {profiler.hz:g} Hz; {hint})", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    from .errors import (
        ClientError,
        PersistenceError,
        ReproError,
        ServeError,
    )

    args = build_parser().parse_args(argv)

    log_level = getattr(args, "log_level", None)
    if log_level:
        from . import obs

        obs.configure_logging(log_level)
    tracing = bool(getattr(args, "trace", None)) or getattr(
        args, "obs_metrics", False)
    if tracing:
        from . import obs

        obs.reset()
        obs.enable()
    profiler = None
    profile_hz = getattr(args, "profile_hz", None)
    if profile_hz:
        from .obs import SamplingProfiler

        profiler = SamplingProfiler(hz=profile_hz).start()
    try:
        rc = args.fn(args)
    except (ClientError, ServeError) as e:
        print(f"error [{e.stage}]: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SERVE_FAILURE
    except PersistenceError as e:
        print(f"error [{e.stage}]: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CORRUPT_STORE
    except ReproError as e:
        print(f"error [{e.stage}]: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INGEST_FAILURE
    finally:
        if profiler is not None:
            _finish_profiler(args, profiler)
        if tracing:
            _finish_telemetry(args)
    report = getattr(args, "_ingest_report", None)
    if rc == EXIT_OK and report is not None and report.quarantined:
        return EXIT_PARTIAL_INGEST
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
