"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 repobench/run.py --workload {ingest,analyze,serve} \\
        --seed N --seconds S --trace {0,1}

Sets the workload up from the seed, measures for ``--seconds`` seconds,
checks the program's outputs and prints, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Exits 0 only when every check passed.  See
``repobench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "analyze", "serve")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _check_manifest(res, trace: int) -> None:
    """Every workload prints exactly the metrics ``BENCHMARK.json``
    lists for the mode, each in its unit."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return
    listed = json.loads(manifest.read_text())[
        "per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in res.metrics.items()}
    res.check(got == want, "metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(want) - set(got))}, unlisted "
              f"{sorted(set(got) - set(want))}, units "
              f"{sorted(k for k in set(want) & set(got) if want[k] != got[k])}")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"repobench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    workload = importlib.import_module(f"wl_{args.workload}")
    import repro
    from repro import obs
    import_s = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"repobench: imported repro from {repro.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    # the program's own telemetry must never change what is measured
    obs.disable()

    from harness import Context

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), root=ROOT, work=work,
                  import_s=import_s)
    try:
        res = workload.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        # a traced run reports per-layer metrics only
        res.metrics.pop("setup_s", None)
        spans = ctx.tracer.spans + (ctx.probe_tracer.spans
                                    if ctx.probe_tracer else [])
        ctx.tracer.write(ROOT / ".bench_out" /
                         f"spans-{args.workload}-seed{args.seed}.json",
                         spans)
    _check_manifest(res, args.trace)

    for problem in res.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, m in sorted(res.metrics.items()):
        print(f"{name:42s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics},
                     sort_keys=True))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
