#!/usr/bin/env bash
# Repo health check: tier-1 tests, warning-clean bytecode compilation,
# static analysis, smoke runs of the fault-tolerant ingestion
# benchmark and observability stack, durable-store recovery, a
# columnar-transfer smoke (serial and --jobs 2 stores byte-identical), a
# supervised-parallel chaos smoke (hang + worker crash), the perf
# sentinel, a serve lifecycle smoke (admission, shedding, drain,
# kill -9 recovery), and a client-chaos smoke (repro remote against a
# fault-injecting server: exactly-once ingest under retries, hedged
# tail latency).
#
# Usage: scripts/check.sh  (from anywhere; cd's to the repo root)

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== compileall (warnings are errors) =="
python -W error -m compileall -q src

echo "== static analysis (repro lint, whole-program) =="
# Hard gate: the source tree must carry zero unsuppressed findings —
# per-file rules and the interprocedural concurrency/exception-flow
# rules (the project pass is on by default for a directory).
# LINT_OUT / LINT_SARIF can point at CI workspace paths for upload.
LINT_OUT="${LINT_OUT:-$(pwd)/lint-report.json}"
LINT_SARIF="${LINT_SARIF:-$(pwd)/lint-report.sarif}"
python -m repro lint src/repro --json --sarif "$LINT_SARIF" \
    > "$LINT_OUT" || true
python -m repro lint src/repro
# incremental-cache smoke: a warm run over the unchanged tree must be
# all cache hits and measurably faster than a cold parse
python - <<'PY'
import time

from repro.lint import run_lint

t0 = time.perf_counter()
cold = run_lint(["src/repro"], project=True)  # no cache: parse everything
t1 = time.perf_counter()
warm = run_lint(["src/repro"], project=True,
                cache_dir=".repro-lint-cache")
t2 = time.perf_counter()
assert warm.ok == cold.ok
assert warm.cache_misses == 0, f"{warm.cache_misses} misses on warm run"
assert warm.cache_hits == warm.n_files, warm.cache_hits
assert (t2 - t1) < (t1 - t0), (
    f"warm lint ({t2 - t1:.2f}s) not faster than cold ({t1 - t0:.2f}s)")
print(f"lint cache: cold {t1 - t0:.2f}s, warm {t2 - t1:.2f}s "
      f"({warm.cache_hits} file(s) from cache)")
PY

echo "== ingestion benchmark smoke =="
python -m pytest benchmarks/bench_ingest_faulty.py -q \
    --benchmark-disable

echo "== observability smoke (traced ingest + repro obs) =="
# Trace a small campaign ingest end to end, then validate the emitted
# Chrome trace with the obs subcommand and the Thicket round-trip.
# TRACE_OUT can be pointed at a CI workspace path for artifact upload.
TRACE_OUT="${TRACE_OUT:-$(pwd)/trace-smoke.json}"
OBS_CAMPAIGN=$(mktemp -d)
trap 'rm -rf "$OBS_CAMPAIGN"' EXIT
python - "$OBS_CAMPAIGN" <<'PY'
import sys
from pathlib import Path

from repro.caliper import write_cali_json
from repro.workloads import QUARTZ, generate_rajaperf_profile

out = Path(sys.argv[1])
for i in range(8):
    prof = generate_rajaperf_profile(
        QUARTZ, 1048576 * (1 + i % 2),
        kernels=["Stream_DOT", "Apps_VOL3D"], seed=900 + i,
        metadata={"rep": i})
    write_cali_json(prof, out / f"p{i}.json")
PY
python -m repro --trace "$TRACE_OUT" --log-level info \
    ingest "$OBS_CAMPAIGN"
python -m repro obs "$TRACE_OUT" --tree
python - "$TRACE_OUT" <<'PY'
import sys

import repro.obs as obs

tk = obs.to_thicket(sys.argv[1])
assert "ingest.load_ensemble" in {n.frame.name for n in tk.graph.traverse()}
print(f"trace round-trips as {tk}")
PY

echo "== durable-store recovery smoke =="
# Save a thicket, corrupt the store, and require `repro validate` to
# flag it with the dedicated exit code; then interrupt a checkpointed
# ingest mid-campaign and require the re-run to resume the remainder
# and compose the same thicket.
STORE_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_CAMPAIGN" "$STORE_DIR"' EXIT
python -m repro ingest "$OBS_CAMPAIGN" \
    --save "$STORE_DIR/tk.json" >/dev/null
python -m repro validate "$STORE_DIR/tk.json"
python - "$STORE_DIR/tk.json" <<'PY'
import sys

from repro.workloads import corrupt_store

corrupt_store(sys.argv[1], "byte_flip", seed=7)
PY
rc=0
python -m repro validate "$STORE_DIR/tk.json" 2>/dev/null || rc=$?
if [ "$rc" -ne 4 ]; then
    echo "FAIL: corrupted store exited $rc, expected 4" >&2
    exit 1
fi
echo "corrupt store rejected with exit code 4"
python - "$OBS_CAMPAIGN" "$STORE_DIR" <<'PY'
import sys
from pathlib import Path

import repro.ingest.pipeline as pipe
from repro.ingest import load_ensemble

campaign = sorted(Path(sys.argv[1]).glob("*.json"))
ckpt = Path(sys.argv[2]) / "ckpt"
baseline = load_ensemble(campaign).thicket.to_json()

real_read, reads = pipe._read_text, 0

def crash_after_3(path):
    global reads
    if reads >= 3:
        raise KeyboardInterrupt("simulated interrupt")
    reads += 1
    return real_read(path)

pipe._read_text = crash_after_3
try:
    load_ensemble(campaign, checkpoint=ckpt)
except KeyboardInterrupt:
    pass
finally:
    pipe._read_text = real_read

tk, report = load_ensemble(campaign, checkpoint=ckpt)
assert report.n_resumed == 3, report.n_resumed
assert tk.to_json() == baseline, "resumed thicket differs from from-scratch"
print(f"interrupted ingest resumed {report.n_resumed} profile(s), "
      f"re-read {len(campaign) - report.n_resumed}, thicket identical")
PY

echo "== columnar transfer smoke (serial store == --jobs 2 store) =="
# Workers send typed columns back to the parent.  A sparse campaign over
# three trees (Sequential, OpenMP, CUDA: NaN cells, int and str
# metadata) must save to byte-identical stores serially and with two
# workers, and both stores must validate.
XFER_DIR="$STORE_DIR/xfer"
python - "$XFER_DIR/campaign" <<'PY'
import sys

from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign

write_raja_campaign(sys.argv[1],
                    (RAJA_CAMPAIGN[0], RAJA_CAMPAIGN[2], RAJA_CAMPAIGN[4]),
                    scale=0.1,
                    kernels=["Apps_VOL3D", "Lcals_HYDRO_1D", "Stream_DOT"])
PY
python -m repro ingest "$XFER_DIR/campaign" \
    --save "$XFER_DIR/serial.json" >/dev/null
python -m repro ingest "$XFER_DIR/campaign" --jobs 2 \
    --save "$XFER_DIR/parallel.json" >/dev/null
if ! cmp -s "$XFER_DIR/serial.json" "$XFER_DIR/parallel.json"; then
    echo "FAIL: --jobs 2 store differs from the serial store" >&2
    exit 1
fi
python -m repro validate "$XFER_DIR/serial.json" >/dev/null
python -m repro validate "$XFER_DIR/parallel.json" >/dev/null
echo "serial and --jobs 2 stores byte-identical, both validate"

echo "== chaos smoke (supervised parallel ingest) =="
# Inject one hang and one worker crash into a small campaign, run a
# supervised parallel ingest, and require: exit code 3 (partial
# ingest), both failures attributed with the right error types, and
# every healthy profile loaded.
CHAOS_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_CAMPAIGN" "$STORE_DIR" "$CHAOS_DIR"' EXIT
python - "$CHAOS_DIR" <<'PY'
import sys
from pathlib import Path

from repro.caliper import write_cali_json
from repro.workloads import (
    QUARTZ,
    generate_rajaperf_profile,
    inject_hang,
    inject_worker_crash,
)

out = Path(sys.argv[1])
paths = []
for i in range(8):
    prof = generate_rajaperf_profile(
        QUARTZ, 1048576 * (1 + i % 2),
        kernels=["Stream_DOT", "Apps_VOL3D"], seed=1200 + i,
        metadata={"rep": i})
    paths.append(write_cali_json(prof, out / f"p{i}.json"))
inject_hang(paths[2], seconds=30.0)
inject_worker_crash(paths[5])
PY
CHAOS_REPORT="$STORE_DIR/chaos-report.json"  # NOT in the campaign dir
rc=0
python -m repro ingest "$CHAOS_DIR" --jobs 2 --task-timeout 2 \
    --on-error collect --json > "$CHAOS_REPORT" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: chaos ingest exited $rc, expected 3 (partial)" >&2
    exit 1
fi
python - "$CHAOS_REPORT" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
by_type = {}
for q in doc["quarantined"]:
    by_type.setdefault(q["error_type"], []).append(q["source"])
assert doc["execution"]["jobs"] == 2, doc["execution"]
assert doc["execution"]["timeouts"] == 1, doc["execution"]
assert doc["execution"]["worker_crashes"] == 1, doc["execution"]
assert sorted(by_type) == ["TaskTimeoutError", "WorkerCrashError"], by_type
assert len(doc["loaded"]) == 6, len(doc["loaded"])
print("chaos ingest: 6/8 loaded, hang and crash both attributed, "
      "exit code 3")
PY

echo "== perf sentinel smoke (record, check, staged regression) =="
# Record two baseline runs of the standard workload, require a clean
# candidate to pass, then inject a compute slowdown into the workload's
# campaign and require the sentinel to flag it with exit code 6.
# VERDICT_OUT / PROFILE_OUT can point at CI workspace paths for upload.
VERDICT_OUT="${VERDICT_OUT:-$(pwd)/perf-verdict.json}"
PROFILE_OUT="${PROFILE_OUT:-$(pwd)/perf-flamegraph.collapsed}"
PERF_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_CAMPAIGN" "$STORE_DIR" "$CHAOS_DIR" "$PERF_DIR"' EXIT
PERF_ARGS=(--store "$PERF_DIR/history" --scale 0.05)
python -m repro perf record "${PERF_ARGS[@]}" --label seed
python -m repro perf record "${PERF_ARGS[@]}"
python -m repro --profile 100 --profile-out "$PROFILE_OUT" \
    perf check "${PERF_ARGS[@]}" --out "$VERDICT_OUT"
python -m repro perf history --store "$PERF_DIR/history"
python - "$PERF_DIR/history/workload/profiles" <<'PY'
import sys
from pathlib import Path

from repro.workloads import inject_slowdown

victim = sorted(Path(sys.argv[1]).glob("*.json"))[0]
inject_slowdown(victim, seconds=0.5)
print(f"staged compute regression in {victim.name}")
PY
rc=0
python -m repro perf check "${PERF_ARGS[@]}" --out "$VERDICT_OUT" || rc=$?
if [ "$rc" -ne 6 ]; then
    echo "FAIL: staged regression exited $rc, expected 6" >&2
    exit 1
fi
python - "$VERDICT_OUT" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
assert doc["ok"] is False
nodes = [r["node"] for r in doc["regressions"]]
assert "ingest.profile" in nodes or "perf.workload.ingest" in nodes, nodes
print(f"staged regression caught: {nodes[0]} "
      f"({doc['regressions'][0]['relative_change']:+.1%}), exit code 6")
PY

echo "== serve smoke (concurrency, shed, drain, kill -9 recovery) =="
# Start the analysis daemon against a real store and require, in order:
# concurrent clients all served 200, a saturated queue shed with a
# typed 429 + Retry-After, SIGTERM draining to exit code 0 (with the
# server's own trace written), and kill -9 leaving a store that
# `repro validate` passes and a restarted server picks up cleanly.
# SERVE_TRACE_OUT can point at a CI workspace path for upload.
SERVE_TRACE_OUT="${SERVE_TRACE_OUT:-$(pwd)/serve-trace.json}"
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_CAMPAIGN" "$STORE_DIR" "$CHAOS_DIR" "$PERF_DIR" \
    "$SERVE_DIR"' EXIT
python -m repro ingest "$OBS_CAMPAIGN" \
    --save "$SERVE_DIR/stores/demo.json" >/dev/null

serve_port() {  # wait for the startup banner, echo the bound port
    for _ in $(seq 100); do
        port=$(sed -n 's|.*http://[^:]*:\([0-9]*\).*|\1|p' "$1")
        [ -n "$port" ] && { echo "$port"; return 0; }
        sleep 0.1
    done
    echo "FAIL: serve banner never appeared in $1" >&2
    return 1
}

# phase 1: a generously provisioned server takes a concurrent burst
# with zero sheds, then SIGTERM drains to exit 0 with its trace written
python -m repro --trace "$SERVE_TRACE_OUT" serve \
    --store "$SERVE_DIR/stores" --port 0 --workers 4 --queue-limit 32 \
    --max-inflight 64 --drain-deadline 10 \
    2> "$SERVE_DIR/serve-1.log" &
SERVE_PID=$!
SERVE_PORT=$(serve_port "$SERVE_DIR/serve-1.log")
python - "$SERVE_PORT" <<'PY'
import http.client
import json
import sys
import threading

port = int(sys.argv[1])

def request(method, path, body=None, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()

status, body, _ = request("GET", "/healthz")
assert status == 200, (status, body)

results = []
def worker():
    results.append(request("POST", "/v1/query", {
        "dataset": "demo",
        "query": 'MATCH (".", p) WHERE p."name" =~ "Stream.*"'}))
threads = [threading.Thread(target=worker) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert len(results) == 8
for status, body, _ in results:
    assert status == 200, (status, body)
    assert body["matched_nodes"] >= 1, body
print("serve smoke: 8 concurrent queries all 200")
PY
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: SIGTERM drain exited $rc, expected 0" >&2
    exit 1
fi
if [ ! -s "$SERVE_TRACE_OUT" ]; then
    echo "FAIL: no serve trace written to $SERVE_TRACE_OUT" >&2
    exit 1
fi
echo "serve smoke: SIGTERM drained to exit 0, trace at $SERVE_TRACE_OUT"
# the drained trace carries the request-latency histogram: it must have
# counted the burst above, with ordered quantiles inside [min, max]
python - "$SERVE_TRACE_OUT" <<'PY'
import sys

from repro.obs.export import read_chrome_trace

_, metrics = read_chrome_trace(sys.argv[1])
h = metrics["histograms"]["serve.latency_seconds"]
assert h["count"] > 0, h
assert h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"], h
print(f"serve smoke: serve.latency_seconds n={h['count']} "
      f"p50={h['p50']:.4f}s p99={h['p99']:.4f}s")
PY

# phase 2: a tiny-queue server is wedged with injected hangs and must
# shed the next request with a typed 429 queue_full + Retry-After,
# then survive kill -9 with the store intact
python -m repro serve --store "$SERVE_DIR/stores" --port 0 \
    --workers 2 --queue-limit 1 --max-inflight 16 --request-timeout 2 \
    2> "$SERVE_DIR/serve-2.log" &
SERVE_PID=$!
SERVE_PORT=$(serve_port "$SERVE_DIR/serve-2.log")
python - "$SERVE_PORT" <<'PY'
import http.client
import json
import sys
import threading

port = int(sys.argv[1])

def request(method, path, body=None, timeout=10.0, client=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"}
        if client is not None:
            headers["X-Client-Id"] = client
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()

# wedge both workers plus the 1-slot queue with a sustained stream of
# injected hangs (expired queue items are discarded, not executed, so
# a one-shot volley of three would let the wedge lapse after one
# request timeout; distinct client ids keep the hammer's failures from
# tripping the probe client's breaker)
hang = {"name": "wedge", "overwrite": True, "profiles": [
    {"__repro_fault__": {"mode": "hang", "seconds": 3.0}, "payload": {}}]}
stop = threading.Event()

def hammer(n):
    while not stop.is_set():
        try:
            request("POST", "/v1/ingest", hang, client=f"wedge-{n}")
        except OSError:
            pass

hangers = [threading.Thread(target=hammer, args=(n,), daemon=True)
           for n in range(4)]
for t in hangers:
    t.start()
shed = None
try:
    for _ in range(100):
        status, body, headers = request("POST", "/v1/query", {
            "dataset": "demo", "query": 'MATCH (".", p)'},
            client="probe")
        if status == 429 and body["error"]["code"] == "queue_full":
            shed = status, body, headers
            break
finally:
    stop.set()
assert shed is not None, "queue never saturated into a 429 queue_full"
status, body, headers = shed
assert "Retry-After" in headers, headers
for t in hangers:
    t.join(timeout=15.0)
print(f"serve smoke: saturated queue shed with 429 "
      f"(Retry-After: {headers['Retry-After']})")
PY
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
python -m repro validate "$SERVE_DIR/stores/demo.json"
python -m repro serve --store "$SERVE_DIR/stores" --port 0 \
    2> "$SERVE_DIR/serve-3.log" &
SERVE_PID=$!
SERVE_PORT=$(serve_port "$SERVE_DIR/serve-3.log")
python - "$SERVE_PORT" <<'PY'
import http.client
import json
import sys

conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=10.0)
conn.request("POST", "/v1/query", body=json.dumps(
    {"dataset": "demo", "query": 'MATCH (".", p)'}),
    headers={"Content-Type": "application/json"})
resp = conn.getresponse()
body = json.loads(resp.read())
assert resp.status == 200, (resp.status, body)
conn.close()
print("serve smoke: post-kill-9 restart validates and serves")
PY
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

echo "== client-chaos smoke (repro remote vs fault injection) =="
# Run the resilient CLI client against a FlakyServer injecting dropped
# connections, 500s, and duplicate deliveries at 30%, and require:
# `repro remote ingest` retried to success (exit 0) with *exactly one*
# server-side execution (store profile count exact), query/health
# succeeding through the same fault mix, and the client's own trace
# written.  Then a same-seed slow-replica pair must show hedged reads
# beating un-hedged reads at p99.
# CLIENT_TRACE_OUT can point at a CI workspace path for upload.
CLIENT_TRACE_OUT="${CLIENT_TRACE_OUT:-$(pwd)/client-trace.json}"
CLIENT_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_CAMPAIGN" "$STORE_DIR" "$CHAOS_DIR" "$PERF_DIR" \
    "$SERVE_DIR" "$CLIENT_DIR"' EXIT
python - "$CLIENT_DIR/stores" 31 0.3 \
    drop_connection,http_500,duplicate_delivery \
    2> "$CLIENT_DIR/flaky.log" <<'PY' &
import signal
import sys
import threading

from repro.serve import AdmissionController, AnalysisService, WorkerPool
from repro.workloads import FlakyServer

store, seed, rate, modes = sys.argv[1:5]
service = AnalysisService(
    store,
    pool=WorkerPool(workers=4, queue_limit=32, task_timeout=10.0),
    admission=AdmissionController(max_inflight=64),
    request_timeout=10.0)
flaky = FlakyServer(service, fault_rate=float(rate),
                    modes=tuple(modes.split(",")), seed=int(seed))
flaky.start()
print(f"flaky server listening on {flaky.url}", file=sys.stderr,
      flush=True)
stop = threading.Event()
signal.signal(signal.SIGTERM, lambda *_: stop.set())
stop.wait()
print(f"flaky server injected: {flaky.to_dict()}", file=sys.stderr,
      flush=True)
flaky.close()
PY
FLAKY_PID=$!
FLAKY_PORT=$(serve_port "$CLIENT_DIR/flaky.log")
FLAKY_URL="http://127.0.0.1:$FLAKY_PORT"
REMOTE=(--url "$FLAKY_URL" --timeout 60 --attempt-timeout 10 \
    --max-attempts 8 --retry-budget 16)
python -m repro --trace "$CLIENT_TRACE_OUT" remote ingest \
    "${REMOTE[@]}" --dataset chaos "$OBS_CAMPAIGN"/*.json >/dev/null
python -m repro remote query "${REMOTE[@]}" --dataset chaos \
    --query 'MATCH (".", p) WHERE p."name" = "Stream_DOT"' >/dev/null
python -m repro remote health "${REMOTE[@]}" >/dev/null
kill -TERM "$FLAKY_PID"
wait "$FLAKY_PID" || true
if [ ! -s "$CLIENT_TRACE_OUT" ]; then
    echo "FAIL: no client trace written to $CLIENT_TRACE_OUT" >&2
    exit 1
fi
python - "$CLIENT_DIR/stores/chaos.json" "$OBS_CAMPAIGN" <<'PY'
import sys
from pathlib import Path

from repro import Thicket

tk = Thicket.load(sys.argv[1])
expected = len(list(Path(sys.argv[2]).glob("*.json")))
assert len(tk.profile) == expected, (
    f"exactly-once violated: {len(tk.profile)} profiles in store, "
    f"{expected} ingested")
print(f"client-chaos smoke: ingest through 30% faults exactly once "
      f"({expected} profiles, store exact), query + health ok")
PY
python <<'PY'
# hedged vs un-hedged tail latency on a same-seed slow replica: 30% of
# responses stall 0.5 s mid-body; the hedged client fires a backup leg
# after 50 ms and must win the tail.
import tempfile
import time

from repro.client import ClientPolicy, ReproClient
from repro.serve import AdmissionController, AnalysisService, WorkerPool
from repro.workloads import FlakyServer


def p99(samples):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def measure(hedge):
    with tempfile.TemporaryDirectory() as store:
        service = AnalysisService(
            store,
            pool=WorkerPool(workers=4, queue_limit=32, task_timeout=10.0),
            admission=AdmissionController(max_inflight=64),
            request_timeout=10.0)
        policy = ClientPolicy(hedge=hedge, hedge_delay=0.05,
                              attempt_timeout=5.0, backoff=0.01,
                              backoff_jitter=0.0,
                              retry_budget_capacity=64.0)
        flaky = FlakyServer(service, modes=("slow_body",),
                            fault_rate=0.3, seed=3, slow_delay=0.5)
        latencies = []
        with flaky:
            with ReproClient(flaky.url, policy=policy) as client:
                for _ in range(30):
                    start = time.perf_counter()
                    client.request("GET", "/v1/datasets")
                    latencies.append(time.perf_counter() - start)
                return latencies, client.hedges, client.hedge_wins


unhedged, _, _ = measure(False)
hedged, hedges, wins = measure(True)
slow, fast = p99(unhedged), p99(hedged)
assert hedges > 0 and wins > 0, (hedges, wins)
assert fast < slow, (
    f"hedging did not beat the tail: hedged p99 {fast:.3f}s vs "
    f"un-hedged p99 {slow:.3f}s")
print(f"client-chaos smoke: hedged p99 {fast * 1000:.0f}ms < "
      f"un-hedged p99 {slow * 1000:.0f}ms "
      f"({hedges} hedges, {wins} wins)")
PY

echo "== all checks passed =="
