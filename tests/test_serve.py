"""repro.serve: admission control, supervision, degradation, lifecycle.

Unit layers (token bucket, admission controller, worker pool, pressure
governor) are tested with injected clocks and RSS readers — no
sleeping, no sockets.  The service layer is tested through
``AnalysisService.dispatch`` (transport-free), the HTTP shell over a
real loopback socket on an ephemeral port, the CLI via subprocesses
(SIGTERM drain, ``kill -9`` + restart recovery), and the whole stack
under the chaos acceptance scenario from the issue: concurrent
clients, injected hangs and slow I/O, and a staged memory-ballast ramp
through both watermarks.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import Thicket
from repro.caliper.writer import profile_to_cali_dict
from repro.errors import (
    NotFoundError,
    NotReadyError,
    OverloadedError,
    QueryValidationError,
    RequestTimeoutError,
)
from repro.readers import read_cali_dict
from repro.serve import (
    AdmissionController,
    AnalysisService,
    PressureGovernor,
    ReproServer,
    STATE_DEGRADED,
    STATE_OK,
    STATE_SHEDDING,
    TokenBucket,
    WorkerPool,
    error_payload,
)
from repro.workloads import QUARTZ, generate_rajaperf_profile

KERNELS = ["Stream_DOT", "Apps_VOL3D"]


class FakeClock:
    def __init__(self, start=0.0):
        self.t = start

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _payloads(n=2, kernels=KERNELS, seed0=1):
    return [profile_to_cali_dict(generate_rajaperf_profile(
        QUARTZ, 1048576, kernels=kernels, seed=seed0 + i))
        for i in range(n)]


def _make_store(tmp_path, name="demo"):
    store = tmp_path / "stores"
    store.mkdir(exist_ok=True)
    gfs = [read_cali_dict(p) for p in _payloads()]
    tk = Thicket.from_caliperreader(gfs)
    tk.save(store / f"{name}.json")
    return store


@pytest.fixture
def store_dir(tmp_path):
    return _make_store(tmp_path)


@pytest.fixture
def service(store_dir):
    svc = AnalysisService(
        store_dir,
        admission=AdmissionController(max_inflight=8),
        pool=WorkerPool(workers=2, queue_limit=8, task_timeout=5.0,
                        watchdog_interval=0.05),
        request_timeout=5.0)
    yield svc
    svc.shutdown()


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_admitted_then_shed_with_refill_estimate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2 tokens/s

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.advance(0.1)
        assert bucket.try_acquire() == 0.0

    def test_rate_zero_always_admits(self):
        bucket = TokenBucket(rate=0.0)
        assert all(bucket.try_acquire() == 0.0 for _ in range(1000))

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=5.0, burst=0.5)

    def test_available_refills_caps_at_burst_and_never_consumes(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert bucket.available() == 3.0
        assert bucket.available() == 3.0  # reading spends nothing
        assert bucket.try_acquire(2.0) == 0.0
        assert bucket.available() == pytest.approx(1.0)
        clock.advance(0.5)
        assert bucket.available() == pytest.approx(2.0)  # 1 token back
        clock.advance(60.0)
        assert bucket.available() == 3.0  # capped at burst
        assert [bucket.try_acquire() for _ in range(3)] == [0.0] * 3


# ----------------------------------------------------------------------
# admission controller
# ----------------------------------------------------------------------

class TestAdmissionController:
    def test_admits_up_to_max_inflight_then_sheds_queue_full(self):
        ctrl = AdmissionController(max_inflight=2, clock=FakeClock())
        t1, t2 = ctrl.admit("a"), ctrl.admit("a")
        assert ctrl.inflight == 2
        with pytest.raises(OverloadedError) as ei:
            ctrl.admit("a")
        assert ei.value.reason == "queue_full"
        assert ei.value.status == 429
        t1.release()
        ctrl.admit("a").release()
        t2.release()
        assert ctrl.inflight == 0

    def test_ticket_release_is_idempotent(self):
        ctrl = AdmissionController(max_inflight=1)
        t = ctrl.admit("a")
        t.release()
        t.release()
        assert ctrl.inflight == 0
        ctrl.admit("a")  # the slot really is free again

    def test_rate_limit_shed_carries_retry_after(self):
        clock = FakeClock()
        ctrl = AdmissionController(max_inflight=8, rate=1.0, burst=1,
                                   clock=clock)
        ctrl.admit("a").release()
        with pytest.raises(OverloadedError) as ei:
            ctrl.admit("a")
        assert ei.value.reason == "rate_limited"
        assert ei.value.retry_after > 0.0

    def test_failing_client_trips_its_breaker_not_others(self):
        clock = FakeClock()
        ctrl = AdmissionController(max_inflight=8, breaker_threshold=3,
                                   breaker_cooldown=10.0, clock=clock)
        for _ in range(3):
            t = ctrl.admit("bad")
            t.failure()
            t.release()
        with pytest.raises(OverloadedError) as ei:
            ctrl.admit("bad")
        assert ei.value.reason == "circuit_open"
        assert 0.0 < ei.value.retry_after <= 10.0
        ctrl.admit("good").release()  # other clients unaffected

    def test_breaker_halfopen_probe_after_cooldown(self):
        clock = FakeClock()
        ctrl = AdmissionController(max_inflight=8, breaker_threshold=1,
                                   breaker_cooldown=5.0, clock=clock)
        t = ctrl.admit("c")
        t.failure()
        t.release()
        with pytest.raises(OverloadedError):
            ctrl.admit("c")
        clock.advance(5.1)
        probe = ctrl.admit("c")  # half-open probe admitted
        probe.success()
        probe.release()
        ctrl.admit("c").release()  # closed again


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

class TestWorkerPool:
    def test_runs_and_returns(self):
        pool = WorkerPool(workers=2, queue_limit=4)
        try:
            assert pool.run(lambda a, b: a + b, 2, 3, timeout=5.0) == 5
        finally:
            pool.shutdown()

    def test_exceptions_cross_the_pool_boundary(self):
        pool = WorkerPool(workers=1, queue_limit=4)
        try:
            def boom():
                raise QueryValidationError("nope")
            with pytest.raises(QueryValidationError):
                pool.run(boom, timeout=5.0)
        finally:
            pool.shutdown()

    def test_deadline_raises_request_timeout(self):
        pool = WorkerPool(workers=1, queue_limit=4, task_timeout=30.0)
        release = threading.Event()
        try:
            with pytest.raises(RequestTimeoutError):
                pool.run(release.wait, 10.0, timeout=0.1, label="slow")
        finally:
            release.set()
            pool.shutdown()

    def test_queue_full_sheds(self):
        pool = WorkerPool(workers=1, queue_limit=1, task_timeout=30.0)
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait(10.0)

        try:
            pool.submit(block)
            started.wait(5.0)       # worker busy…
            pool.submit(block)      # …queue holds exactly one more
            with pytest.raises(OverloadedError) as ei:
                pool.submit(lambda: None)
            assert ei.value.reason == "queue_full"
        finally:
            release.set()
            pool.shutdown()

    def test_watchdog_replaces_stuck_worker(self):
        pool = WorkerPool(workers=1, queue_limit=4, task_timeout=0.1,
                          grace=0.05, watchdog_interval=0.02)
        release = threading.Event()
        try:
            item = pool.submit(release.wait, 10.0, label="hung")
            assert item.done.wait(5.0)   # watchdog attributed the hang
            assert isinstance(item.error, RequestTimeoutError)
            assert item.abandoned
            assert pool.replaced == 1
            # the replacement worker serves new requests fine
            assert pool.run(lambda: 42, timeout=5.0) == 42
        finally:
            release.set()
            pool.shutdown()

    def test_late_result_after_timeout_is_discarded(self):
        pool = WorkerPool(workers=1, queue_limit=4, task_timeout=30.0)
        release = threading.Event()

        def slow():
            release.wait(10.0)
            return "late"

        try:
            item = pool.submit(slow, label="slow")
            with pytest.raises(RequestTimeoutError):
                pool.run(lambda: None, timeout=0.05, label="queued")
        except RequestTimeoutError:
            pass
        finally:
            release.set()
            pool.shutdown()
        assert item.result != "late" or item.abandoned is False

    def test_drain_waits_for_inflight(self):
        pool = WorkerPool(workers=2, queue_limit=4)
        release = threading.Event()
        try:
            pool.submit(release.wait, 10.0)
            assert not pool.drain(deadline=0.1)
            release.set()
            assert pool.drain(deadline=5.0)
            assert pool.idle
        finally:
            release.set()
            pool.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(queue_limit=0)
        with pytest.raises(ValueError):
            WorkerPool(task_timeout=0)


# ----------------------------------------------------------------------
# pressure governor
# ----------------------------------------------------------------------

class TestPressureGovernor:
    def _gov(self, readings, **kw):
        it = iter(readings)
        return PressureGovernor(100.0, 200.0, rss_reader=lambda: next(it),
                                clock=FakeClock(), **kw)

    def test_ok_to_degraded_to_shedding_and_back(self):
        gov = self._gov([50, 150, 250, 150, 80, 50])
        assert gov.update() == STATE_OK
        assert gov.update() == STATE_DEGRADED
        assert gov.update() == STATE_SHEDDING
        assert gov.update() == STATE_DEGRADED  # 150 < 200*0.9
        assert gov.update() == STATE_OK        # 80 < 100*0.9
        assert gov.update() == STATE_OK

    def test_hysteresis_prevents_flapping(self):
        gov = self._gov([150, 95, 95, 85])
        assert gov.update() == STATE_DEGRADED
        # 95 >= 100*0.9: still degraded despite being under the limit
        assert gov.update() == STATE_DEGRADED
        assert gov.update() == STATE_DEGRADED
        assert gov.update() == STATE_OK

    def test_shedding_holds_until_recovery_fraction(self):
        gov = self._gov([250, 190, 170])
        assert gov.update() == STATE_SHEDDING
        assert gov.update() == STATE_SHEDDING   # 190 >= 200*0.9
        assert gov.update() == STATE_DEGRADED   # 170 < 180

    def test_on_transition_fires_outside_lock(self):
        seen = []
        gov = self._gov([150, 50])
        gov.on_transition = lambda old, new, rss: seen.append(
            (old, new, gov.state))  # touching .state proves no deadlock
        gov.update()
        gov.update()
        assert [(o, n) for o, n, _ in seen] == [
            (STATE_OK, STATE_DEGRADED), (STATE_DEGRADED, STATE_OK)]

    def test_to_dict_snapshot(self):
        gov = self._gov([150])
        gov.update()
        doc = gov.to_dict()
        assert doc["state"] == STATE_DEGRADED
        assert doc["rss_bytes"] == 150
        assert doc["transitions"] == 1

    def test_at_least_ordering(self):
        gov = self._gov([150])
        gov.update()
        assert gov.at_least(STATE_OK)
        assert gov.at_least(STATE_DEGRADED)
        assert not gov.at_least(STATE_SHEDDING)

    def test_background_thread_samples(self):
        gov = PressureGovernor(100.0, 200.0, interval=0.01,
                               rss_reader=lambda: 150.0)
        with gov:
            assert gov.running
            deadline = time.monotonic() + 5.0
            while gov.state != STATE_DEGRADED \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gov.state == STATE_DEGRADED
        assert not gov.running

    def test_validation(self):
        with pytest.raises(ValueError):
            PressureGovernor(200.0, 100.0)
        with pytest.raises(ValueError):
            PressureGovernor(100.0, 200.0, recovery_fraction=1.5)
        with pytest.raises(ValueError):
            PressureGovernor(100.0, 200.0, interval=0)


# ----------------------------------------------------------------------
# error mapping
# ----------------------------------------------------------------------

class TestErrorPayload:
    def test_overloaded_maps_to_429_with_retry_after(self):
        status, body, headers = error_payload(
            OverloadedError("full", retry_after=2.5, reason="queue_full"))
        assert status == 429
        assert body["error"]["code"] == "queue_full"
        assert headers["Retry-After"] == "2.5"

    def test_not_ready_maps_to_503(self):
        status, body, headers = error_payload(
            NotReadyError("draining", reason="draining"))
        assert status == 503
        assert body["error"]["code"] == "draining"
        assert "Retry-After" in headers

    def test_timeout_maps_to_503_deadline(self):
        status, body, _ = error_payload(RequestTimeoutError("slow"))
        assert status == 503
        assert body["error"]["code"] == "deadline_exceeded"

    def test_not_found_maps_to_404(self):
        status, body, _ = error_payload(NotFoundError("gone"))
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_validation_errors_map_to_400(self):
        for exc in (QueryValidationError("bad"), ValueError("bad"),
                    TypeError("bad"), KeyError("bad")):
            status, body, _ = error_payload(exc)
            assert status == 400
            assert body["error"]["code"] == "bad_request"

    def test_unknown_exception_is_opaque_500(self):
        status, body, _ = error_payload(RuntimeError("secret path leak"))
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert "secret" not in body["error"]["message"]


# ----------------------------------------------------------------------
# service dispatch (transport-free)
# ----------------------------------------------------------------------

class TestAnalysisServiceDispatch:
    def test_healthz_and_readyz(self, service):
        assert service.dispatch("GET", "/healthz", None, "c")[0] == 200
        status, body, _ = service.dispatch("GET", "/readyz", None, "c")
        assert status == 200
        assert body["status"] == "ok"

    def test_datasets_listing(self, service):
        _, body, _ = service.dispatch("GET", "/v1/datasets", None, "c")
        assert body == {"datasets": ["demo"]}

    def test_query_roundtrip_and_cache(self, service):
        req = {"dataset": "demo",
               "query": 'MATCH (".", p) WHERE p."name" = "Stream_DOT"'}
        status, body, _ = service.dispatch("POST", "/v1/query", req, "c")
        assert status == 200
        assert body["node_names"] == ["Stream_DOT"]
        assert body["profiles"] == 2
        again = service.dispatch("POST", "/v1/query", req, "c")
        assert again[1] == body  # served from the result cache

    def test_unknown_dataset_404(self, service):
        status, body, _ = service.dispatch(
            "POST", "/v1/query", {"dataset": "ghost", "query": "x"}, "c")
        assert (status, body["error"]["code"]) == (404, "not_found")

    def test_unknown_endpoint_404(self, service):
        assert service.dispatch("GET", "/v1/nope", None, "c")[0] == 404
        assert service.dispatch("PUT", "/healthz", None, "c")[0] == 404

    def test_invalid_query_400(self, service):
        status, body, _ = service.dispatch(
            "POST", "/v1/query",
            {"dataset": "demo",
             "query": 'MATCH (".", p) WHERE p."no_such_metric" > 1'}, "c")
        assert (status, body["error"]["code"]) == (400, "bad_request")

    def test_missing_fields_400(self, service):
        for payload in ({}, {"dataset": "demo"}, {"query": "x"},
                        {"dataset": 7, "query": "x"},
                        {"dataset": "../evil", "query": "x"}):
            status, body, _ = service.dispatch(
                "POST", "/v1/query", payload, "c")
            assert status == 400

    def test_stats_exact(self, service):
        status, body, _ = service.dispatch(
            "POST", "/v1/stats",
            {"dataset": "demo", "metrics": ["mean", "std"]}, "c")
        assert status == 200
        assert body["approximate"] is False
        assert any(c.endswith("_mean") for c in body["columns"]["mean"])
        assert "Stream_DOT" in body["nodes"]

    def test_stats_unknown_function_400(self, service):
        status, _, _ = service.dispatch(
            "POST", "/v1/stats",
            {"dataset": "demo", "metrics": ["geomean"]}, "c")
        assert status == 400

    def test_ingest_creates_store_and_validates(self, service,
                                                store_dir):
        status, body, _ = service.dispatch(
            "POST", "/v1/ingest",
            {"dataset": "fresh", "profiles": _payloads(1, seed0=9)}, "c")
        assert status == 200
        path = store_dir / "fresh.json"
        assert path.exists()
        tk = Thicket.load(path, verify=True)
        assert tk.validate().ok
        assert "fresh" in service.datasets()

    def test_ingest_existing_without_overwrite_400(self, service):
        status, body, _ = service.dispatch(
            "POST", "/v1/ingest",
            {"dataset": "demo", "profiles": _payloads(1)}, "c")
        assert status == 400

    def test_concurrent_create_same_name_one_wins(self, service, store_dir,
                                                  monkeypatch):
        import repro.ingest

        real = repro.ingest.load_ensemble
        entered, release = threading.Event(), threading.Event()

        def blocking_load(*args, **kwargs):
            entered.set()
            assert release.wait(30.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.ingest, "load_ensemble", blocking_load)
        first = {}

        def create_a():
            first["reply"] = service.dispatch(
                "POST", "/v1/ingest",
                {"dataset": "race", "profiles": _payloads(2, seed0=5)}, "a")

        a = threading.Thread(target=create_a)
        a.start()
        try:
            assert entered.wait(30.0)  # A holds the name, mid-ingest
            status, body, _ = service.dispatch(
                "POST", "/v1/ingest",
                {"dataset": "race", "profiles": _payloads(1, seed0=9)}, "b")
            assert status == 400
            assert "already exists" in body["error"]["message"]
        finally:
            release.set()
            a.join(30.0)
        assert first["reply"][0] == 200
        tk = Thicket.load(store_dir / "race.json", verify=True)
        assert len(tk.profile) == 2  # A's profiles, not B's one

    def test_metrics_endpoint_shape(self, service):
        service.dispatch("GET", "/healthz", None, "c")
        status, body, _ = service.dispatch("GET", "/v1/metrics", None, "c")
        assert status == 200
        assert set(body) >= {"counters", "gauges", "histograms"}

    def test_internal_bug_becomes_typed_500(self, service, monkeypatch):
        monkeypatch.setattr(service, "_do_query",
                            lambda payload: 1 / 0)
        status, body, _ = service.dispatch(
            "POST", "/v1/query", {"dataset": "demo", "query": "x"}, "c")
        assert status == 500
        assert body["error"]["code"] == "internal"


class TestServiceDegradation:
    def _svc(self, store_dir, readings):
        it = iter(readings)
        gov = PressureGovernor(100.0, 200.0,
                               rss_reader=lambda: next(it),
                               clock=FakeClock())
        svc = AnalysisService(
            store_dir, governor=gov,
            pool=WorkerPool(workers=2, queue_limit=8),
            request_timeout=5.0)
        return svc, gov

    def test_degraded_stats_are_approximate_and_flagged(self, store_dir):
        svc, gov = self._svc(store_dir, [150])
        try:
            gov.update()
            status, body, _ = svc.dispatch(
                "POST", "/v1/stats",
                {"dataset": "demo", "metrics": ["mean"]}, "c")
            assert status == 200
            assert body["approximate"] is True
            assert body["profiles"] == 2
        finally:
            svc.shutdown()

    def test_degraded_refuses_ingest_503(self, store_dir):
        svc, gov = self._svc(store_dir, [150])
        try:
            gov.update()
            status, body, headers = svc.dispatch(
                "POST", "/v1/ingest",
                {"dataset": "x", "profiles": _payloads(1)}, "c")
            assert status == 503
            assert body["error"]["code"] == "memory_pressure"
            assert "Retry-After" in headers
        finally:
            svc.shutdown()

    def test_degradation_evicts_result_cache(self, store_dir):
        svc, gov = self._svc(store_dir, [50, 150])
        try:
            gov.update()
            req = {"dataset": "demo",
                   "query": 'MATCH (".", p) WHERE p."name" = "Stream_DOT"'}
            assert svc.dispatch("POST", "/v1/query", req, "c")[0] == 200
            assert len(svc._results) == 1
            gov.update()  # → degraded
            assert len(svc._results) == 0
        finally:
            svc.shutdown()

    def test_shedding_sheds_work_evicts_thickets_readyz_503(
            self, store_dir):
        svc, gov = self._svc(store_dir, [50, 250])
        try:
            gov.update()
            req = {"dataset": "demo",
                   "query": 'MATCH (".", p) WHERE p."name" = "Stream_DOT"'}
            svc.dispatch("POST", "/v1/query", req, "c")
            assert len(svc._thickets) == 1
            gov.update()  # → shedding
            assert len(svc._thickets) == 0
            status, body, _ = svc.dispatch("POST", "/v1/query", req, "c")
            assert status == 503
            assert body["error"]["code"] == "memory_pressure"
            status, body, _ = svc.dispatch("GET", "/readyz", None, "c")
            assert status == 503
            assert body["pressure"]["state"] == STATE_SHEDDING
            # liveness stays green: the process is healthy, just full
            assert svc.dispatch("GET", "/healthz", None, "c")[0] == 200
        finally:
            svc.shutdown()

    def test_draining_sheds_and_readyz_503(self, service):
        service.begin_drain()
        status, body, _ = service.dispatch("GET", "/readyz", None, "c")
        assert status == 503
        assert body["draining"] is True
        status, body, _ = service.dispatch(
            "POST", "/v1/query",
            {"dataset": "demo", "query": "x"}, "c")
        assert status == 503
        assert body["error"]["code"] == "draining"


# ----------------------------------------------------------------------
# HTTP end-to-end (loopback socket, ephemeral port)
# ----------------------------------------------------------------------

def _request(port, method, path, body=None, client="t", timeout=10):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body, sort_keys=True) if body is not None \
            else None
        conn.request(method, path, payload,
                     {"Content-Type": "application/json",
                      "X-Client-Id": client})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data.decode("utf-8")), dict(
            resp.getheaders())
    finally:
        conn.close()


class TestHTTPEndToEnd:
    @pytest.fixture
    def server(self, store_dir):
        svc = AnalysisService(
            store_dir,
            admission=AdmissionController(max_inflight=8),
            pool=WorkerPool(workers=2, queue_limit=8),
            request_timeout=5.0)
        srv = ReproServer(svc, port=0, drain_deadline=5.0)
        srv.start()
        yield srv
        srv.drain()

    def test_query_over_the_wire(self, server):
        status, body, _ = _request(
            server.port, "POST", "/v1/query",
            {"dataset": "demo",
             "query": 'MATCH (".", p) WHERE p."name" = "Stream_DOT"'})
        assert status == 200
        assert body["node_names"] == ["Stream_DOT"]

    def test_malformed_json_body_is_typed_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/query", "{not json",
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = json.loads(resp.read().decode())
            assert resp.status == 400
            assert body["error"]["code"] == "bad_request"
        finally:
            conn.close()

    def test_unknown_path_is_json_404(self, server):
        status, body, _ = _request(server.port, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_tiny_queue_bound_sheds_429_with_retry_after(self, store_dir):
        svc = AnalysisService(
            store_dir,
            admission=AdmissionController(max_inflight=1),
            pool=WorkerPool(workers=1, queue_limit=2),
            request_timeout=10.0)
        srv = ReproServer(svc, port=0, drain_deadline=5.0)
        srv.start()
        try:
            release = threading.Event()
            svc.pool.submit(release.wait, 30.0)   # occupy the worker
            hold = svc.admission.admit("other")   # occupy the only slot
            try:
                status, body, headers = _request(
                    srv.port, "POST", "/v1/query",
                    {"dataset": "demo", "query": "x"})
                assert status == 429
                assert body["error"]["code"] == "queue_full"
                assert "Retry-After" in headers
            finally:
                hold.release()
                release.set()
        finally:
            srv.drain()

    def test_concurrent_clients_all_200(self, server):
        req = {"dataset": "demo",
               "query": 'MATCH (".", p) WHERE p."name" = "Stream_DOT"'}
        results, errors = [], []

        def worker(i):
            try:
                status, _, _ = _request(server.port, "POST", "/v1/query",
                                        req, client=f"c{i}")
                results.append(status)
            except OSError as e:
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert results == [200] * 8

    def test_connect_burst_queues_before_accept(self, store_dir):
        # nothing accepts until every connect has returned: each one
        # must be queued by the kernel, which a backlog of 5 refuses
        # past the sixth (the SYN is dropped and connect times out)
        svc = AnalysisService(store_dir, pool=WorkerPool(workers=2))
        srv = ReproServer(svc, port=0, drain_deadline=5.0)
        socks = []
        try:
            for _ in range(32):
                socks.append(socket.create_connection(
                    ("127.0.0.1", srv.port), timeout=1.0))
        finally:
            srv.start()  # drain() waits for the accept loop to stop
        try:
            for s in socks:
                s.settimeout(15)
                s.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                          b"Connection: close\r\n\r\n")
            for s in socks:
                with s.makefile("rb") as fh:
                    assert fh.readline().split()[1] == b"200"
        finally:
            for s in socks:
                s.close()
            srv.drain()


# ----------------------------------------------------------------------
# CLI lifecycle: bind failure, SIGTERM drain, kill -9 recovery
# ----------------------------------------------------------------------

def _spawn_serve(store, *extra):
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{root}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store),
         "--port", "0", *extra],
        env=env, stderr=subprocess.PIPE, text=True)
    banner = proc.stderr.readline()
    assert "repro-serve listening" in banner, banner
    port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])
    return proc, port


@pytest.mark.slow
class TestCLILifecycle:
    def test_bind_conflict_exits_7(self, tmp_path):
        from repro.cli import EXIT_SERVE_FAILURE, main
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            rc = main(["serve", "--store", str(tmp_path / "s"),
                       "--port", str(port)])
            assert rc == EXIT_SERVE_FAILURE == 7
        finally:
            blocker.close()

    def test_mismatched_watermarks_rejected(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["serve", "--store", str(tmp_path / "s"),
                  "--soft-limit-mb", "100"])

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        store = _make_store(tmp_path)
        proc, port = _spawn_serve(store)
        try:
            status, _, _ = _request(port, "GET", "/readyz")
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_kill_dash_nine_then_restart_recovers(self, tmp_path):
        store = _make_store(tmp_path)
        proc, port = _spawn_serve(store)
        try:
            status, _, _ = _request(
                port, "POST", "/v1/ingest",
                {"dataset": "crashy", "profiles": _payloads(1, seed0=5)})
            assert status == 200
            proc.kill()  # SIGKILL: no drain, no atexit, nothing
            proc.wait(timeout=30)
            # the store survives: atomic writes mean old-or-new, never torn
            from repro.cli import main
            assert main(["validate", str(store / "crashy.json")]) == 0
            # and a fresh server serves it immediately
            proc2, port2 = _spawn_serve(store)
            try:
                status, body, _ = _request(port2, "GET", "/v1/datasets")
                assert status == 200
                assert "crashy" in body["datasets"]
            finally:
                proc2.terminate()
                proc2.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()


# ----------------------------------------------------------------------
# chaos acceptance: concurrency × faults × memory pressure × drain
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestChaosAcceptance:
    def test_chaos_campaign(self, tmp_path):
        """16 concurrent clients against a small server while hangs,
        slow ingests, and a staged RSS ballast ramp land mid-flight:
        every response must be a correct 200 or a typed 429/503 JSON
        envelope, no connection may drop, ``/readyz`` must reflect the
        degraded → shedding walk, and the final SIGTERM-equivalent
        drain must finish inside its deadline."""
        store = _make_store(tmp_path)
        rss = {"value": 50.0}
        gov = PressureGovernor(
            100.0, 200.0, interval=0.02,
            rss_reader=lambda: rss["value"])
        svc = AnalysisService(
            store,
            admission=AdmissionController(max_inflight=4, rate=200.0,
                                          breaker_threshold=0),
            pool=WorkerPool(workers=2, queue_limit=4, task_timeout=0.6,
                            grace=0.1, watchdog_interval=0.05),
            governor=gov,
            request_timeout=0.5)
        srv = ReproServer(svc, port=0, drain_deadline=5.0)
        srv.start()

        good_query = {"dataset": "demo",
                      "query": 'MATCH (".", p) WHERE p."name" = '
                               '"Stream_DOT"'}
        hang_profile = {"__repro_fault__": {"mode": "hang",
                                            "seconds": 2.0},
                        "payload": {}}
        slow_profiles = [
            {"__repro_fault__": {"mode": "slow_io", "seconds": 0.05},
             "payload": _payloads(1, seed0=21)[0]}]

        statuses: list[int] = []
        transport_errors: list[BaseException] = []
        corrupt: list[str] = []
        lock = threading.Lock()

        def hit(method, path, body, client):
            try:
                status, doc, _ = _request(srv.port, method, path, body,
                                          client=client, timeout=15)
            except Exception as e:  # noqa: BLE001 - chaos bookkeeping
                with lock:
                    transport_errors.append(e)
                return
            with lock:
                statuses.append(status)
                if status != 200 and "error" not in doc:
                    corrupt.append(f"{status}: {doc!r}")
                if status not in (200, 400, 404, 429, 503):
                    corrupt.append(f"unexpected status {status}")

        def client(i):
            for round_ in range(6):
                kind = (i + round_) % 4
                if kind == 0:
                    hit("POST", "/v1/query", good_query, f"c{i}")
                elif kind == 1:
                    hit("POST", "/v1/stats",
                        {"dataset": "demo", "metrics": ["mean"]},
                        f"c{i}")
                elif kind == 2:
                    hit("POST", "/v1/ingest",
                        {"dataset": f"hang{i}_{round_}",
                         "profiles": [hang_profile]}, f"c{i}")
                else:
                    hit("POST", "/v1/ingest",
                        {"dataset": f"slow{i}_{round_}",
                         "profiles": slow_profiles,
                         "overwrite": True}, f"c{i}")

        readyz_states: list[str] = []
        observer_stop = threading.Event()

        def observer():
            while not observer_stop.is_set():
                try:
                    _, doc, _ = _request(srv.port, "GET", "/readyz",
                                         timeout=15)
                    readyz_states.append(
                        doc.get("pressure", {}).get("state", "?"))
                except Exception as e:  # noqa: BLE001
                    with lock:
                        transport_errors.append(e)
                observer_stop.wait(0.02)

        def seen(state, deadline=20.0):
            # advance the ballast ramp only once the observer has
            # *externally* witnessed the state on /readyz — thread
            # scheduling under 17 competing clients is not a clock
            t0 = time.monotonic()
            while state not in readyz_states:
                if time.monotonic() - t0 > deadline:
                    return False
                time.sleep(0.02)
            return True

        obs_thread = threading.Thread(target=observer)
        obs_thread.start()
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        # stage the memory ballast ramp while requests are in flight
        assert seen(STATE_OK)
        rss["value"] = 150.0   # past soft watermark → degraded
        assert seen(STATE_DEGRADED)
        rss["value"] = 250.0   # past hard watermark → shedding
        assert seen(STATE_SHEDDING)
        rss["value"] = 60.0    # recovery
        for t in threads:
            t.join(timeout=60)
        observer_stop.set()
        obs_thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not obs_thread.is_alive()

        # no dropped connections, no untyped or corrupted responses
        assert transport_errors == []
        assert corrupt == []
        assert statuses and all(
            s in (200, 400, 404, 429, 503) for s in statuses)
        # the walk through the watermarks was externally observable
        assert STATE_DEGRADED in readyz_states
        assert STATE_SHEDDING in readyz_states
        # graceful drain completes inside its deadline
        t0 = time.monotonic()
        assert srv.drain()
        assert time.monotonic() - t0 <= 5.0
        # post-drain the store directory is still fully valid
        for path in store.glob("*.json"):
            assert Thicket.load(path, verify=True).validate().ok
