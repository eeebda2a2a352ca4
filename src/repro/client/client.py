"""``ReproClient`` — the resilient way to talk to ``repro serve``.

A typed wrapper over stdlib :mod:`http.client` that owns every
client-side half of the end-to-end resilience contract:

* **Deadlines** — each logical call gets a wall-clock budget
  (``deadline=`` or ``ClientPolicy.call_timeout``, further capped by
  the whole-session ``session_deadline``).  The *remaining* budget is
  stamped on every attempt as ``X-Repro-Deadline-Ms`` — a duration,
  not a wall time, so clock skew between machines is irrelevant — and
  the server refuses already-expired work before queueing it.
* **Retries with a budget** — transient failures (connection drops,
  429/5xx envelopes) are retried with jittered exponential backoff,
  honoring the server's ``Retry-After``; every retry must withdraw a
  token from the client-wide :class:`~repro.client.RetryBudget`, so a
  sustained outage degrades into fast typed
  :class:`~repro.errors.RetryBudgetExhaustedError` instead of a retry
  storm.
* **Idempotency keys** — unsafe methods are auto-stamped with
  ``X-Repro-Idempotency-Key``, so a retried ``/v1/ingest`` whose first
  delivery actually succeeded replays the original result instead of
  double-ingesting.
* **Hedged reads** — for idempotent GETs, when the primary attempt is
  still unanswered after a hedge delay (the p95 of all the client's
  successful GETs, from one log-bucket histogram), one backup request
  launches (both legs share an idempotency key, so the server
  coalesces them onto one execution); the first success wins and the
  loser's socket is closed.  Hedges spend retry-budget tokens too.
* **Per-host circuit breaker** — a host that keeps failing trips its
  :class:`~repro.resilience.CircuitBreaker` and further calls fail
  fast with :class:`~repro.errors.ClientCircuitOpenError`.

Every failure leaves as a typed :class:`~repro.errors.ClientError`;
nothing escapes as a bare ``OSError`` or ``http.client`` exception.
All activity is traced under literal ``client.*`` names.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable
from urllib.parse import urlsplit

from ..errors import (
    ClientCircuitOpenError,
    ClientDeadlineError,
    ClientError,
    RetryBudgetExhaustedError,
    ServeError,
    ServerRejectedError,
    TransportError,
)
from ..obs import HistogramSummary
from ..obs import counter as obs_counter
from ..obs import observe as obs_observe
from ..obs import span as obs_span
from ..resilience import CircuitBreaker
from .budget import RetryBudget
from .policy import DEFAULT_CLIENT_POLICY, RETRYABLE_STATUSES, ClientPolicy

__all__ = ["ReproClient", "ClientResponse",
           "IDEMPOTENCY_HEADER", "DEADLINE_HEADER", "REQUEST_ID_HEADER"]

#: remaining call budget in integer milliseconds (duration, not wall time)
DEADLINE_HEADER = "X-Repro-Deadline-Ms"
#: replay-cache key for at-least-once delivery of unsafe methods
IDEMPOTENCY_HEADER = "X-Repro-Idempotency-Key"
#: server-assigned correlation id echoed on every response
REQUEST_ID_HEADER = "X-Repro-Request-Id"


@dataclass(frozen=True)
class ClientResponse:
    """One successful exchange: status, parsed body, response headers."""

    status: int
    body: dict
    headers: dict = field(default_factory=dict)
    request_id: str | None = None
    hedged: bool = False


def _default_connection_factory(host: str, port: int, timeout: float):
    """Open a plain HTTP connection (the transport seam tests replace)."""
    return http.client.HTTPConnection(host, port, timeout=timeout)


class ReproClient:
    """Resilient typed HTTP client for one ``repro serve`` endpoint.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the server (a path prefix is allowed
        and prepended to every request path).
    policy:
        The :class:`~repro.client.ClientPolicy`; defaults to
        :data:`~repro.client.DEFAULT_CLIENT_POLICY`.
    client_id:
        Sent as ``X-Client-Id`` so the server's per-client admission
        breaker sees a stable identity across connections.
    clock / rng / sleep:
        Injectable monotonic clock, jitter RNG, and sleep seam (tests
        run the full retry schedule without real waiting).  The default
        sleep waits on the client's close event, so :meth:`close`
        aborts in-flight backoff pauses.
    key_factory:
        Generator for idempotency keys (default: random UUID hex).
    connection_factory:
        ``(host, port, timeout) -> HTTPConnection``; the transport
        seam, replaceable for socket-free tests.
    """

    def __init__(self, base_url: str, *,
                 policy: ClientPolicy | None = None,
                 client_id: str | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 rng: random.Random | None = None,
                 sleep: Callable[[float], None] | None = None,
                 key_factory: Callable[[], str] | None = None,
                 connection_factory=None):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(
                f"unsupported scheme {parts.scheme!r} in {base_url!r}: "
                f"only http:// is supported")
        if not parts.hostname:
            raise ValueError(f"no host in base url {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.path_prefix = parts.path.rstrip("/")
        self.policy = policy or DEFAULT_CLIENT_POLICY
        self.client_id = client_id
        self.clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._closed = threading.Event()
        self._sleep = sleep if sleep is not None else self._closed.wait
        self._key_factory = key_factory or (lambda: uuid.uuid4().hex)
        self._connect = connection_factory or _default_connection_factory
        self.budget = RetryBudget(self.policy.retry_budget_rate,
                                  self.policy.retry_budget_capacity,
                                  clock=clock)
        self.breaker = CircuitBreaker(self.policy.breaker_threshold,
                                      self.policy.breaker_cooldown,
                                      clock=clock)
        self._host_key = f"{self.host}:{self.port}"
        self._session_start = clock()
        self._lat_lock = threading.Lock()
        self._latencies = HistogramSummary()  # every successful GET
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release the client: pending backoff sleeps are aborted."""
        self._closed.set()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- deadline arithmetic -------------------------------------------
    def _give_up_at(self, deadline: float | None) -> float:
        """Absolute monotonic instant this call must be finished by."""
        now = self.clock()
        budget = self.policy.call_timeout if deadline is None \
            else float(deadline)
        give_up = now + budget
        if self.policy.session_deadline is not None:
            give_up = min(give_up, self._session_start
                          + self.policy.session_deadline)
        return give_up

    def session_remaining(self) -> float | None:
        """Seconds left of the whole-session deadline (None: unlimited)."""
        if self.policy.session_deadline is None:
            return None
        return max(0.0, self._session_start
                   + self.policy.session_deadline - self.clock())

    # -- hedging --------------------------------------------------------
    def _record_latency(self, seconds: float) -> None:
        with self._lat_lock:
            self._latencies.add(seconds)

    def hedge_delay(self) -> float:
        """Current hedge delay: configured, or the observed GET p95."""
        if self.policy.hedge_delay is not None:
            return self.policy.hedge_delay
        with self._lat_lock:
            if self._latencies.count < self.policy.hedge_min_samples:
                return self.policy.hedge_fallback_delay
            return self._latencies.quantile(0.95)

    # -- one attempt ----------------------------------------------------
    def _headers(self, key: str | None, remaining: float) -> dict:
        headers = {
            "Content-Type": "application/json",
            DEADLINE_HEADER: str(max(1, int(remaining * 1000.0))),
        }
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        if key:
            headers[IDEMPOTENCY_HEADER] = key
        return headers

    def _attempt(self, method: str, path: str, data: bytes | None,
                 key: str | None, give_up: float, target: str,
                 on_connect: Callable[[Any], None] | None = None
                 ) -> ClientResponse:
        """One HTTP exchange; raises typed Transport/ServerRejected."""
        remaining = give_up - self.clock()
        if remaining < self.policy.min_attempt_budget:
            raise ClientDeadlineError(
                f"no deadline budget left for an attempt of {target} "
                f"({remaining:.3f}s remaining)", source=target)
        timeout = min(self.policy.attempt_timeout, remaining)
        conn = self._connect(self.host, self.port, timeout)
        if on_connect is not None:
            on_connect(conn)
        started = self.clock()
        try:
            conn.request(method, path, body=data,
                         headers=self._headers(key, remaining))
            resp = conn.getresponse()
            raw = resp.read()
            status = resp.status
            resp_headers = {k.lower(): v for k, v in resp.getheaders()}
        except (OSError, http.client.HTTPException) as exc:
            self.breaker.record_failure(self._host_key)
            obs_counter("client.transport_errors")
            raise TransportError(
                f"{type(exc).__name__} talking to {target}: {exc}",
                source=target) from exc
        finally:
            conn.close()
        elapsed = self.clock() - started
        obs_observe("client.latency_seconds", elapsed)
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            body = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(body, dict):
            body = {"value": body}
        request_id = resp_headers.get(REQUEST_ID_HEADER.lower())
        if status >= 400:
            err = body.get("error") or {}
            retry_after = err.get("retry_after")
            if retry_after is None and "retry-after" in resp_headers:
                try:
                    retry_after = float(resp_headers["retry-after"])
                except ValueError:
                    retry_after = None
            # 5xx that isn't an explicit overload answer counts against
            # the host's breaker; 4xx and typed 429/503 sheds mean the
            # host itself is alive and answering
            if status in (500, 502, 504):
                self.breaker.record_failure(self._host_key)
            else:
                self.breaker.record_success(self._host_key)
            raise ServerRejectedError(
                f"{target} answered {status} "
                f"{err.get('code', 'error')}: "
                f"{err.get('message', body.get('raw', ''))}",
                status=status, code=err.get("code", f"http_{status}"),
                retry_after=retry_after, source=target,
                request_id=request_id)
        self.breaker.record_success(self._host_key)
        if method == "GET":
            self._record_latency(elapsed)
        return ClientResponse(status=status, body=body,
                              headers=resp_headers, request_id=request_id)

    def _attempt_hedged(self, method: str, path: str, data: bytes | None,
                        key: str | None, give_up: float,
                        target: str) -> ClientResponse:
        """Primary attempt + optional backup after the hedge delay.

        The first *success* wins and the loser's socket is closed (the
        server coalesces the duplicate onto one execution via the
        shared idempotency key).  When one leg fails, the other leg's
        outcome decides; when both fail, the primary's error
        propagates.  The backup spends one retry-budget token; with an
        empty bucket no hedge launches.
        """
        results: "queue.Queue[tuple[str, ClientResponse | None, BaseException | None]]" = queue.Queue()
        conns: dict[str, Any] = {}
        conns_lock = threading.Lock()

        def leg(tag: str) -> None:
            def grab(conn: Any) -> None:
                with conns_lock:
                    conns[tag] = conn
            try:
                results.put((tag, self._attempt(
                    method, path, data, key, give_up, target,
                    on_connect=grab), None))
            except BaseException as exc:  # pragma: hedge leg boundary —
                # the outcome is transported to the coordinating thread
                # through the queue and re-raised there; anything the
                # stdlib throws from a cancelled half-read exchange is
                # normalized so only typed errors ever escape
                if not isinstance(exc, (ClientError, ServeError)):
                    wrapped = TransportError(
                        f"{type(exc).__name__} in hedge {tag} leg for "
                        f"{target}: {exc}", source=target)
                    wrapped.__cause__ = exc
                    exc = wrapped
                results.put((tag, None, exc))

        threading.Thread(target=leg, args=("primary",),
                         name="repro-client-primary", daemon=True).start()
        launched = ["primary"]
        first: tuple[str, ClientResponse | None, BaseException | None] | None
        try:
            first = results.get(timeout=min(self.hedge_delay(),
                                            max(0.0, give_up - self.clock())))
        except queue.Empty:
            first = None
        if first is None and self.budget.try_spend():
            # the primary is past the hedge delay: launch the backup
            obs_counter("client.hedges")
            self.hedges += 1
            threading.Thread(target=leg, args=("backup",),
                             name="repro-client-backup",
                             daemon=True).start()
            launched.append("backup")
        outcomes: dict[str, tuple[ClientResponse | None, BaseException | None]] = {}
        if first is not None:
            outcomes[first[0]] = (first[1], first[2])
        while len(outcomes) < len(launched):
            got_ok = any(r is not None for r, _ in outcomes.values())
            if got_ok:
                break
            remaining = give_up - self.clock()
            if remaining <= 0:
                break
            try:
                tag, resp, exc = results.get(timeout=remaining)
            except queue.Empty:
                break
            outcomes[tag] = (resp, exc)
        self._cancel_losers(outcomes, conns, conns_lock)
        for tag in ("backup", "primary"):  # a backup win is the hedge win
            got = outcomes.get(tag)
            if got is not None and got[0] is not None:
                if tag == "backup":
                    obs_counter("client.hedge_wins")
                    self.hedge_wins += 1
                resp = got[0]
                return ClientResponse(status=resp.status, body=resp.body,
                                      headers=resp.headers,
                                      request_id=resp.request_id,
                                      hedged=len(launched) > 1)
        for tag in ("primary", "backup"):
            got = outcomes.get(tag)
            if got is not None and got[1] is not None:
                raise got[1]
        raise ClientDeadlineError(
            f"deadline expired waiting for {target} "
            f"({len(launched)} request(s) in flight)", source=target)

    @staticmethod
    def _cancel_losers(outcomes: dict, conns: dict,
                       conns_lock: threading.Lock) -> None:
        """Wake and abandon any leg that has not reported back.

        ``conn.close()`` would tear down through the in-flight
        ``HTTPResponse`` and block on its reader lock — held by the
        loser thread sitting in ``read()`` — for as long as the server
        dawdles, forfeiting the hedge win.  ``shutdown()`` on the raw
        socket wakes the blocked ``recv`` immediately instead; the leg
        thread then surfaces its own (typed) outcome to the queue.
        """
        with conns_lock:
            pending = {tag: c for tag, c in conns.items()
                       if tag not in outcomes}
        for conn in pending.values():
            sock = getattr(conn, "sock", None)
            try:
                if sock is not None:
                    sock.shutdown(socket.SHUT_RDWR)
                else:
                    conn.close()
            except OSError:  # pragma: cancellation is best-effort; the
                # leg thread will surface its own outcome to the queue
                pass

    # -- the retry loop -------------------------------------------------
    def request(self, method: str, path: str, body: dict | None = None, *,
                deadline: float | None = None,
                idempotency_key: str | None = None,
                hedge: bool | None = None) -> ClientResponse:
        """One logical call: retries, hedging, deadlines, typed errors.

        Parameters
        ----------
        method / path / body:
            The HTTP exchange (*body* is JSON-encoded when not None).
        deadline:
            Wall-clock budget in seconds for the whole call, retries
            included (default ``ClientPolicy.call_timeout``); the
            remaining budget is propagated as ``X-Repro-Deadline-Ms``.
        idempotency_key:
            Replay-cache key; auto-generated for unsafe methods (and
            for hedged GETs, where both legs share it).
        hedge:
            Force hedging on/off for this call (default: policy says,
            GETs only).

        Returns a :class:`ClientResponse`; raises a typed
        :class:`~repro.errors.ClientError` subclass on any failure.
        """
        method = method.upper()
        path = self.path_prefix + path
        unsafe = method not in ("GET", "HEAD")
        key = idempotency_key
        if key is None and unsafe:
            key = self._key_factory()
        do_hedge = (self.policy.hedge if hedge is None else hedge) \
            and not unsafe
        if do_hedge and key is None:
            key = self._key_factory()
        data = json.dumps(body, sort_keys=True).encode("utf-8") \
            if body is not None else None
        target = f"{method} {self._host_key}{path}"
        give_up = self._give_up_at(deadline)
        attempt = 0
        with obs_span("client.request"):
            obs_counter("client.requests")
            while True:
                if not self.breaker.allow(self._host_key):
                    obs_counter("client.breaker_fastfails")
                    raise ClientCircuitOpenError(
                        f"circuit breaker open for {self._host_key} "
                        f"(retry in "
                        f"{self.breaker.retry_after(self._host_key):.1f}s)",
                        source=target)
                try:
                    if do_hedge:
                        return self._attempt_hedged(method, path, data,
                                                    key, give_up, target)
                    return self._attempt(method, path, data, key,
                                         give_up, target)
                except (TransportError, ServerRejectedError) as exc:
                    retry_after = getattr(exc, "retry_after", None)
                    if not self._retryable(exc, unsafe, key):
                        raise
                    attempt += 1
                    if attempt >= self.policy.max_attempts:
                        raise
                    if not self.budget.try_spend():
                        obs_counter("client.budget_denials")
                        raise RetryBudgetExhaustedError(
                            f"retry budget exhausted after "
                            f"{self.budget.spent} retries "
                            f"(capacity "
                            f"{self.policy.retry_budget_capacity:g}, "
                            f"refill "
                            f"{self.policy.retry_budget_rate:g}/s); "
                            f"last failure: {exc}",
                            source=target,
                            request_id=getattr(exc, "request_id", None),
                            ) from exc
                    delay = self.policy.retry_delay(attempt - 1,
                                                    self._rng, retry_after)
                    if self.clock() + delay \
                            + self.policy.min_attempt_budget > give_up:
                        raise ClientDeadlineError(
                            f"deadline leaves no room to retry {target} "
                            f"(needed {delay:.3f}s backoff, "
                            f"{max(0.0, give_up - self.clock()):.3f}s "
                            f"left)", source=target) from exc
                    obs_counter("client.retries")
                    self.retries += 1
                    if delay > 0:
                        self._sleep(delay)

    @staticmethod
    def _retryable(exc: ClientError, unsafe: bool,
                   key: str | None) -> bool:
        """May this failure be retried for this request?

        Transport failures on unsafe methods are only safe to retry
        because the idempotency key makes redelivery a replay; without
        a key (caller passed ``idempotency_key=''``-ish) nothing unsafe
        is retried.
        """
        if unsafe and not key:
            return False
        if isinstance(exc, TransportError):
            return True
        if isinstance(exc, ServerRejectedError):
            return exc.status in RETRYABLE_STATUSES
        return False

    # -- endpoint conveniences -----------------------------------------
    def health(self, *, deadline: float | None = None) -> dict:
        """``GET /healthz`` — liveness body."""
        return self.request("GET", "/healthz", deadline=deadline).body

    def ready(self, *, deadline: float | None = None) -> tuple[bool, dict]:
        """``GET /readyz`` — ``(ready, body)``; a 503 is an answer."""
        try:
            return True, self.request("GET", "/readyz", hedge=False,
                                      deadline=deadline).body
        except ServerRejectedError as exc:
            if exc.status == 503:
                return False, {"status": "unavailable", "code": exc.code}
            raise

    def datasets(self, *, deadline: float | None = None) -> list[str]:
        """``GET /v1/datasets`` — sorted dataset names."""
        return list(self.request("GET", "/v1/datasets",
                                 deadline=deadline).body["datasets"])

    def metrics(self, *, deadline: float | None = None) -> dict:
        """``GET /v1/metrics`` — the server's metrics snapshot."""
        return self.request("GET", "/v1/metrics", deadline=deadline).body

    def query(self, dataset: str, query: str, *, squash: bool = True,
              deadline: float | None = None) -> dict:
        """``POST /v1/query`` — run a string-dialect query remotely."""
        return self.request("POST", "/v1/query",
                            {"dataset": dataset, "query": query,
                             "squash": squash}, deadline=deadline).body

    def stats(self, dataset: str, *, metrics: list[str] | None = None,
              columns: list[str] | None = None,
              deadline: float | None = None) -> dict:
        """``POST /v1/stats`` — aggregate statistics for a dataset."""
        payload: dict[str, Any] = {"dataset": dataset}
        if metrics is not None:
            payload["metrics"] = list(metrics)
        if columns is not None:
            payload["columns"] = list(columns)
        return self.request("POST", "/v1/stats", payload,
                            deadline=deadline).body

    def ingest(self, dataset: str, profiles: list, *,
               overwrite: bool = False,
               deadline: float | None = None) -> dict:
        """``POST /v1/ingest`` — upload profiles as a new dataset.

        Auto-stamped with an idempotency key, so a retry after a torn
        response replays the completed ingest instead of duplicating
        it.
        """
        return self.request("POST", "/v1/ingest",
                            {"dataset": dataset, "profiles": profiles,
                             "overwrite": overwrite},
                            deadline=deadline).body

    def to_dict(self) -> dict:
        """Diagnostics snapshot: budget, breaker, hedge accounting."""
        return {
            "host": self._host_key,
            "budget": self.budget.to_dict(),
            "breaker_state": self.breaker.state(self._host_key),
            "retries": self.retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_delay": round(self.hedge_delay(), 6),
        }
