"""Admission control: decide *before* doing work whether work may enter.

An interactive analysis service dies one of two ways under load: it
queues unboundedly until the OOM killer arrives, or it thrashes until
every request times out.  Admission control converts both into fast,
typed sheds.  Three independent gates sit in front of every work
endpoint, evaluated in order:

1. **Per-client circuit breaker** — request outcomes are recorded per
   client key into one shared
   :class:`~repro.resilience.CircuitBreaker`; a client whose requests
   keep failing (bad queries, timeouts) trips *its own* breaker and
   gets fast 429s for the cooldown, without starving other callers.
2. **Token-bucket rate limiter** — a global requests-per-second cap
   with a burst allowance; an empty bucket sheds with the exact
   ``Retry-After`` at which the next token arrives.
3. **Concurrency semaphore** — bounds total in-flight requests
   (running + queued).  Exhaustion means the bounded work queue is
   full; shedding here is what keeps queueing delay bounded.

Every shed raises :class:`~repro.errors.OverloadedError` (HTTP 429)
carrying a machine-readable ``reason`` and a ``retry_after`` estimate;
nothing ever waits in line silently.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

from ..errors import OverloadedError
from ..obs import counter as obs_counter
from ..resilience import CircuitBreaker

__all__ = ["TokenBucket", "AdmissionController", "Ticket"]


class TokenBucket:
    """Thread-safe token bucket: *rate* tokens/second, *burst* capacity.

    ``try_acquire`` never blocks: it either consumes a token and
    returns ``0.0``, or returns the (positive) number of seconds until
    one will be available — which becomes the shed's ``Retry-After``.
    A ``rate`` of ``0`` disables the limiter (always admits).
    """

    def __init__(self, rate: float, burst: float | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if self.rate > 0 and self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        self.clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _level(self, now: float) -> float:
        """Tokens held at *now*: the stored level refilled, capped at
        ``burst``.  Caller holds ``_lock``."""
        return min(self.burst, self._tokens + (now - self._stamp) * self.rate)

    def available(self) -> float:
        """Tokens available right now, without consuming any."""
        with self._lock:
            return self._level(self.clock())

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Consume *tokens* if available; 0.0 on success, else the
        seconds until the deficit refills."""
        if self.rate == 0:
            return 0.0
        with self._lock:
            now = self.clock()
            self._tokens = self._level(now)
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate


class Ticket:
    """One admitted request: releases its concurrency slot on exit and
    reports the outcome to the client's circuit breaker."""

    __slots__ = ("_controller", "client", "_done")

    def __init__(self, controller: "AdmissionController", client: str):
        self._controller = controller
        self.client = client
        self._done = False

    def success(self) -> None:
        """Record a successful outcome for this client."""
        self._controller.breaker.record_success(self.client)

    def failure(self) -> None:
        """Record a failed outcome (may trip this client's breaker)."""
        self._controller.breaker.record_failure(self.client)

    def release(self) -> None:
        """Give the concurrency slot back (idempotent)."""
        if not self._done:
            self._done = True
            self._controller._release()

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class AdmissionController:
    """The gate in front of every work endpoint.

    Parameters
    ----------
    max_inflight:
        Concurrency semaphore value: running + queued requests may
        never exceed this.  This is the bounded work queue's bound.
    rate / burst:
        Token-bucket requests-per-second and burst capacity
        (``rate=0`` disables rate limiting).
    breaker_threshold / breaker_cooldown:
        Per-client circuit breaker knobs (``threshold=0`` disables).
    clock:
        Injectable monotonic clock shared by all three gates.
    """

    def __init__(self, *, max_inflight: int = 32, rate: float = 0.0,
                 burst: float | None = None, breaker_threshold: int = 10,
                 breaker_cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.clock = clock
        self.bucket = TokenBucket(rate, burst, clock=clock)
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown=breaker_cooldown,
            clock=clock,
            on_trip=lambda key: obs_counter("serve.breaker.trips"))
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._inflight = 0
        self._lock = threading.Lock()

    @property
    def inflight(self) -> int:
        """Requests currently holding an admission slot."""
        with self._lock:
            return self._inflight

    def admit(self, client: str) -> Ticket:
        """Admit one request for *client* or shed it.

        Returns a :class:`Ticket` (a context manager releasing the
        slot) on success; raises
        :class:`~repro.errors.OverloadedError` naming the gate that
        shed and when to retry.
        """
        if not self.breaker.allow(client):
            retry = self.breaker.retry_after(client) or 1.0
            obs_counter("serve.shed.circuit_open")
            raise OverloadedError(
                f"circuit breaker open for client {client!r}",
                reason="circuit_open", retry_after=retry, source=client)
        wait = self.bucket.try_acquire()
        if wait > 0.0:
            obs_counter("serve.shed.rate_limited")
            raise OverloadedError(
                f"rate limit exceeded ({self.bucket.rate:g} req/s)",
                reason="rate_limited",
                retry_after=math.ceil(wait * 100) / 100, source=client)
        if not self._slots.acquire(blocking=False):
            obs_counter("serve.shed.queue_full")
            raise OverloadedError(
                f"work queue full ({self.max_inflight} in flight)",
                reason="queue_full", retry_after=1.0, source=client)
        with self._lock:
            self._inflight += 1
        return Ticket(self, client)

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
        self._slots.release()
