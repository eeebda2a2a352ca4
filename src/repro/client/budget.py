"""The retry budget: a token bucket standing between failure and retry.

Naive retry loops turn a brown-out into a black-out: when a server
slows down, every client multiplies its traffic by its retry count at
exactly the moment capacity is scarcest.  The :class:`RetryBudget`
bounds that amplification — every retry (and every hedged backup
request, which is a speculative retry) must withdraw a token from a
bucket that refills at a fixed rate.  A short blip retries freely out
of the burst capacity; a sustained outage drains the bucket and
further failures surface immediately as typed
:class:`~repro.errors.RetryBudgetExhaustedError` instead of piling on.

Built on the same :class:`~repro.serve.admission.TokenBucket` the
server's admission controller sheds with, so both ends of the wire
meter load with one mechanism (and one set of unit-tested semantics).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..serve.admission import TokenBucket

__all__ = ["RetryBudget"]


class RetryBudget:
    """Token-bucket allowance for retries and hedges, with accounting.

    Parameters
    ----------
    rate:
        Tokens refilled per second.  ``0`` disables refill: the bucket
        holds a fixed total allowance of ``capacity`` retries.
    capacity:
        Burst capacity (and, with ``rate=0``, the total allowance).
    clock:
        Injectable monotonic clock for deterministic tests.

    ``try_spend`` never blocks and never raises; the caller decides
    what exhaustion means (the client raises
    :class:`~repro.errors.RetryBudgetExhaustedError` for retries and
    silently skips the backup request for hedges).
    """

    def __init__(self, rate: float = 2.0, capacity: float = 10.0,
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        # rate=0 is a *frozen* bucket here (fixed allowance), which is
        # the opposite of TokenBucket's rate=0 (always admit): model it
        # as an astronomically slow refill instead.
        self._bucket = TokenBucket(rate if rate > 0 else 1e-9,
                                   burst=capacity, clock=clock)
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._lock = threading.Lock()
        self.spent = 0
        self.denied = 0

    def try_spend(self, tokens: float = 1.0) -> bool:
        """Withdraw *tokens* for one retry/hedge; False when dry."""
        ok = self._bucket.try_acquire(tokens) == 0.0
        with self._lock:
            if ok:
                self.spent += 1
            else:
                self.denied += 1
        return ok

    @property
    def remaining(self) -> float:
        """Tokens currently available (refilled view, non-consuming)."""
        return self._bucket.available()

    def to_dict(self) -> dict:
        """Snapshot for diagnostics: rate/capacity/spent/denied."""
        with self._lock:
            return {
                "rate": self.rate,
                "capacity": self.capacity,
                "spent": self.spent,
                "denied": self.denied,
                "remaining": round(self.remaining, 6),
            }
