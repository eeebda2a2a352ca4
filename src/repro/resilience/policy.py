"""``ResiliencePolicy`` — the single knob object threaded through the stack.

Every supervised bulk stage (ensemble ingestion today; stats over
groups, batch query, campaign scans tomorrow) takes one
:class:`ResiliencePolicy` instead of a drifting pile of keyword
arguments.  The policy says how wide to fan out (``jobs``), how long a
single task may run (``task_timeout``), how failures are retried
(``max_retries``/``backoff``/``backoff_jitter``), when a failing
source trips its circuit breaker (``breaker_threshold``/
``breaker_cooldown``), and how much wall clock the whole run may spend
(``deadline``).

:class:`FrozenPolicy` is the base this policy shares with
:class:`repro.client.ClientPolicy`: one backoff formula, one
``replace()`` and one table-driven field check.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["FrozenPolicy", "ResiliencePolicy", "SERIAL_POLICY"]

_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


class FrozenPolicy:
    """Base of the frozen policy dataclasses.

    Subclasses declare their own fields (``backoff`` and
    ``backoff_jitter`` among them) and list their bounds in
    ``_CHECKS``; a field whose default is ``None`` is optional and its
    bounds apply only when it is set.
    """

    #: ``(field, op, bound)`` rows: construction raises ``ValueError``
    #: unless ``field op bound`` holds.
    _CHECKS: ClassVar[tuple[tuple[str, str, float], ...]] = ()

    def __post_init__(self):
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for name, op, bound in self._CHECKS:
            value = getattr(self, name)
            if value is None and defaults[name] is None:
                continue
            if not _OPS[op](value, bound):
                raise ValueError(f"{name} must be {op} {bound}, got {value}")

    def delay_for(self, attempt: int, rng) -> float:
        """Backoff delay in seconds before retry number *attempt* (0-based).

        ``backoff`` doubled per attempt, times ``1 + backoff_jitter *
        rng.random()`` (*rng*: any object with ``random()``, so a seeded
        RNG makes the schedule reproducible).  With ``backoff_jitter``
        0 the delay is exact and *rng* is not touched.
        """
        base = self.backoff * (2 ** attempt)
        if self.backoff_jitter == 0.0:
            return base
        return base * (1.0 + self.backoff_jitter * rng.random())

    def replace(self, **changes):
        """A copy of this policy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ResiliencePolicy(FrozenPolicy):
    """Execution-resilience knobs for one supervised bulk stage.

    Parameters
    ----------
    jobs:
        Worker processes to fan tasks out across.  ``1`` (the default)
        runs tasks inline on the calling process — byte-identical to
        the historical serial behaviour — unless ``task_timeout`` or
        ``deadline`` require supervision.
    task_timeout:
        Per-task wall-clock budget in seconds, enforced by the
        supervisor (the worker is killed when it overruns).  ``None``
        disables per-task deadlines.
    max_retries:
        Bounded retry budget for *transient* task failures (I/O
        hiccups flagged ``transient`` by the task).  Timeouts and
        crashes are quarantined, not retried, unless
        ``retry_timeouts`` is set: a deterministic hang would burn the
        whole deadline re-hanging.
    backoff:
        Base delay in seconds for jittered exponential backoff between
        retries (:meth:`FrozenPolicy.delay_for`).
    backoff_jitter:
        Jitter fraction in ``[0, 1]``; ``0`` reproduces the historical
        deterministic backoff exactly.  The RNG is injectable, so
        jittered schedules are still reproducible in tests.
    breaker_threshold:
        Consecutive failures of one failure domain (e.g. one source
        directory) that trip its circuit breaker; ``0`` disables the
        breaker.
    breaker_cooldown:
        Seconds an open breaker waits before letting one half-open
        probe through.
    deadline:
        Overall wall-clock budget in seconds for the whole run; when
        exhausted, remaining tasks are quarantined with
        :class:`~repro.errors.DeadlineExceededError`.  ``None``
        disables the run deadline.
    heartbeat_interval:
        How often (seconds) each worker refreshes its shared liveness
        stamp.
    heartbeat_grace:
        Seconds of heartbeat staleness after which a busy worker is
        declared hung and killed even before ``task_timeout``.
    retry_timeouts:
        Also spend the retry budget on timeouts and worker crashes
        (off by default; see ``max_retries``).
    """

    jobs: int = 1
    task_timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.05
    backoff_jitter: float = 0.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    deadline: float | None = None
    heartbeat_interval: float = 0.05
    heartbeat_grace: float = 10.0
    retry_timeouts: bool = False

    _CHECKS = (
        ("jobs", ">=", 1), ("max_retries", ">=", 0), ("backoff", ">=", 0),
        ("backoff_jitter", ">=", 0), ("backoff_jitter", "<=", 1),
        ("breaker_threshold", ">=", 0), ("breaker_cooldown", ">=", 0),
        ("task_timeout", ">", 0), ("deadline", ">", 0),
        ("heartbeat_interval", ">", 0), ("heartbeat_grace", ">", 0),
    )

    @property
    def supervised(self) -> bool:
        """True when this policy needs the process-pool supervisor.

        A policy with ``jobs == 1`` and no timeout/deadline runs inline
        — that is the historical serial path, preserved exactly.
        """
        return (self.jobs > 1 or self.task_timeout is not None
                or self.deadline is not None)


# The do-nothing policy: inline execution, the pre-resilience defaults.
SERIAL_POLICY = ResiliencePolicy()
