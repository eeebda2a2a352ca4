"""One process-wide pause of the cyclic garbage collector.

Bulk work — composing hundreds of profiles into a thicket, encoding or
decoding a store — builds hundreds of thousands of long-lived
containers (per-profile ``Node``/``Frame`` objects, index tuples, row
lists).  Each generation-2 collection re-scans all of them, although
they are live, and at 640 profiles those passes cost about a quarter
of an ingest cycle.  :func:`paused` switches the collector off for the
duration of such work.  Reference counting still frees every object
that is not part of a cycle; garbage cycles wait for the next
collection after the pause ends.

The pause is process-wide and re-entrant: a depth counter under a
lock means nested and concurrent (threaded) pauses compose, and only
the outermost exit restores the collector, and only if it was enabled
when the outermost entry switched it off.

:func:`start_worker` is the matching fork idiom for a worker process:
freeze the heap inherited from the parent so the child's collections
skip it, and switch the collector on, since a child forked during a
pause inherits it disabled and would otherwise never free the
parent↔child cycles of the graphs it builds.

This module is the only place that switches the collector
(lint rule ``RPR012``).
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused", "start_worker"]

_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def paused() -> Iterator[None]:
    """Hold the cyclic collector off for the body (re-entrant,
    thread-safe); the outermost exit restores its prior state."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()


def start_worker() -> None:
    """In a freshly started worker process: freeze the inherited heap
    out of the child's collections and switch the collector on.

    A pause the parent held at fork time is not the worker's (it never
    returns into the parent's frames), and a lock another parent
    thread held then would never be released, so both are reset.
    """
    global _lock, _depth
    _lock = threading.Lock()
    _depth = 0
    gc.freeze()
    gc.enable()
