"""Fault-tolerant ensemble ingestion (read → validate → build → compose).

``load_ensemble`` is the campaign-scale loading path: where
``Thicket.from_caliperreader`` historically aborted a 1,900-profile
composition on the first truncated file, this pipeline pushes every
profile through four stages and applies a per-profile *error policy*:

``strict``
    Raise the first typed error (:class:`repro.errors.ReproError`
    subclass naming the offending file and stage).  The default, and
    the old behaviour — minus the raw ``KeyError``.
``skip``
    Drop bad profiles, emitting a ``warnings.warn`` per drop, and
    compose the rest.
``collect``
    Drop bad profiles silently and return a structured
    :class:`IngestReport` attributing every quarantined profile to its
    exception, stage, and source.

Transient I/O errors (``OSError`` other than a missing file) are
retried with bounded exponential backoff before the profile is given
up on.  Colliding profile ids are repaired deterministically under
``skip``/``collect`` (and recorded in the report) instead of aborting
the whole ensemble.

With ``checkpoint=DIR`` every per-profile outcome is additionally
journaled to a crash-tolerant JSONL file plus incrementally saved
GraphFrame payloads (:mod:`repro.ingest.checkpoint`); a re-run after
an interruption resumes from the journal, skipping already-ingested
and already-quarantined profiles.  Resume counts surface in the
:class:`IngestReport` and the ``ingest.checkpoint.*`` obs counters.
A checkpointed run installs a :class:`~repro.resilience.SignalGuard`
so SIGINT/SIGTERM can never tear an in-flight journal record.

With a supervised :class:`~repro.resilience.ResiliencePolicy`
(``policy=ResiliencePolicy(jobs=4, task_timeout=5)``) the read →
validate → build stages fan out across a
:class:`~repro.resilience.SupervisedExecutor` worker pool — per-task
wall-clock deadlines kill hung readers, crashed workers are replaced
and their profiles quarantined as typed
:class:`~repro.errors.ExecutionError`\\ s, a per-directory circuit
breaker converts repeated source failures into fast quarantines — and
results fold back in input order, so composition (which stays on the
main process) is byte-identical to a serial run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
import warnings
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..errors import (
    CompositionError,
    ProfileConflictError,
    ReaderError,
    ReproError,
    SchemaError,
    WorkerCrashError,
)
from ..graph import GraphFrame
from ..obs import counter as obs_counter
from ..obs import span as obs_span
from ..readers.caliper import read_cali_dict
from ..resilience import (
    ResiliencePolicy,
    SignalGuard,
    SupervisedExecutor,
    in_worker,
)
from .report import (
    IngestReport,
    IngestResult,
    QuarantinedProfile,
    RepairedProfileId,
)
from .schema import validate_cali_payload

__all__ = ["load_ensemble", "ERROR_POLICIES", "FAULT_KEY"]

ERROR_POLICIES = ("strict", "skip", "collect")

logger = logging.getLogger("repro.ingest")

# Workers read once: the supervisor owns retries of transient errors.
_NO_RETRY = ResiliencePolicy(max_retries=0)


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Accumulate wall seconds for *stage*; always on (two clock reads
    per stage are noise next to JSON parsing), independent of whether
    span tracing is enabled."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = (timings.get(stage, 0.0)
                          + time.perf_counter() - t0)


def _read_text(path: Path) -> str:
    """Read a profile file; module-level so tests can inject faults."""
    return path.read_text()


# ----------------------------------------------------------------------
# deterministic execution-fault injection (workloads.corrupt_campaign)
# ----------------------------------------------------------------------

#: Top-level payload key that marks an injected execution fault.  A
#: payload carrying it is never a valid cali profile, so honouring the
#: sentinel only changes *how* a already-doomed profile fails — which
#: is exactly what makes timeout/heartbeat/breaker paths testable
#: without real flaky hardware.
FAULT_KEY = "__repro_fault__"


def _trip_fault(payload: Any, source: str, sleep) -> Any:
    """Execute an injected fault sentinel, if *payload* carries one.

    ``slow_io`` sleeps then yields the embedded real payload;
    ``slowdown`` burns CPU for the configured seconds then yields it
    (a *compute* regression rather than an I/O stall — the perf
    sentinel's staged fault); ``hang`` sleeps past any sane timeout
    then fails; ``worker_crash`` kills the worker process outright
    (simulated as a typed error when running inline on the main
    process, which must never die).
    """
    if not isinstance(payload, Mapping) or FAULT_KEY not in payload:
        return payload
    fault = payload[FAULT_KEY]
    mode = fault.get("mode") if isinstance(fault, Mapping) else None
    if mode == "slow_io":
        sleep(float(fault.get("seconds", 0.05)))
        return payload.get("payload", {})  # the wrapped real profile
    if mode == "slowdown":
        seconds = float(fault.get("seconds", 0.25))
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            sum(range(1000))  # busy-burn: wall AND cpu time inflate
        return payload.get("payload", {})
    if mode == "hang":
        seconds = float(fault.get("seconds", 30.0))
        sleep(seconds)
        raise ReaderError(
            f"injected hang in {source} woke after {seconds}s",
            source=source)
    if mode == "worker_crash":
        if in_worker():
            os._exit(3)
        raise WorkerCrashError(
            f"injected worker crash in {source} (simulated in-process)",
            source=source)
    raise SchemaError(f"unknown injected fault mode {mode!r} in {source}",
                      source=source)


# ----------------------------------------------------------------------
# the worker-side task: read → validate → build, one profile
# ----------------------------------------------------------------------

def _parallel_ingest_task(spec: tuple[str, bool]) -> dict:
    """Run one profile path through read → validate → build in a worker.

    The same :func:`_load_one` as the serial path, with no in-worker
    retries: a transient ``OSError`` surfaces at once as a
    ``ReaderError`` with ``transient=True`` and the supervisor owns the
    retry/backoff budget.  Returns the built GraphFrame as typed whole
    columns (:func:`repro.ingest.checkpoint._gf_to_columns`): the numpy
    column arrays, an int array of node positions, the graph literal
    and the metadata as built.  They cross the pipe as pickled buffers
    and the parent rebuilds the frame without converting a cell, so
    parallel composition is byte-identical to serial.
    """
    from .checkpoint import _gf_to_columns

    path, validate = spec
    return _gf_to_columns(_load_one(path, 0, validate, _NO_RETRY,
                                    time.sleep, {}))


def _read_with_retry(path: Path, policy: ResiliencePolicy, sleep) -> str:
    """Read *path*, retrying transient ``OSError`` on *policy*'s backoff.

    A missing file is permanent and is never retried; a transient error
    that outlives the retries is raised with ``transient=True``.
    """
    attempt = 0
    while True:
        try:
            return _read_text(path)
        except FileNotFoundError as e:
            raise ReaderError(f"profile file not found: {path}",
                              source=path) from e
        except OSError as e:
            if attempt >= policy.max_retries:
                err = ReaderError(
                    f"I/O error reading {path} after {attempt + 1} "
                    f"attempt(s): {e}", source=path)
                err.transient = True
                raise err from e
            # jitter (if any) seeded by path and attempt: reproducible
            delay = policy.delay_for(attempt,
                                     random.Random(f"{path}#{attempt}"))
            logger.warning(
                "transient I/O error reading %s (attempt %d/%d): %s; "
                "retrying in %.3fs", path, attempt + 1,
                policy.max_retries + 1, e, delay)
            obs_counter("ingest.read.retries")
            sleep(delay)
            attempt += 1


def _source_label(src: Any, index: int) -> str:
    if isinstance(src, GraphFrame):
        return str(src.metadata.get("profile.file",
                                    f"<graphframe #{index}>"))
    if isinstance(src, Mapping):
        return f"<payload #{index}>"
    return str(src)


def _load_one(src: Any, index: int, validate: bool,
              policy: ResiliencePolicy, sleep,
              timings: dict[str, float]) -> GraphFrame:
    """Run one source through read → validate → build.

    Raises only :class:`ReproError` subclasses.  Per-stage wall time
    accumulates into *timings* (keys ``read``/``validate``/``build``).
    """
    if isinstance(src, GraphFrame):
        return src

    source = _source_label(src, index)
    if isinstance(src, Mapping):
        payload: Any = src
    else:
        with _timed(timings, "read"), obs_span("ingest.read",
                                               source=source):
            text = _read_with_retry(Path(src), policy, sleep)
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as e:
                raise ReaderError(f"invalid JSON in {source}: {e}",
                                  source=source) from e

    payload = _trip_fault(payload, source, sleep)
    if validate:
        with _timed(timings, "validate"), obs_span("ingest.validate",
                                                   source=source):
            validate_cali_payload(payload, source=source)
    with _timed(timings, "build"), obs_span("ingest.build", source=source):
        try:
            gf = read_cali_dict(payload, source=source)
        except ReproError:
            raise
        except (KeyError, IndexError, TypeError, ValueError,
                AttributeError) as e:
            # belt and braces: nothing structural may escape untyped
            raise ReaderError(
                f"failed to build call tree from {source}: "
                f"{type(e).__name__}: {e}", source=source,
                stage="build") from e
    if not isinstance(src, (GraphFrame, Mapping)):
        gf.metadata.setdefault("profile.file", str(src))
    return gf


def _repair_id(pid: Any, occurrence: int) -> Any:
    """Deterministic replacement id for the *occurrence*-th collision."""
    if isinstance(pid, (int, np.integer)) and not isinstance(pid, bool):
        digest = hashlib.sha256(f"{pid}:{occurrence}".encode()).digest()
        return int.from_bytes(digest[:8], "big", signed=True)
    return f"{pid}#{occurrence}"


def _derive_profile_ids(gfs, sources, metadata_key, on_error, report):
    """Profile id per GraphFrame; collisions repaired or raised.

    Returns ``(kept_gfs, kept_sources, profile_ids)`` — under non-strict
    policies a profile whose id cannot be derived is quarantined here
    (stage ``compose``) rather than aborting the ensemble.
    """
    from ..core.thicket import profile_hash

    kept_gfs, kept_sources, ids = [], [], []
    for (idx, source), gf in zip(sources, gfs):
        try:
            if metadata_key is not None:
                if metadata_key not in gf.metadata:
                    raise ProfileConflictError(
                        f"metadata_key {metadata_key!r} missing from "
                        f"profile #{idx} ({source})", source=source)
                pid = gf.metadata[metadata_key]
            else:
                pid = profile_hash(gf.metadata)
        except ReproError as e:
            if on_error == "strict":
                raise
            if on_error == "skip":
                warnings.warn(f"skipping profile: {e}", stacklevel=3)
            logger.warning("quarantined profile %s [compose]: %s: %s",
                           source, type(e).__name__, e)
            obs_counter("ingest.profiles.quarantined")
            report.quarantined.append(
                QuarantinedProfile(source=source, stage=e.stage,
                                   error=e, index=idx))
            continue
        kept_gfs.append(gf)
        kept_sources.append((idx, source))
        ids.append(pid)

    seen: dict[Any, int] = {}
    final_ids = []
    for (idx, source), pid in zip(kept_sources, ids):
        if pid in seen:
            if on_error == "strict":
                first = kept_sources[seen[pid]][1]
                raise ProfileConflictError(
                    f"profile id {pid!r} of {source} collides with "
                    f"{first}; choose a different metadata_key or use "
                    f"on_error='skip'/'collect'", source=source)
            occurrence = 1
            new = _repair_id(pid, occurrence)
            while new in seen or new in ids:
                occurrence += 1
                new = _repair_id(pid, occurrence)
            logger.warning("profile id %r of %s collided; repaired to %r",
                           pid, source, new)
            obs_counter("ingest.profile_ids.repaired")
            report.repaired.append(
                RepairedProfileId(source=source, original=pid, repaired=new))
            pid = new
        seen[pid] = len(final_ids)
        final_ids.append(pid)
    return kept_gfs, kept_sources, final_ids


def _resume_quarantined(rec: Mapping, source: str, idx: int,
                        on_error: str, report) -> None:
    """Re-attribute a journaled quarantine without re-reading the file."""
    import repro.errors as errors_mod

    err_cls = getattr(errors_mod, rec.get("error_type", ""), ReproError)
    if not (isinstance(err_cls, type) and issubclass(err_cls, ReproError)):
        err_cls = ReproError
    error = err_cls(str(rec.get("error", "quarantined in a previous run")),
                    source=source, stage=rec.get("stage", "ingest"))
    if on_error == "skip":
        warnings.warn(f"skipping profile (from checkpoint): {error}",
                      stacklevel=3)
    logger.info("checkpoint: skipping previously quarantined profile %s "
                "[%s]", source, error.stage)
    obs_counter("ingest.checkpoint.quarantine_skipped")
    obs_counter("ingest.profiles.quarantined")
    report.resumed_quarantined += 1
    report.quarantined.append(
        QuarantinedProfile(source=source, stage=error.stage, error=error,
                           index=idx))


def _quarantine(report: IngestReport, source: str, idx: int,
                e: ReproError, on_error: str, ckpt, crit) -> None:
    """Shared quarantine bookkeeping: journal, warn, log, report."""
    if ckpt is not None:
        with crit():
            ckpt.record_quarantined(source, e.stage, type(e).__name__,
                                    str(e))
    if on_error == "skip":
        warnings.warn(f"skipping profile: {e}", stacklevel=3)
    logger.warning("quarantined profile %s [%s]: %s: %s",
                   source, e.stage, type(e).__name__, e)
    obs_counter("ingest.profiles.quarantined")
    report.quarantined.append(
        QuarantinedProfile(source=source, stage=e.stage, error=e,
                           index=idx))


def _try_resume(ckpt, source: str, idx: int, on_error: str, report,
                timings) -> tuple[bool, GraphFrame | None]:
    """Consult the checkpoint journal for *source*.

    Returns ``(handled, gf)``: ``(True, gf)`` for a resumed profile,
    ``(True, None)`` for a skipped quarantine, ``(False, None)`` when
    the source must be (re-)ingested.
    """
    rec = ckpt.get(source)
    if rec is None:
        return False, None
    if rec.get("status") == "ok":
        with _timed(timings, "resume"), \
                obs_span("ingest.checkpoint.load", source=source):
            gf = ckpt.load_gf(rec)
        if gf is not None:
            obs_counter("ingest.checkpoint.resumed")
            report.resumed.append(source)
            return True, gf
        return False, None  # payload lost/corrupt: re-ingest
    if on_error != "strict":
        _resume_quarantined(rec, source, idx, on_error, report)
        return True, None
    return False, None  # strict + previously quarantined: retry


def _count_execution_failure(report: IngestReport, status: str) -> None:
    """Fold one executor failure status into the report's counters."""
    if status in ("timeout", "deadline"):
        report.timeouts += 1
    elif status == "crash":
        report.worker_crashes += 1


def _load_parallel(tasks, policy: ResiliencePolicy, validate: bool,
                   on_error: str, report: IngestReport, ckpt, crit,
                   sleep, timings,
                   slots: dict[int, GraphFrame]) -> None:
    """Fan *tasks* (``(idx, path)`` pairs) out across a supervised pool.

    Successful profiles land in *slots* (keyed by input index, so the
    caller reassembles input order); failures are quarantined exactly
    as the serial path would, with executor failures (timeout, crash,
    breaker, deadline) additionally counted on the report.  Under
    ``strict`` the lowest-index error is raised — after every outcome
    has been journaled, so a checkpointed re-run still resumes.
    """
    from .checkpoint import _columns_to_gf

    paths = [path for _, path in tasks]
    executor = SupervisedExecutor(
        policy, breaker_key=lambda key: str(Path(key).parent),
        sleep=sleep)
    with _timed(timings, "execute"), \
            obs_span("ingest.parallel", tasks=len(tasks),
                     jobs=policy.jobs):
        outcomes = executor.map(_parallel_ingest_task,
                                [(p, validate) for p in paths],
                                keys=paths)
    report.breaker_trips += executor.breaker.trips
    first_error: ReproError | None = None
    for (idx, source), outcome in zip(tasks, outcomes):
        if outcome.ok:
            gf = _columns_to_gf(outcome.value)
            if ckpt is not None:
                with _timed(timings, "checkpoint"), crit(), \
                        obs_span("ingest.checkpoint.record",
                                 source=source):
                    ckpt.record_ok(source, gf)
            slots[idx] = gf
            continue
        _count_execution_failure(report, outcome.status)
        if on_error == "strict":
            # journal every failure before raising so a checkpointed
            # re-run can still resume past this point
            if ckpt is not None:
                with crit():
                    ckpt.record_quarantined(
                        source, outcome.error.stage,
                        type(outcome.error).__name__, str(outcome.error))
            if first_error is None:
                first_error = outcome.error
            continue
        _quarantine(report, source, idx, outcome.error, on_error, ckpt,
                    crit)
    if first_error is not None:
        raise first_error


def load_ensemble(sources: Iterable[Any] | Any,
                  on_error: str = "strict",
                  metadata_key: str | None = None,
                  intersection: bool = False,
                  fill_perfdata: bool = False,
                  validate: bool = True,
                  max_retries: int = 2,
                  retry_base_delay: float = 0.05,
                  sleep=None,
                  checkpoint: Any = None,
                  policy: ResiliencePolicy | None = None) -> IngestResult:
    """Compose an ensemble of cali-JSON profiles fault-tolerantly.

    Parameters
    ----------
    sources:
        File paths, payload dicts, and/or GraphFrames (mixed is fine).
    on_error:
        ``"strict"`` (raise first error), ``"skip"`` (drop + warn), or
        ``"collect"`` (drop silently, attribute in the report).
    metadata_key / intersection / fill_perfdata:
        As :meth:`repro.core.Thicket.from_caliperreader`.
    validate:
        Run full schema validation before graph construction
        (disable only for trusted, already-validated payloads).
    max_retries / retry_base_delay:
        Bounded exponential backoff for transient ``OSError`` while
        reading profile files.  Ignored when *policy* is given —
        ``policy.max_retries`` / ``policy.backoff`` take over.
    sleep:
        Injectable sleep function (testing); defaults to ``time.sleep``.
    checkpoint:
        Directory for a crash-tolerant ingestion checkpoint (created
        if missing).  Per-profile outcomes are journaled there as the
        run progresses, and a re-run with the same directory resumes
        from the journal instead of re-reading finished profiles.
        Checkpointed runs defer SIGINT/SIGTERM across journal writes
        so an interrupt can never tear an in-flight record.
    policy:
        A :class:`~repro.resilience.ResiliencePolicy`.  A *supervised*
        policy (``jobs > 1``, or a ``task_timeout`` / ``deadline``)
        fans the per-profile read → validate → build stages out across
        a :class:`~repro.resilience.SupervisedExecutor` worker pool
        with per-task deadlines, heartbeat liveness, and per-directory
        circuit breakers; composition stays on the main process and
        results keep input order.  The default (``None``, like
        ``jobs=1``) preserves the historical serial behaviour exactly.

    Returns
    -------
    IngestResult
        ``(thicket, report)``; ``thicket`` is ``None`` when nothing
        was loadable under a non-strict policy.
    """
    from ..core.thicket import Thicket

    if on_error not in ERROR_POLICIES:
        # CompositionError subclasses ValueError, so the historical
        # bad-argument contract holds while staying a typed ReproError
        raise CompositionError(
            f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}")
    if sleep is None:
        sleep = time.sleep
    eff = policy if policy is not None else ResiliencePolicy(
        max_retries=max_retries, backoff=retry_base_delay)
    if isinstance(sources, (str, Path, GraphFrame, Mapping)):
        sources = [sources]
    sources = list(sources)
    report = IngestReport(policy=on_error, requested=len(sources),
                          jobs=eff.jobs)
    if not sources:
        raise CompositionError("no profiles given")

    ckpt = None
    guard: SignalGuard | None = None
    timings = report.stage_seconds
    with ExitStack() as stack:
        if checkpoint is not None:
            from .checkpoint import CheckpointJournal

            # the guard makes journal appends and worker teardown
            # uninterruptible windows; outside them Ctrl-C is instant
            guard = stack.enter_context(SignalGuard())
            ckpt = CheckpointJournal(checkpoint)
            report.checkpoint_path = str(Path(checkpoint))

        def crit():
            return guard.critical() if guard is not None else nullcontext()

        try:
            with obs_span("ingest.load_ensemble", profiles=len(sources),
                          policy=on_error, jobs=eff.jobs) as top:
                logger.info(
                    "ingesting %d profile(s) (policy=%s, validate=%s, "
                    "jobs=%d)", len(sources), on_error, validate, eff.jobs)
                slots: dict[int, GraphFrame] = {}
                tasks: list[tuple[int, str]] = []   # parallelizable paths
                for idx, src in enumerate(sources):
                    source = _source_label(src, idx)
                    if ckpt is not None:
                        handled, gf = _try_resume(ckpt, source, idx,
                                                  on_error, report, timings)
                        if handled:
                            if gf is not None:
                                slots[idx] = gf
                            continue
                    if eff.supervised and not isinstance(
                            src, (GraphFrame, Mapping)):
                        tasks.append((idx, str(src)))
                        continue
                    try:
                        with obs_span("ingest.profile", source=source):
                            gf = _load_one(src, idx, validate, eff,
                                           sleep, timings)
                    except ReproError as e:
                        if on_error == "strict":
                            if ckpt is not None:
                                with crit():
                                    ckpt.record_quarantined(
                                        source, e.stage,
                                        type(e).__name__, str(e))
                            raise
                        _quarantine(report, source, idx, e, on_error,
                                    ckpt, crit)
                        continue
                    if ckpt is not None:
                        with _timed(timings, "checkpoint"), crit(), \
                                obs_span("ingest.checkpoint.record",
                                         source=source):
                            ckpt.record_ok(source, gf)
                    slots[idx] = gf
                if tasks:
                    _load_parallel(tasks, eff, validate, on_error,
                                   report, ckpt, crit, sleep, timings,
                                   slots)
                gfs = [slots[i] for i in sorted(slots)]
                labelled = [(i, _source_label(sources[i], i))
                            for i in sorted(slots)]
                obs_counter("ingest.profiles.loaded", len(gfs))

                with _timed(timings, "compose"), \
                        obs_span("ingest.derive_ids"):
                    gfs, labelled, profile_ids = _derive_profile_ids(
                        gfs, labelled, metadata_key, on_error, report)

                report.loaded = [source for _, source in labelled]
                if not gfs:
                    if on_error == "strict":
                        raise CompositionError(
                            "no profiles could be loaded")
                    logger.error("nothing loadable: all %d profile(s) "
                                 "quarantined", len(sources))
                    return IngestResult(None, report)

                provenance = {
                    "ingest_policy": on_error,
                    "dropped_profiles": [
                        {"source": q.source, "stage": q.stage,
                         "error_type": q.error_type, "error": str(q.error)}
                        for q in report.quarantined
                    ],
                    "repaired_profile_ids": [
                        {"source": r.source, "original": r.original,
                         "repaired": r.repaired}
                        for r in report.repaired
                    ],
                }
                with _timed(timings, "compose"), \
                        obs_span("ingest.compose", profiles=len(gfs)):
                    tk = Thicket._compose(gfs, profile_ids,
                                          intersection=intersection,
                                          fill_perfdata=fill_perfdata,
                                          provenance=provenance)
                top.set("loaded", len(gfs))
                top.set("quarantined", report.n_quarantined)
                if report.resumed or report.resumed_quarantined:
                    top.set("resumed", report.n_resumed)
                    logger.info("checkpoint resume: %d profile(s) rebuilt "
                                "from journal, %d quarantine(s) skipped",
                                report.n_resumed,
                                report.resumed_quarantined)
                if report.quarantined:
                    logger.info("ingest finished: %d/%d loaded, "
                                "%d quarantined", report.n_loaded,
                                report.requested, report.n_quarantined)
        finally:
            if ckpt is not None:
                with crit():
                    ckpt.close()
    return IngestResult(tk, report)
