"""The batch orchestrator: a worker pool that cannot be taken down.

:class:`BatchRunner` executes a list of :class:`~repro.runner.jobs.JobSpec`
with up to ``concurrency`` worker subprocesses at a time.  The design
invariants, in order of importance:

1. **One job's death never affects another.**  Workers are separate
   interpreters (spawned fresh via ``subprocess``, never forked from
   the orchestrator); their limits are per-process; the orchestrator
   only ever reads their exit status and result files.
2. **The orchestrator itself is crash-only.**  All durable state is
   the append-only journal (:mod:`repro.runner.journal`); finished
   results are flushed before anything depends on them; ``--resume``
   replays the journal, takes every finished job's result from it
   verbatim (no re-solve), and re-queues the rest.
3. **The journal is deterministic.**  Results are finalized and
   written in *job index order* regardless of completion order, so the
   same batch at ``--jobs 1`` and ``--jobs 4`` journals byte-identically
   modulo each result's ``timing`` field and the header's ``runtime``
   block.
4. **Hung workers die on a deadline.**  A dedicated watchdog thread —
   independent of the dispatch loop, so even an orchestrator-side
   stall cannot postpone it — SIGKILLs any worker past its wall-clock
   deadline; the kill is classified ``TIMEOUT``.  A worker that exits
   cleanly in the race window between the liveness check and the kill
   keeps its own outcome (see
   :class:`repro.runner.substrate.Watchdog`).

The process-spawning and watchdog machinery itself lives in
:mod:`repro.runner.substrate`, shared with the solve service
(:mod:`repro.service.server`); this module owns only batch semantics (journal, retry, breaker, classification).

Retry (off by default) resubmits CRASH/TIMEOUT jobs with exponential
backoff and a shrunken budget; a retried solve resumes the killed
attempt's branch-and-bound checkpoint from the job's scratch
directory.  The per-spec-class circuit breaker skips further jobs of a
class after N consecutive failures (see
:class:`~repro.runner.jobs.CircuitBreaker`).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from collections import deque
from dataclasses import dataclass, field, replace as _replace
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import JournalHeaderError, JournalWriteError, RunnerError
from repro.runner.jobs import (
    CircuitBreaker,
    JobOutcome,
    JobResult,
    JobSpec,
    RetryPolicy,
    manifest_digest,
)
from repro.runner.journal import (
    JOURNAL_SCHEMA,
    JournalWriter,
    finished_results,
    recover,
)
from repro.runner.limits import classify_exit, ResourceLimits
from repro.runner.substrate import Watchdog as _Watchdog
from repro.runner.substrate import spawn_worker, worker_env as _worker_env


def classify_worker_result(
    *,
    index: int,
    job_id: str,
    spec_class: str,
    limits: ResourceLimits,
    attempt: int,
    result_file: Path,
    returncode: "Optional[int]",
    watchdog_killed: bool,
    duration_s: float,
    pid: "Optional[int]" = None,
    relativize: "Optional[Callable[[str], str]]" = None,
) -> JobResult:
    """Turn a dead worker process into a typed :class:`JobResult`.

    Shared between the batch orchestrator and the solve service — both
    run jobs through ``repro.runner.worker`` subprocesses and need the
    identical classification contract: trust the result file when the
    worker wrote one (and the watchdog did not fire), otherwise derive
    the outcome from the exit status (:func:`classify_exit`).  Never
    raises.
    """
    timing: "Dict[str, object]" = {
        "duration_s": round(duration_s, 6),
        "pid": pid,
        "returncode": returncode,
    }
    payload: "Optional[Dict[str, object]]" = None
    if result_file.exists() and not watchdog_killed:
        try:
            payload = json.loads(result_file.read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                payload = None
        except (OSError, json.JSONDecodeError):
            payload = None
    if payload is not None and "outcome" in payload:
        try:
            outcome = JobOutcome(str(payload["outcome"]))
        except ValueError:
            outcome = JobOutcome.CRASH
            payload["error"] = (
                f"worker reported unknown outcome "
                f"{payload.get('outcome')!r}"
            )
        worker_timing = payload.get("timing")
        if isinstance(worker_timing, dict):
            timing.update(worker_timing)
        keep = relativize if relativize is not None else (lambda text: text)
        return JobResult(
            index=index,
            job_id=job_id,
            spec_class=spec_class,
            outcome=outcome,
            attempts=attempt,
            solve=(
                dict(payload["solve"])  # type: ignore[arg-type]
                if isinstance(payload.get("solve"), dict) else None
            ),
            error=(
                None if payload.get("error") is None
                else str(payload["error"])
            ),
            limit_notes=[str(n) for n in payload.get("limit_notes", [])],  # type: ignore[union-attr]
            artifacts={
                str(k): keep(str(v))
                for k, v in dict(payload.get("artifacts", {})).items()  # type: ignore[arg-type]
            },
            timing=timing,
        )
    outcome_name, detail = classify_exit(returncode, watchdog_killed, limits)
    return JobResult(
        index=index,
        job_id=job_id,
        spec_class=spec_class,
        outcome=JobOutcome(outcome_name),
        attempts=attempt,
        error=detail,
        timing=timing,
    )


@dataclass(frozen=True)
class BatchConfig:
    """Orchestrator knobs; every field has a safe default."""

    concurrency: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: "Optional[int]" = None
    poll_interval_s: float = 0.02
    save_telemetry: bool = True

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise RunnerError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.poll_interval_s <= 0:
            raise RunnerError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )


@dataclass
class _Pending:
    job: JobSpec
    attempt: int = 1
    ready_at: float = 0.0
    history: "List[str]" = field(default_factory=list)


@dataclass
class _Active:
    pending: _Pending
    proc: "subprocess.Popen"
    result_file: Path
    stderr_file: Path
    log_handle: object
    started_at: float
    flags: dict


class BatchRunner:
    """Run a batch of jobs with process isolation and a crash-only journal.

    Parameters
    ----------
    jobs:
        The batch, in execution (= journal) order.  Indices must be
        ``0..n-1`` exactly — they key the journal.
    journal_path:
        The append-only JSONL journal (created, or replayed on resume).
    scratch_dir:
        Per-job working directories (job files, results, checkpoints,
        telemetry artifacts).  Defaults to ``<journal>.scratch/``.
    config:
        Pool behavior; see :class:`BatchConfig`.
    on_event:
        Optional callback ``(kind, payload)`` for progress reporting
        (``"launch"``, ``"finish"``, ``"retry"``, ``"skip"``).
    """

    def __init__(
        self,
        jobs: "List[JobSpec]",
        journal_path: "str | Path",
        scratch_dir: "str | Path | None" = None,
        config: "Optional[BatchConfig]" = None,
        on_event: "Optional[Callable[[str, Dict[str, object]], None]]" = None,
    ) -> None:
        if not jobs:
            raise RunnerError("batch has no jobs")
        indices = [job.index for job in jobs]
        if indices != list(range(len(jobs))):
            raise RunnerError(
                f"job indices must be 0..{len(jobs) - 1} in order, got {indices}"
            )
        self.jobs = list(jobs)
        self.journal_path = Path(journal_path)
        self.scratch_dir = (
            Path(scratch_dir) if scratch_dir is not None
            else self.journal_path.with_name(self.journal_path.name + ".scratch")
        )
        self.config = config if config is not None else BatchConfig()
        self.on_event = on_event
        self.digest = manifest_digest(self.jobs)

    # ------------------------------------------------------------------

    def _emit(self, kind: str, **payload: object) -> None:
        if self.on_event is not None:
            self.on_event(kind, payload)

    def run(self, resume: bool = False, overwrite: bool = False) -> "List[JobResult]":
        """Execute (or finish) the batch; returns results in job order.

        ``resume=True`` replays an existing journal first; completed
        jobs are **not** re-run.  A fresh run refuses to clobber an
        existing journal unless ``overwrite=True``.
        """
        from_journal: "Dict[int, JobResult]" = {}
        quarantined = 0
        fresh = True
        if resume:
            try:
                records, quarantined = recover(self.journal_path, self.digest)
            except JournalHeaderError as exc:
                # Without its header the records cannot be bound to
                # this batch's manifest: not repairable in place.
                raise RunnerError(
                    f"{exc}; run 'repro doctor --repair' on the run "
                    f"directory or restart with overwrite"
                ) from exc
            if quarantined:
                self._emit("journal_quarantined", records=quarantined)
            from_journal = finished_results(self.journal_path, records)
            fresh = not records
        elif self.journal_path.exists() and not overwrite:
            raise RunnerError(
                f"journal {self.journal_path} already exists; pass "
                f"resume=True to finish it or overwrite=True to restart"
            )
        elif self.journal_path.exists():
            self.journal_path.unlink()

        self.scratch_dir.mkdir(parents=True, exist_ok=True)

        breaker = CircuitBreaker(self.config.breaker_threshold)
        finalized: "Dict[int, tuple[JobResult, bool]]" = {
            index: (result, True) for index, result in from_journal.items()
        }
        pending: "Deque[_Pending]" = deque(
            _Pending(job) for job in self.jobs if job.index not in from_journal
        )
        active: "Dict[int, _Active]" = {}
        next_flush = 0
        watchdog = _Watchdog()
        watchdog.start()

        with JournalWriter(self.journal_path) as writer:
            if fresh:
                writer.header(
                    n_jobs=len(self.jobs),
                    manifest_digest=self.digest,
                    runtime={
                        "concurrency": self.config.concurrency,
                        "pid": os.getpid(),
                        "started_at": time.time(),
                        "resumed": resume,
                    },
                )
            if quarantined:
                # Durable trace that this resume lost records to bit
                # rot (replay ignores notes; doctor and humans do not).
                writer.note("quarantined", {"records": quarantined})

            def flush_in_order() -> int:
                nonlocal next_flush
                while next_flush < len(self.jobs) and next_flush in finalized:
                    result, loaded = finalized[next_flush]
                    if not loaded:
                        try:
                            writer.finished(result)
                        except JournalWriteError as exc:
                            # A full or broken disk must fail *this
                            # record's durability*, not the batch: the
                            # in-memory result survives (annotated so
                            # the loss is visible), later appends are
                            # attempted normally, and a --resume will
                            # honestly re-run the job the journal
                            # never captured.
                            result = _replace(result, limit_notes=[
                                *result.limit_notes,
                                f"journal write failed: {exc}",
                            ])
                            finalized[next_flush] = (result, loaded)
                            self._emit(
                                "journal_error", job=result.index,
                                error=str(exc), path=exc.path,
                            )
                    breaker.record(result)
                    next_flush += 1
                return next_flush

            flush_in_order()
            try:
                while pending or active:
                    now = time.monotonic()
                    self._dispatch(pending, active, breaker, finalized,
                                   watchdog, now)
                    self._reap(pending, active, finalized, watchdog)
                    flush_in_order()
                    if pending or active:
                        time.sleep(self.config.poll_interval_s)
                flush_in_order()
            finally:
                watchdog.stop()
                for info in active.values():
                    try:
                        info.proc.kill()
                    except OSError:
                        pass
                    try:
                        info.log_handle.close()  # type: ignore[attr-defined]
                    except Exception:
                        pass

        return [finalized[index][0] for index in range(len(self.jobs))]

    # ------------------------------------------------------------------

    def _dispatch(
        self,
        pending: "Deque[_Pending]",
        active: "Dict[int, _Active]",
        breaker: CircuitBreaker,
        finalized: "Dict[int, tuple[JobResult, bool]]",
        watchdog: _Watchdog,
        now: float,
    ) -> None:
        while len(active) < self.config.concurrency:
            item = self._next_ready(pending, now)
            if item is None:
                return
            job = item.job
            if breaker.is_open(job.spec_class):
                result = JobResult(
                    index=job.index,
                    job_id=job.job_id,
                    spec_class=job.spec_class,
                    outcome=JobOutcome.SKIPPED,
                    attempts=item.attempt - 1 if item.attempt > 1 else 0,
                    error=(
                        f"circuit breaker open for spec class "
                        f"{job.spec_class!r} "
                        f"({breaker.threshold} consecutive failures)"
                    ),
                )
                finalized[job.index] = (result, False)
                self._emit("skip", job=job.index, spec_class=job.spec_class)
                continue
            self._launch(item, active, watchdog)

    @staticmethod
    def _next_ready(pending: "Deque[_Pending]", now: float) -> "Optional[_Pending]":
        """First pending item whose backoff has elapsed (stable order)."""
        for position, item in enumerate(pending):
            if item.ready_at <= now:
                del pending[position]
                return item
        return None

    def _job_dir(self, job: JobSpec) -> Path:
        return self.scratch_dir / job.job_id

    def _relativize(self, path: str) -> str:
        """Scratch-relative artifact paths keep the journal deterministic.

        Absolute paths would differ between hosts (and between two runs
        with different journal locations) for byte-identical batches.
        """
        try:
            return str(Path(path).resolve().relative_to(self.scratch_dir.resolve()))
        except ValueError:
            return path

    def _launch(
        self,
        item: _Pending,
        active: "Dict[int, _Active]",
        watchdog: _Watchdog,
    ) -> None:
        job = item.job
        job_dir = self._job_dir(job)
        job_dir.mkdir(parents=True, exist_ok=True)
        job_file = job_dir / f"job-a{item.attempt}.json"
        result_file = job_dir / f"result-a{item.attempt}.json"
        stderr_file = job_dir / f"worker-a{item.attempt}.log"
        payload = job.as_dict()
        payload["attempt"] = item.attempt
        # The checkpoint lives *outside* the attempt namespace so a
        # retry resumes the killed attempt's B&B frontier (DESIGN.md §9).
        payload["checkpoint_path"] = str(job_dir / "checkpoint.json")
        if self.config.save_telemetry and job.source.get("kind") != "drill":
            payload["telemetry_path"] = str(job_dir / "telemetry.json")
        job_file.write_text(json.dumps(payload, sort_keys=True))
        if result_file.exists():
            result_file.unlink()

        log_handle = open(stderr_file, "w", encoding="utf-8")  # noqa: SIM115 - closed after wait
        flags: dict = {"watchdog_killed": False}
        proc = spawn_worker(
            ["-m", "repro.runner.worker", str(job_file), str(result_file)],
            stdout=log_handle,
            stderr=log_handle,
            env=_worker_env(),
        )
        started = time.monotonic()
        if job.limits.wall_limit_s is not None:
            watchdog.watch(job.index, proc, started + job.limits.wall_limit_s,
                           flags)
        active[job.index] = _Active(
            pending=item,
            proc=proc,
            result_file=result_file,
            stderr_file=stderr_file,
            log_handle=log_handle,
            started_at=started,
            flags=flags,
        )
        self._emit("launch", job=job.index, attempt=item.attempt, pid=proc.pid)

    def _reap(
        self,
        pending: "Deque[_Pending]",
        active: "Dict[int, _Active]",
        finalized: "Dict[int, tuple[JobResult, bool]]",
        watchdog: _Watchdog,
    ) -> None:
        for index in list(active):
            info = active[index]
            returncode = info.proc.poll()
            if returncode is None:
                continue
            watchdog.unwatch(index)
            del active[index]
            try:
                info.log_handle.close()  # type: ignore[attr-defined]
            except Exception:
                pass
            duration = time.monotonic() - info.started_at
            result = self._classify(info, returncode, duration)
            item = info.pending
            item.history.append(result.outcome.value)
            if self.config.retry.wants_retry(result.outcome, item.attempt):
                delay = self.config.retry.delay_for(item.attempt)
                retry_job = item.job.with_shrunk_budget(
                    self.config.retry.budget_shrink
                )
                pending.appendleft(_Pending(
                    job=retry_job,
                    attempt=item.attempt + 1,
                    ready_at=time.monotonic() + delay,
                    history=item.history,
                ))
                self._emit("retry", job=index, attempt=item.attempt,
                           outcome=result.outcome.value, delay_s=delay)
                continue
            finalized[index] = (result, False)
            self._emit("finish", job=index, outcome=result.outcome.value)

    def _classify(
        self, info: _Active, returncode: int, duration: float
    ) -> JobResult:
        """Turn a dead worker into a typed JobResult (never raises)."""
        item = info.pending
        job = item.job
        return classify_worker_result(
            index=job.index,
            job_id=job.job_id,
            spec_class=job.spec_class,
            limits=job.limits,
            attempt=item.attempt,
            result_file=info.result_file,
            returncode=returncode,
            watchdog_killed=bool(info.flags.get("watchdog_killed")),
            duration_s=duration,
            pid=info.proc.pid,
            relativize=self._relativize,
        )


# ----------------------------------------------------------------------
# summaries


def batch_summary(results: "List[JobResult]") -> "Dict[str, object]":
    """Deterministic batch summary document (``repro.batch_summary/v1``).

    Built exclusively from the deterministic slice of each result
    (``JobResult.summary_row``), so an interrupted-then-resumed batch
    and an uninterrupted one summarize byte-identically.
    """
    counts: "Dict[str, int]" = {}
    for result in results:
        counts[result.outcome.value] = counts.get(result.outcome.value, 0) + 1
    return {
        "schema": "repro.batch_summary/v1",
        "journal_schema": JOURNAL_SCHEMA,
        "n_jobs": len(results),
        "outcomes": {key: counts[key] for key in sorted(counts)},
        "rows": [result.summary_row() for result in results],
    }
