"""Durable service jobs: the journal contract and deadline budgets.

The service shares the batch runner's crash-only durability story
(:mod:`repro.runner.journal`, schema ``repro.batch_journal/v1``) but
its jobs arrive one at a time over HTTP, so the record vocabulary is
slightly different:

* ``batch`` header — written once per fresh journal with ``n_jobs=0``
  and ``manifest_digest="service"`` (there is no manifest: the
  ``accepted`` records *are* the job list);
* ``note kind="accepted"`` — one per admitted job, appended and
  fsynced **before** the client is acknowledged.  Carries the full
  formulation-defining request slice, so the record alone re-runs the
  job;
* ``finished`` — the classified :class:`~repro.runner.jobs.JobResult`,
  exactly as in a batch journal;
* ``note kind="shed"`` — an accepted job that was explicitly shed
  later (evicted from the queue by a higher-priority newcomer).

Recovery is the batch's own (:func:`repro.runner.journal.recover`)
followed by a fold: ``accepted − finished − shed`` is precisely the
set of jobs the server owes its clients, each re-enqueued **exactly
once** — a job SIGKILLed mid-solve resumes from its B&B checkpoint
(the checkpoint path is a pure function of the job id, so the
restarted server finds it without any extra bookkeeping).

Deadline budgets also live here: one function turns "seconds of
wall-clock budget remaining" into the three nested enforcement layers
(solver ``time_limit_s`` < watchdog wall limit < kernel CPU limit), so
server and tests cannot disagree about the arithmetic.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.artifacts.quarantine import quarantine_file
from repro.errors import JournalHeaderError, RunnerError, ServiceError
from repro.runner.jobs import JobResult, JobSpec
from repro.runner.journal import JournalWriter, finished_results, recover
from repro.runner.limits import ResourceLimits
from repro.service.protocol import SolveRequest, parse_solve_request

#: The journal header's manifest digest for service journals (there is
#: no manifest; the accepted records are the job list).
SERVICE_DIGEST = "service"


class JobState(Enum):
    """Where a service job is in its life."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    SHED = "shed"


def job_id_for(index: int) -> str:
    """Stable job identifier: journal key, scratch directory, API handle."""
    return f"s{index:06d}"


@dataclass(eq=False)
class ServiceJob:
    """One admitted solve, from acceptance to result.

    Mutable on purpose — it is the server's unit of bookkeeping, only
    ever touched from the event loop (and, for ``proc``/``flags``, the
    single executor thread that owns the worker process).  ``eq=False``
    keeps identity semantics (and hashability): two jobs are the same
    job only if they are the same object, fingerprint equality
    notwithstanding.
    """

    index: int
    request: SolveRequest
    fingerprint: str
    deadline_s: float
    accepted_monotonic: float
    state: JobState = JobState.QUEUED
    result: "Optional[JobResult]" = None
    error: "Optional[ServiceError]" = None
    recovered: bool = False
    followers: int = 0
    done: asyncio.Event = field(default_factory=asyncio.Event)
    # Set by the executor thread while the worker runs, read by the
    # event loop during drain (GIL-atomic attribute writes).
    proc: object = None
    flags: "Dict[str, bool]" = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        return job_id_for(self.index)

    @property
    def spec_class(self) -> str:
        return self.request.spec_class

    def remaining_budget(self, now: float) -> float:
        """Wall-clock budget left, queue wait already spent."""
        return self.deadline_s - (now - self.accepted_monotonic)

    def to_job_spec(
        self,
        *,
        time_limit_s: float,
        limits: ResourceLimits,
    ) -> JobSpec:
        """The worker-protocol job this service job compiles to."""
        request = self.request
        return JobSpec(
            index=self.index,
            source=request.source,
            mix=request.mix,
            n_partitions=request.n_partitions,
            relaxation=request.relaxation,
            device=request.device,
            memory=request.memory,
            time_limit_s=time_limit_s,
            node_limit=request.node_limit,
            options=dict(request.options),
            branching=request.branching,
            spec_class=request.spec_class,
            limits=limits,
        )

    def accepted_record(self) -> "Dict[str, object]":
        """The ``accepted`` note payload (everything needed to re-run)."""
        return {
            "job": self.index,
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "deadline_s": self.deadline_s,
            "request": self.request.solve_fields(),
        }


def budget_limits(
    remaining_s: float,
    *,
    solver_fraction: float = 0.9,
    startup_grace_s: float = 5.0,
    memory_limit_mb: "Optional[int]" = None,
) -> "Tuple[float, ResourceLimits]":
    """Map a remaining wall-clock budget onto the three nested limits.

    Returns ``(time_limit_s, ResourceLimits)`` with the enforcement
    layers strictly ordered:

    * solver ``time_limit_s`` = ``solver_fraction`` of the budget —
      the *graceful* layer: the search stops itself and reports the
      incumbent as FEASIBLE-with-gap (a degraded but legitimate
      answer);
    * watchdog ``wall_limit_s`` = budget + grace — the backstop for a
      worker wedged outside the solver loop (imports, model build);
    * kernel ``cpu_limit_s`` = budget + grace — the backstop the
      watchdog itself cannot miss, enforced by ``RLIMIT_CPU``.

    The grace term covers worker startup (interpreter + imports), which
    the solver's own limit does not see; without it a tight deadline
    would always hard-kill instead of degrading gracefully.
    """
    time_limit_s = max(0.1, remaining_s * solver_fraction)
    backstop = remaining_s + startup_grace_s
    return time_limit_s, ResourceLimits(
        memory_limit_mb=memory_limit_mb,
        cpu_limit_s=backstop,
        wall_limit_s=backstop,
    )


class ServiceJournal:
    """The service's append-only journal (see module docstring).

    A thin vocabulary layer over :class:`JournalWriter`; every append
    raises :class:`~repro.errors.JournalWriteError` on a broken disk,
    which the server maps to a refused request (``accepted`` append
    fails → the client gets a 503, nothing was promised) or an
    annotated result (``finished`` append fails → the client still
    gets the answer, durability alone is lost).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._writer = JournalWriter(self.path)

    def open(self, fresh: bool) -> "ServiceJournal":
        self._writer.open()
        if fresh:
            self._writer.header(n_jobs=0, manifest_digest=SERVICE_DIGEST)
        return self

    def close(self) -> None:
        self._writer.close()

    def accepted(self, job: ServiceJob) -> None:
        self._writer.note("accepted", job.accepted_record())

    def finished(self, result: JobResult) -> None:
        self._writer.finished(result)

    def shed(self, index: int, reason: str) -> None:
        self._writer.note("shed", {"job": index, "reason": reason})


@dataclass(frozen=True)
class RecoveredState:
    """What a journal replay yields at startup.

    ``quarantined`` counts the corrupt records (or, when the header
    itself was destroyed, the whole journal) moved into
    ``<journal>.quarantine/`` before replay — surfaced by the server as
    the ``quarantined_records`` metric so silent bit rot is never
    silently absorbed.
    """

    finished: "Dict[int, JobResult]"
    pending: "List[ServiceJob]"
    next_index: int
    fresh: bool
    quarantined: int = 0


def recover_journal(path: "str | Path") -> RecoveredState:
    """Replay a service journal into the state a restarted server needs.

    The journal is readied by the batch runner's own recovery,
    :func:`repro.runner.journal.recover`: bit rot — a mid-file record
    whose bytes no longer parse or whose CRC-32 seal fails — is
    quarantined and *counted*, so the rest of the journal replays and
    the server comes up honestly degraded instead of refusing or
    guessing; a torn tail (the bytes after the final newline) is
    trimmed.  A journal whose header line is destroyed cannot be
    trusted at all and is quarantined whole (fresh start).  Every
    surviving acknowledged job comes back exactly once: either its
    ``finished`` result (served from memory / cache, never re-solved)
    or a re-enqueued :class:`ServiceJob` (its B&B checkpoint, if the
    killed worker wrote one, is picked up automatically because the
    checkpoint path is derived from the job id).  Raises
    :class:`~repro.errors.RunnerError` on a journal whose header names
    another manifest (a batch journal), before anything in the file is
    touched, and on a record that is intact (its seal verifies) but
    semantically unreadable — that is a writer bug, not disk damage,
    and must not be papered over.
    """
    path = Path(path)
    try:
        records, quarantined = recover(path, expected_digest=SERVICE_DIGEST)
    except JournalHeaderError as exc:
        # The header is gone: no schema, no digest, no trust.  The
        # whole file moves to quarantine and the server starts fresh.
        quarantine_file(path, exc.cause)
        return RecoveredState(
            finished={}, pending=[], next_index=0, fresh=True, quarantined=1,
        )
    accepted: "Dict[int, Dict[str, object]]" = {}
    shed: set = set()
    for record in records[1:]:
        event = record.get("event")
        if event == "note" and record.get("kind") == "accepted":
            accepted[int(record["job"])] = record  # type: ignore[arg-type]
        elif event == "note" and record.get("kind") == "shed":
            shed.add(int(record["job"]))  # type: ignore[arg-type]
    finished = finished_results(path, records)
    pending: "List[ServiceJob]" = []
    for index in sorted(accepted):
        if index in finished or index in shed:
            continue
        record = accepted[index]
        try:
            request_fields = dict(record["request"])  # type: ignore[arg-type]
            request = parse_solve_request({
                **request_fields,
                "tenant": str(record.get("tenant", "default")),
                "priority": int(record.get("priority", 0)),  # type: ignore[arg-type]
                "wait": False,
            })
            deadline_s = float(record["deadline_s"])  # type: ignore[arg-type]
            fingerprint = str(record["fingerprint"])
        except (KeyError, TypeError, ValueError, ServiceError) as exc:
            raise RunnerError(
                f"journal {path}: unreadable accepted record for "
                f"job {index}: {exc}"
            ) from exc
        pending.append(ServiceJob(
            index=index,
            request=request,
            fingerprint=fingerprint,
            deadline_s=deadline_s,
            accepted_monotonic=0.0,  # re-stamped when re-enqueued
            recovered=True,
        ))
    indices = [*accepted.keys(), *finished.keys()]
    next_index = max(indices) + 1 if indices else 0
    return RecoveredState(
        finished=finished,
        pending=pending,
        next_index=next_index,
        fresh=not records,
        quarantined=quarantined,
    )
