"""Crash-only batch journal: append-only JSONL, replayable, compactable.

The journal is the batch's *only* durable state.  The orchestrator
assumes it can be SIGKILLed at any instant — there is no shutdown
handler, no "dirty" flag, no recovery protocol beyond **replay**:

* every record is one JSON object on one line, appended and flushed
  before the orchestrator acts on it;
* a crash mid-append leaves at most a torn tail — the bytes after the
  final newline.  It is never a record: the journal is exactly the
  state as of the last complete line;
* ``--resume`` (and a restarted service) runs :func:`recover`, which
  quarantines corrupt records, trims the torn tail and checks the
  header; the batch then keeps every job with a ``finished`` record
  (its result is *taken from the journal*, never re-solved) and
  re-queues the rest;
* compaction rewrites header + latest ``finished`` record per job
  through the durable snapshot dance (write temp, fsync it, rename,
  fsync the directory), so a power cut mid-compaction cannot lose
  acknowledged records.

Storage mechanics live in :mod:`repro.artifacts`: the writer is an
:class:`~repro.artifacts.log.DurableWriter` (every record carries a
CRC-32 ``crc`` self-checksum, so bit rot is detectable — not only torn
writes), the one reader is :func:`~repro.artifacts.log.scan_log` (it
goes through the artifact seam, so the I/O chaos corpus drills this
exact path; :func:`read_journal` is only its strict view), and
corruption recovery is quarantine via
:func:`repro.artifacts.log.repair_log` — replay minus the quarantined
records, never a guess.

Record order is **deterministic**: the pool finalizes results in job
index order regardless of completion order, so the same batch run at
any ``--jobs N`` produces byte-identical journals modulo the ``timing``
field of each result, the header's ``runtime`` block (timestamps,
concurrency, host) — and therefore those records' ``crc`` seals, which
cover the varying fields.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.artifacts.log import (
    DurableWriter,
    LogScan,
    atomic_rewrite,
    repair_log,
    scan_log,
    truncate_torn_tail,
)
from repro.errors import ArtifactError, JournalHeaderError, JournalWriteError, RunnerError
from repro.runner.jobs import JobResult

#: Journal schema identifier; bump on any incompatible layout change.
#: (Record-level ``crc`` seals are an *optional* field, readable by and
#: of v1 readers, so they are not a schema bump.)
JOURNAL_SCHEMA = "repro.batch_journal/v1"


def _json_line(record: "Dict[str, object]") -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class JournalWriter(DurableWriter):
    """Append-only writer.  fsync after every record is the
    durability contract: once :meth:`finished` returns, a SIGKILL of
    the orchestrator cannot lose that job's result."""

    def __init__(self, path: "str | Path") -> None:
        super().__init__(path, fsync=True, seal=True)

    def open(self) -> "JournalWriter":  # type: ignore[override]
        super().open()
        return self

    def close(self) -> None:  # type: ignore[override]
        # Every append already fsynced; closing must not introduce a
        # new failure path for callers that only tear down.
        super().close(durable=False)

    def __enter__(self) -> "JournalWriter":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _append(self, record: "Dict[str, object]") -> None:
        """Append one record durably, or raise :class:`JournalWriteError`.

        Any failure out of write/flush/fsync — ``ENOSPC`` being the
        classic — is converted to the typed error so callers can fail
        *the affected record* (a job loses durability, a request is
        refused) without the orchestrator or server dying on an
        unhandled exception.  The handle is kept open: space freed
        later lets subsequent appends succeed again.
        """
        if self._handle is None:
            raise RunnerError("journal writer is not open")
        try:
            self.append(record)
        except ArtifactError as exc:
            raise JournalWriteError(
                f"journal append to {self.path} failed: {exc}",
                path=str(self.path),
                cause=exc.detail or str(exc),
            ) from exc

    def header(
        self,
        n_jobs: int,
        manifest_digest: str,
        runtime: "Optional[Dict[str, object]]" = None,
    ) -> None:
        """The batch header — always the first record of a fresh journal.

        Everything identity-bearing (schema, job count, manifest
        digest) is deterministic; everything environmental (timestamp,
        concurrency, pid) lives under ``runtime`` so determinism
        comparisons can strip one well-known key.
        """
        self._append({
            "event": "batch",
            "schema": JOURNAL_SCHEMA,
            "n_jobs": int(n_jobs),
            "manifest_digest": manifest_digest,
            "runtime": dict(runtime or {}),
        })

    def finished(self, result: JobResult) -> None:
        """One job's final classified result (after all its attempts)."""
        self._append({
            "event": "finished",
            "job": result.index,
            "result": result.as_dict(),
        })

    def note(self, kind: str, payload: "Dict[str, object]") -> None:
        """A non-result annotation (e.g. a breaker trip), deterministic."""
        record: "Dict[str, object]" = {"event": "note", "kind": kind}
        record.update(payload)
        self._append(record)


def _scan(path: Path) -> LogScan:
    try:
        return scan_log(path)
    except ArtifactError as exc:
        raise RunnerError(f"cannot read journal {path}: {exc}") from exc


def read_journal(
    path: "str | Path",
) -> "Tuple[List[Dict[str, object]], bool]":
    """Strict view over :func:`~repro.artifacts.log.scan_log`:
    ``(records, truncated_tail)``.

    ``truncated_tail`` is the scan's torn tail (bytes after the final
    newline: a crash mid-append, never a record).  Any complete line
    that is not an intact record raises :class:`RunnerError` naming
    the line and its cause; :func:`recover` quarantines such lines.
    """
    path = Path(path)
    scan = _scan(path)
    if scan.bad:
        first = scan.bad[0]
        what = (
            "expected an object" if first.cause == "bad-schema"
            else f"is corrupt ({first.cause})"
        )
        raise RunnerError(f"journal {path} line {first.lineno}: {what}")
    return [record for _, record in scan.records], scan.torn_tail


def _check_header(
    path: Path,
    records: "List[Dict[str, object]]",
    expected_digest: "Optional[str]" = None,
) -> None:
    if not records:
        return
    header = records[0]
    if header.get("event") != "batch" or header.get("schema") != JOURNAL_SCHEMA:
        raise RunnerError(
            f"journal {path} does not start with a "
            f"{JOURNAL_SCHEMA!r} batch header"
        )
    if expected_digest is not None:
        digest = header.get("manifest_digest")
        if digest != expected_digest:
            raise RunnerError(
                f"journal {path} belongs to a different batch "
                f"(manifest digest {str(digest)[:12]}..., expected "
                f"{expected_digest[:12]}...); refusing to resume"
            )


def finished_results(
    path: "str | Path",
    records: "List[Dict[str, object]]",
) -> "Dict[int, JobResult]":
    """``{job_index: JobResult}``; the *last* ``finished`` record per
    job wins, so a journal resumed before replays to the same state."""
    results: "Dict[int, JobResult]" = {}
    for record in records:
        if record.get("event") != "finished":
            continue
        try:
            result = JobResult.from_dict(record["result"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise RunnerError(
                f"journal {path}: unreadable finished record for "
                f"job {record.get('job')}: {exc}"
            ) from exc
        results[result.index] = result
    return results


def recover(
    path: "str | Path",
    expected_digest: "Optional[str]" = None,
) -> "Tuple[List[Dict[str, object]], int]":
    """Ready a journal for appending: ``(records, quarantined)``.

    Corrupt records are quarantined by
    :func:`~repro.artifacts.log.repair_log` (which also drops a torn
    tail); otherwise a torn tail is trimmed by
    :func:`~repro.artifacts.log.truncate_torn_tail`, since left in
    place it would weld onto the next record.  The header is checked
    as in :func:`replay` before anything is touched, so a foreign
    journal is refused as it was found; a destroyed header line
    raises :class:`~repro.errors.JournalHeaderError`, and each owner
    decides whether to refuse or to quarantine the file whole.  No
    records (a missing, empty or wholly quarantined journal) means the
    owner starts fresh.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    scan = _scan(path)
    if scan.lines and scan.lines[0].cause is not None:
        raise JournalHeaderError(path, scan.lines[0].cause)
    records = [record for _, record in scan.records]
    _check_header(path, records, expected_digest)
    quarantined = 0
    try:
        if scan.bad:
            quarantined = repair_log(path).quarantined
        elif scan.torn_tail:
            truncate_torn_tail(path)
    except ArtifactError as exc:
        raise RunnerError(f"cannot repair journal {path}: {exc}") from exc
    return records, quarantined


def replay(
    path: "str | Path",
    expected_digest: "Optional[str]" = None,
) -> "Dict[int, JobResult]":
    """Replay a journal into ``{job_index: final JobResult}``.

    Strict (see :func:`read_journal`); validates the header (schema
    and, when given, the manifest digest — resuming the wrong batch's
    journal must be refused, not merged).
    """
    path = Path(path)
    records, _ = read_journal(path)
    _check_header(path, records, expected_digest)
    return finished_results(path, records)


def compact(path: "str | Path") -> int:
    """Rewrite the journal as header + one ``finished`` record per job.

    Returns the number of records dropped.  Durable end to end: the
    compacted content is written to ``<path>.tmp``, **fsynced**, then
    ``os.replace``d over the journal, then the parent directory is
    fsynced — a power cut at any instant leaves either the old journal
    or the complete compacted one, never a short file that silently
    dropped acknowledged records.
    """
    records, truncated = read_journal(path)
    if not records:
        return 0
    header, rest = records[0], records[1:]
    latest: "Dict[object, Dict[str, object]]" = {}
    for record in rest:
        if record.get("event") == "finished":
            latest[record.get("job")] = record
    kept = [header] + [
        latest[key] for key in sorted(latest, key=lambda k: int(k))  # type: ignore[arg-type]
    ]
    data = "".join(_json_line(r) for r in kept).encode("utf-8")
    try:
        atomic_rewrite(Path(path), data)
    except ArtifactError as exc:
        raise JournalWriteError(
            f"journal compaction of {path} failed: {exc}",
            path=str(path), cause=exc.detail or str(exc),
        ) from exc
    dropped = len(rest) - (len(kept) - 1)
    return dropped + (1 if truncated else 0)
