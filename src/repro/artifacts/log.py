"""Append-only JSONL artifacts: the durable writer and tolerant reader.

This is the storage substrate under the batch/service journal
(``repro.batch_journal/v1``) and — via its plumbing — the proof log
(``repro.bnb_proof/v1``): one self-checksummed JSON object per line,
appended, flushed, and (for journals) fsynced before the caller acts
on it.  The crash contract is the crash-only classic: a SIGKILL
mid-append loses at most the torn final line, and *only* that torn
final line is tolerated at read time — anything else wrong mid-file
is corruption, reported with a typed cause and repairable by
quarantine (:func:`repair_log`), never by guesswork.
"""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, List, Optional, Tuple

from repro.artifacts import fsio
from repro.artifacts.framing import record_checksum_ok, seal_record
from repro.artifacts.quarantine import quarantine_record
from repro.errors import ArtifactError


def _artifact_error(exc: OSError, path: "str | Path", verb: str) -> ArtifactError:
    """Typed wrapper for an OS failure out of the seam."""
    cause = "enospc" if exc.errno == errno.ENOSPC else "io"
    detail = getattr(exc, "strerror", None) or str(exc)
    return ArtifactError(
        f"cannot {verb} {path}: {exc}",
        path=str(path), cause=cause, detail=detail,
    )


class DurableWriter:
    """Append one sealed JSONL record at a time, durably.

    ``fsync=True`` is the journal contract (once :meth:`append`
    returns, a SIGKILL cannot lose the record); proof logs run with
    ``fsync=False`` during the search (flush-per-record, fsync on
    close) because they are advisory until audited.  ``seal=True``
    attaches the CRC-32 self-checksum to every record.

    All failures surface as :class:`~repro.errors.ArtifactError` with
    ``cause`` ``"enospc"`` or ``"io"``.  The handle is deliberately
    kept open after a failure: space freed later lets subsequent
    appends succeed without reopening anything.  The append after a
    failed one starts with a newline, so a partial line left behind
    stands alone instead of welding onto the next record.  A disk that
    reports success for a short write (``torn-line``) cannot be caught
    here; the reader's parse and CRC checks catch it.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        fsync: bool = True,
        seal: bool = True,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.seal = seal
        self._handle: "Optional[IO[bytes]]" = None
        self._last_failed = False

    def open(self, truncate: bool = False) -> "DurableWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        ops = fsio.current_ops()
        try:
            self._handle = (
                ops.open_write(self.path) if truncate
                else ops.open_append(self.path)
            )
        except OSError as exc:
            raise _artifact_error(exc, self.path, "open") from exc
        return self

    def close(self, durable: bool = True) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            if durable and not handle.closed:
                ops = fsio.current_ops()
                ops.flush(handle)
                ops.fsync(handle)
        except OSError as exc:
            raise _artifact_error(exc, self.path, "finalize") from exc
        finally:
            handle.close()

    def __enter__(self) -> "DurableWriter":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close(durable=exc_info[0] is None)

    def append(self, record: "Dict[str, object]") -> "Dict[str, object]":
        """Seal, serialize, write, flush (and fsync) one record."""
        if self._handle is None:
            raise ArtifactError(
                f"writer for {self.path} is not open", path=str(self.path)
            )
        if self.seal:
            record = seal_record(dict(record))
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        data = line.encode("utf-8") + b"\n"
        if self._last_failed:
            data = b"\n" + data
        ops = fsio.current_ops()
        try:
            ops.write(self._handle, data)
            ops.flush(self._handle)
            if self.fsync:
                ops.fsync(self._handle)
        except OSError as exc:
            self._last_failed = True
            raise _artifact_error(exc, self.path, "append to") from exc
        self._last_failed = False
        return record


@dataclass
class LogLine:
    """One physical line of a JSONL artifact, good or bad.

    ``record`` is the parsed object for intact lines; ``cause`` names
    what is wrong with a bad one (``"bit-rot"`` for unparseable bytes
    or a failed CRC, ``"bad-schema"`` for a parseable non-object).
    """

    lineno: int
    raw: bytes
    record: "Optional[Dict[str, object]]" = None
    cause: "Optional[str]" = None


@dataclass
class LogScan:
    """Tolerant read of a JSONL artifact.

    ``torn_tail`` is the one condition that is *normal*: bytes after
    the final newline are the signature of a crash mid-append and are
    reported, not treated as corruption.  Everything in ``bad`` is
    real corruption with a typed cause.
    """

    path: Path
    lines: "List[LogLine]" = field(default_factory=list)
    torn_tail: bool = False
    torn_raw: bytes = b""

    @property
    def records(self) -> "List[Tuple[int, Dict[str, object]]]":
        return [
            (line.lineno, line.record)
            for line in self.lines if line.record is not None
        ]

    @property
    def bad(self) -> "List[LogLine]":
        return [line for line in self.lines if line.cause is not None]

    @property
    def clean(self) -> bool:
        return not self.bad and not self.torn_tail


def scan_log(path: "str | Path", *, verify_crc: bool = True) -> LogScan:
    """Read a JSONL artifact, classifying every line.

    Raises :class:`~repro.errors.ArtifactError` only when the file
    itself cannot be read (``cause="io"``); every in-band problem is
    reported through the scan so callers choose strictness.  Records
    without a ``crc`` field pass the checksum check — artifacts
    written before sealing existed stay readable, they just lack
    bit-rot detection.
    """
    path = Path(path)
    try:
        raw = fsio.current_ops().read_bytes(path)
    except OSError as exc:
        raise _artifact_error(exc, path, "read") from exc
    scan = LogScan(path=path)
    if not raw:
        return scan
    complete, _, tail = raw.rpartition(b"\n")
    if tail:
        scan.torn_tail = True
        scan.torn_raw = tail
    if not complete:
        return scan
    for lineno, line in enumerate(complete.split(b"\n"), start=1):
        if not line.strip():
            continue
        entry = LogLine(lineno=lineno, raw=line)
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            entry.cause = "bit-rot"
            scan.lines.append(entry)
            continue
        if not isinstance(record, dict):
            entry.cause = "bad-schema"
        elif verify_crc and "crc" in record and not record_checksum_ok(record):
            entry.cause = "bit-rot"
        else:
            entry.record = record
        scan.lines.append(entry)
    return scan


def truncate_torn_tail(path: "str | Path") -> bool:
    """Drop the crash-torn bytes after the final newline, atomically.

    Returns True when something was trimmed.  A file reduced to
    nothing is removed outright.  The one trim behind the journal's
    recovery (:func:`repro.runner.journal.recover`), the proof
    writer's re-open validation and the doctor's repair; the torn
    tail is exactly what :func:`scan_log` reports as ``torn_tail``.
    """
    path = Path(path)
    ops = fsio.current_ops()
    raw = ops.read_bytes(path)
    complete, sep, tail = raw.rpartition(b"\n")
    if not tail:
        return False
    if not complete:
        path.unlink()
        return True
    atomic_rewrite(path, complete + sep)
    return True


def atomic_rewrite(path: Path, data: bytes) -> None:
    """write-temp, fsync, rename, fsync-dir: the only safe rewrite."""
    ops = fsio.current_ops()
    tmp = path.with_name(path.name + ".tmp")
    try:
        handle = ops.open_write(tmp)
        try:
            ops.write(handle, data)
            ops.flush(handle)
            ops.fsync(handle)
        finally:
            handle.close()
        ops.replace(tmp, path)
        ops.fsync_dir(path.parent)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise _artifact_error(exc, path, "rewrite") from exc


@dataclass(frozen=True)
class RepairReport:
    """What :func:`repair_log` did to one artifact."""

    quarantined: int = 0
    torn_dropped: bool = False
    removed: bool = False

    @property
    def changed(self) -> bool:
        return bool(self.quarantined) or self.torn_dropped or self.removed


def repair_log(path: "str | Path") -> RepairReport:
    """Make a JSONL artifact strictly readable again.

    Quarantines every corrupt line (and the torn tail fragment) into
    ``<path>.quarantine/``, then atomically rewrites the file holding
    only the intact lines' original bytes.  A file left with no intact
    lines is removed (its content lives on in quarantine) so the
    consumer starts fresh.  This is the honest-degradation primitive:
    after repair, replay sees exactly the records that verified.
    """
    path = Path(path)
    scan = scan_log(path)
    if scan.clean:
        return RepairReport()
    for line in scan.bad:
        quarantine_record(path, line.lineno, line.raw, line.cause or "bit-rot")
    if scan.torn_tail and scan.torn_raw:
        quarantine_record(path, len(scan.lines) + 1, scan.torn_raw, "torn")
    good = [line.raw for line in scan.lines if line.cause is None]
    if not good:
        path.unlink()
        return RepairReport(
            quarantined=len(scan.bad),
            torn_dropped=scan.torn_tail,
            removed=True,
        )
    atomic_rewrite(path, b"\n".join(good) + b"\n")
    return RepairReport(
        quarantined=len(scan.bad), torn_dropped=scan.torn_tail
    )


class DurableReader:
    """Strictness-choosing reader over one JSONL artifact.

    :meth:`scan` is the tolerant view (every line classified);
    :meth:`records` is the strict view — it raises a typed
    :class:`~repro.errors.ArtifactError` naming the first corrupt
    line, for callers that must refuse rather than degrade.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def scan(self, *, verify_crc: bool = True) -> LogScan:
        return scan_log(self.path, verify_crc=verify_crc)

    def records(self) -> "List[Dict[str, object]]":
        scan = self.scan()
        if scan.bad:
            first = scan.bad[0]
            raise ArtifactError(
                f"{self.path} line {first.lineno} is corrupt ({first.cause})",
                path=str(self.path), cause=first.cause or "bit-rot",
            )
        return [record for _, record in scan.records]
