"""Deterministic I/O fault injection at the artifact seam.

The PR 3 chaos layer proved the solver's recovery paths by faulting
the LP backend; this module does the same for the *storage* paths.
:class:`FaultyFS` wraps the real :class:`~repro.artifacts.fsio.FileOps`
and, driven by a seeded RNG, makes a configurable fraction of seam
operations fail the way disks actually fail:

``enospc``
    ``write`` raises ``OSError(ENOSPC)`` having written nothing — the
    classic full disk; the journal must fail *the record*, not the
    process.
``short-write``
    ``write`` persists only a prefix, then raises ``OSError(EIO)`` —
    a torn line the writer knows about.
``torn-line``
    ``write`` persists only a prefix and *reports success* — the lying
    disk; detection is read-time (CRC / JSON parse), the case
    quarantine exists for.
``fsync-raise``
    ``fsync`` raises ``OSError(EIO)``: the data may or may not be
    durable, the writer must treat the record as lost.
``eio-read``
    ``read_bytes`` raises ``OSError(EIO)`` — unreadable media.
``bit-flip``
    ``read_bytes`` returns the data with one bit flipped — bit rot,
    detectable only through checksums/digests.
``rename-fail``
    ``replace`` raises ``OSError(EIO)``, stranding the temp file the
    stale-temp sweep must later collect.
``tmp-litter``
    ``replace`` succeeds but drops an extra stale ``.tmp`` beside the
    target first — the debris a previously crashed writer leaves.

Faults raise genuine :class:`OSError`, not typed wrappers: the point
is to drill the conversion and recovery code above the seam exactly
as a real kernel would.  The same ``(kinds, rate, seed)`` triple
always yields the same fault sequence, so chaos tests are replayable.
"""

from __future__ import annotations

import contextlib
import errno
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Optional, Tuple

from repro.artifacts import fsio
from repro.faultplan import SeededFaultPlan, SeededInjector

#: Every I/O fault class the injector knows, in documentation order.
IO_FAULT_KINDS: "Tuple[str, ...]" = (
    "enospc", "short-write", "torn-line", "fsync-raise",
    "eio-read", "bit-flip", "rename-fail", "tmp-litter",
)

#: Which seam operation each fault class attacks.
_OP_FOR_KIND = {
    "enospc": "write",
    "short-write": "write",
    "torn-line": "write",
    "fsync-raise": "fsync",
    "eio-read": "read",
    "bit-flip": "read",
    "rename-fail": "replace",
    "tmp-litter": "replace",
}


@dataclass(frozen=True)
class IOFaultPlan(SeededFaultPlan):
    """What to inject at the filesystem seam, how often, seeded.

    The fields are those of :class:`~repro.faultplan.SeededFaultPlan`
    (shared with the LP chaos layer's
    :class:`~repro.ilp.resilience.faults.FaultPlan`), over
    :data:`IO_FAULT_KINDS`.
    """

    kinds: "Tuple[str, ...]" = ("enospc",)

    KNOWN_KINDS = IO_FAULT_KINDS
    KIND_LABEL = "I/O fault"


@dataclass
class IOFaultRecord:
    """One injected I/O fault, for the structured fault log."""

    op: int
    kind: str
    path: str


class FaultyFS(SeededInjector, fsio.FileOps):
    """A :class:`~repro.artifacts.fsio.FileOps` that fails on purpose.

    Each seam operation draws from the plan's RNG *before* delegating,
    so the decision sequence is a pure function of ``(seed, operation
    count)`` — identical across runs regardless of what the faults do
    to the consumer.  Only fault kinds matching the operation can fire
    on it; the RNG still advances on every candidate operation so the
    sequence stays aligned.  :meth:`telemetry` has the LP chaos
    block's shape, with ``ops`` in place of ``calls``.
    """

    COUNT_KEY = "ops"

    def __init__(
        self,
        plan: "Optional[IOFaultPlan]" = None,
        inner: "Optional[fsio.FileOps]" = None,
    ) -> None:
        super().__init__(plan if plan is not None else IOFaultPlan())
        self.inner = inner if inner is not None else fsio.FileOps()
        self.ops = 0

    # ------------------------------------------------------------------

    def _draw(self, op: str) -> "Optional[str]":
        """This operation's fault kind (or None), advancing the RNG."""
        self.ops += 1
        kind = self._roll()
        return kind if kind is not None and _OP_FOR_KIND[kind] == op else None

    # -- faulted operations --------------------------------------------

    def write(self, handle: "IO[bytes]", data: bytes) -> int:
        kind = self._draw("write")
        if kind is None:
            return self.inner.write(handle, data)
        path = getattr(handle, "name", "<handle>")
        self._record(IOFaultRecord(self.ops, kind, str(path)))
        if kind == "enospc":
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        # Persist a strict prefix: cut at an RNG-chosen byte so torn
        # lines land mid-record, not only at boundaries.
        cut = self._rng.randrange(0, max(1, len(data)))
        if cut:
            self.inner.write(handle, data[:cut])
        if kind == "short-write":
            raise OSError(errno.EIO, "I/O error mid-write (injected)")
        return len(data)  # torn-line: the lying disk reports success

    def fsync(self, handle: "IO[bytes]") -> None:
        kind = self._draw("fsync")
        if kind is None:
            self.inner.fsync(handle)
            return
        path = getattr(handle, "name", "<handle>")
        self._record(IOFaultRecord(self.ops, kind, str(path)))
        raise OSError(errno.EIO, "fsync failed (injected)")

    def read_bytes(self, path: "str | Path") -> bytes:
        kind = self._draw("read")
        if kind is None:
            return self.inner.read_bytes(path)
        self._record(IOFaultRecord(self.ops, kind, str(path)))
        if kind == "eio-read":
            raise OSError(errno.EIO, "read failed (injected)")
        data = bytearray(self.inner.read_bytes(path))
        if data:
            victim = self._rng.randrange(0, len(data))
            data[victim] ^= 1 << self._rng.randrange(0, 8)
        return bytes(data)

    def replace(self, src: "str | Path", dst: "str | Path") -> None:
        kind = self._draw("replace")
        if kind is None:
            self.inner.replace(src, dst)
            return
        self._record(IOFaultRecord(self.ops, kind, str(dst)))
        if kind == "rename-fail":
            raise OSError(errno.EIO, "rename failed (injected)")
        # tmp-litter: the rename succeeds, but debris from "an earlier
        # crashed writer" appears beside the target for sweeps to find.
        litter = Path(dst).with_name(Path(dst).name + ".stale.tmp")
        litter.write_bytes(b'{"litter":')
        self.inner.replace(src, dst)


@contextlib.contextmanager
def inject_io_faults(plan: IOFaultPlan) -> "Iterator[FaultyFS]":
    """Swap a :class:`FaultyFS` into the artifact seam for one scope."""
    faulty = FaultyFS(plan)
    with fsio.swap_ops(faulty):
        yield faulty
